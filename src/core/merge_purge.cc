#include "core/merge_purge.h"

#include <cstdio>
#include <cstdlib>

#include "core/purge_policy.h"
#include "gen/places_data.h"
#include "obs/trace.h"
#include "text/normalize.h"
#include "text/spell.h"
#include "util/thread_pool.h"

namespace mergepurge {

MergePurgeEngine::MergePurgeEngine(MergePurgeOptions options)
    : options_(std::move(options)) {}

Dataset MergePurgeResult::Purge(const Dataset& dataset) const {
  Result<Dataset> purged = PurgePolicy().Purge(dataset, component_of);
  if (!purged.ok()) {
    // Only a dataset other than the one the result labels gets here.
    std::fprintf(stderr, "MergePurgeResult::Purge: %s\n",
                 purged.status().ToString().c_str());
    std::abort();
  }
  return std::move(*purged);
}

Result<MergePurgeResult> MergePurgeEngine::Run(
    const Dataset& dataset, const EquationalTheory& theory) const {
  if (options_.keys.empty()) {
    return Status::InvalidArgument("MergePurgeOptions.keys is empty");
  }
  if (options_.window < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }

  // Conditioning runs on a private copy so callers keep their raw data.
  const Dataset* input = &dataset;
  Dataset conditioned;
  if (options_.condition_records &&
      !(dataset.schema() == employee::MakeSchema())) {
    return Status::InvalidArgument(
        "condition_records=true requires the employee schema; "
        "pre-condition custom schemas and set condition_records=false");
  }
  if (options_.condition_records) {
    Span span("condition");
    const SpellCorrector* corrector = nullptr;
    if (options_.spell_correct_city) {
      static const SpellCorrector* const city_corrector =
          new SpellCorrector(AllCityNames());
      corrector = city_corrector;
    }
    // The copy is built and conditioned range by range on the pool.
    std::vector<Record> records(dataset.size());
    auto condition = [&](size_t begin, size_t end) {
      for (size_t t = begin; t < end; ++t) {
        Record& r = records[t];
        r = dataset.record(static_cast<TupleId>(t));
        ConditionEmployeeRecord(&r);
        if (corrector != nullptr) {
          r.set_field(employee::kCity,
                      corrector->Correct(r.field(employee::kCity)));
        }
      }
    };
    ParallelFor(records.size(), AvailableCpus(), condition);
    conditioned = Dataset(dataset.schema(), std::move(records));
    input = &conditioned;
  }

  MultiPass multipass(options_.method, options_.window, options_.clustering);
  Result<MultiPassResult> detail =
      multipass.Run(*input, options_.keys, theory, options_.checkpoint_dir);
  if (!detail.ok()) return detail.status();

  MergePurgeResult result;
  result.detail = std::move(*detail);
  result.component_of = result.detail.component_of;

  // A label is its component's smallest tid (UnionFind::Label), so each
  // entity has exactly one tid labelled with itself.
  for (size_t t = 0; t < result.component_of.size(); ++t) {
    if (result.component_of[t] == t) ++result.num_entities;
  }
  return result;
}

}  // namespace mergepurge

#include "core/merge_purge.h"

#include <unordered_map>

#include "core/purge_policy.h"
#include "gen/places_data.h"
#include "obs/trace.h"
#include "text/normalize.h"
#include "text/spell.h"

namespace mergepurge {

MergePurgeEngine::MergePurgeEngine(MergePurgeOptions options)
    : options_(std::move(options)) {}

Dataset MergePurgeResult::Purge(const Dataset& dataset) const {
  return PurgePolicy().Purge(dataset, component_of);
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
    conditioned = dataset;
    ConditionEmployeeDataset(&conditioned);
    if (options_.spell_correct_city) {
      static const SpellCorrector* corrector =
          new SpellCorrector(AllCityNames());
      for (size_t t = 0; t < conditioned.size(); ++t) {
        Record& r = conditioned.mutable_record(static_cast<TupleId>(t));
        r.set_field(employee::kCity,
                    corrector->Correct(r.field(employee::kCity)));
      }
    }
    input = &conditioned;
  }

  MultiPass multipass(options_.method, options_.window, options_.clustering);
  Result<MultiPassResult> detail =
      multipass.Run(*input, options_.keys, theory, options_.checkpoint_dir);
  if (!detail.ok()) return detail.status();

  MergePurgeResult result;
  result.detail = std::move(*detail);
  result.component_of = result.detail.component_of;

  std::unordered_map<uint32_t, bool> seen;
  for (uint32_t component : result.component_of) seen.emplace(component, true);
  result.num_entities = seen.size();
  return result;
}

}  // namespace mergepurge

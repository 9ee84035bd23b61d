#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>
#include <unordered_set>

#include "gen/generator.h"
#include "service/protocol.h"
#include "util/string_util.h"

namespace perfbench {

using mergepurge::DatabaseGenerator;
using mergepurge::Fnv1a64;
using mergepurge::GeneratedDatabase;
using mergepurge::GeneratorConfig;
using mergepurge::Record;
using mergepurge::RecordToJson;
using mergepurge::StringPrintf;

uint64_t GeneratorSeed(uint64_t seed) { return seed % kGeneratorSeeds; }

const ServiceWorkload* FindServiceWorkload(const std::string& name) {
  for (const ServiceWorkload& workload : kServiceWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

Result<Dataset> GenerateDatabase(size_t originals, uint64_t seed) {
  GeneratorConfig config;
  config.num_records = originals;
  config.seed = GeneratorSeed(seed);
  Result<GeneratedDatabase> generated = DatabaseGenerator(config).Generate();
  if (!generated.ok()) return generated.status();
  return std::move(generated->dataset);
}

namespace {

std::string RecordKey(const Record& record) {
  std::string key;
  for (const std::string& field : record.fields()) {
    key += field;
    key += '\x1f';
  }
  return key;
}

}  // namespace

Result<ServiceInputs> MakeServiceInputs(const ServiceWorkload& workload,
                                        uint64_t seed) {
  Result<Dataset> all = GenerateDatabase(workload.originals, seed);
  if (!all.ok()) return all.status();
  if (all->size() <= workload.resident) {
    return Status::Internal(StringPrintf(
        "%s: generated %zu records, need more than %zu", workload.name,
        all->size(), workload.resident));
  }
  ServiceInputs inputs{Dataset(all->schema()), Dataset(all->schema()),
                       Dataset(all->schema())};
  std::unordered_set<std::string> resident_keys;
  for (size_t t = 0; t < workload.resident; ++t) {
    const Record& record = all->record(static_cast<TupleId>(t));
    resident_keys.insert(RecordKey(record));
    inputs.resident.Append(record);
  }
  for (size_t t = workload.resident; t < all->size(); ++t) {
    const Record& record = all->record(static_cast<TupleId>(t));
    if (inputs.probes.size() < workload.max_probes) {
      if (!resident_keys.contains(RecordKey(record))) {
        inputs.probes.Append(record);
      }
    } else {
      inputs.stream.Append(record);
    }
  }
  return inputs;
}

std::string MatchLine(const Dataset& dataset, size_t index) {
  JsonValue doc = JsonValue::Object();
  doc.Set("op", JsonValue("match"));
  doc.Set("record", RecordToJson(dataset.schema(),
                                 dataset.record(static_cast<TupleId>(index))));
  return doc.Dump(0) + "\n";
}

std::string UpsertLine(const Dataset& dataset, size_t begin, size_t end) {
  JsonValue records = JsonValue::Array();
  for (size_t t = begin; t < end; ++t) {
    records.Append(
        RecordToJson(dataset.schema(), dataset.record(static_cast<TupleId>(t))));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("op", JsonValue("upsert"));
  doc.Set("records", std::move(records));
  return doc.Dump(0) + "\n";
}

uint64_t MatchDigest(std::optional<uint32_t> entity,
                     const std::vector<TupleId>& matches) {
  std::string text = entity.has_value() ? std::to_string(*entity) : "-";
  for (TupleId t : matches) {
    text += ',';
    text += std::to_string(t);
  }
  return Fnv1a64(text);
}

std::optional<uint64_t> MatchDigestFromResponse(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  const JsonValue* entity = response.Find("entity");
  const JsonValue* matches = response.Find("matches");
  if (ok == nullptr || !ok->bool_value() || entity == nullptr ||
      matches == nullptr || !matches->is_array()) {
    return std::nullopt;
  }
  std::optional<uint32_t> best;
  if (entity->is_number()) best = static_cast<uint32_t>(entity->int_value());
  std::vector<TupleId> tids;
  tids.reserve(matches->size());
  for (const JsonValue& t : matches->elements()) {
    tids.push_back(static_cast<TupleId>(t.int_value()));
  }
  return MatchDigest(best, tids);
}

uint64_t ChainDigest(const std::vector<uint64_t>& digests) {
  uint64_t chain = Fnv1a64("");
  for (uint64_t digest : digests) chain = Fnv1a64(Hex(digest), chain);
  return chain;
}

Result<uint64_t> FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return Fnv1a64(bytes);
}

std::string Hex(uint64_t value) {
  return StringPrintf("%016llx", static_cast<unsigned long long>(value));
}

Result<JsonValue> LoadPinned(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return JsonValue::Parse(text.str());
}

std::string PinnedValue(const JsonValue& pinned, const std::string& workload,
                        uint64_t generator_seed, const std::string& name) {
  const JsonValue* by_seed = pinned.Find(workload);
  if (by_seed == nullptr) return "";
  const JsonValue* values = by_seed->Find(std::to_string(generator_seed));
  if (values == nullptr) return "";
  const JsonValue* value = values->Find(name);
  if (value == nullptr) return "";
  return value->is_string() ? value->string_value()
                            : std::to_string(value->int_value());
}

double TimeReference(uint64_t* checksum) {
  // The shape of a window scan: sort short strings over a small alphabet,
  // then take each one's edit distance to the next nine.
  constexpr size_t kStrings = 60000;
  constexpr size_t kWindow = 10;
  const auto start = std::chrono::steady_clock::now();
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state](uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  std::vector<std::string> strings(kStrings);
  for (std::string& s : strings) {
    s.resize(6 + next(14));
    for (char& c : s) c = static_cast<char>('a' + next(8));
  }
  std::sort(strings.begin(), strings.end());
  std::vector<size_t> row;
  uint64_t total = 0;
  for (size_t i = 0; i < strings.size(); ++i) {
    const std::string& a = strings[i];
    for (size_t j = i + 1; j < std::min(strings.size(), i + kWindow); ++j) {
      const std::string& b = strings[j];
      row.resize(b.size() + 1);
      for (size_t k = 0; k <= b.size(); ++k) row[k] = k;
      for (size_t p = 1; p <= a.size(); ++p) {
        size_t diagonal = row[0];
        row[0] = p;
        for (size_t k = 1; k <= b.size(); ++k) {
          const size_t above = row[k];
          row[k] = std::min({above + 1, row[k - 1] + 1,
                             diagonal + (a[p - 1] != b[k - 1] ? 1 : 0)});
          diagonal = above;
        }
      }
      total += row[b.size()];
    }
  }
  *checksum = total;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

Status CheckOptimizedBuild() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  return Status::InvalidArgument(
      "built without optimisation (Debug); refusing to report numbers");
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return Status::InvalidArgument(
      "built with a sanitizer; refusing to report numbers");
#else
  return Status::OK();
#endif
}

}  // namespace perfbench

// Shared pieces of the benchmark programs: the workload definitions,
// seed-derived inputs, request encoding, output digests and the pinned
// reference values. Both perfbench_e2e and perfbench_trace build their
// inputs here, so the traced run replays exactly what the end-to-end run
// sends.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "record/dataset.h"
#include "util/status.h"

namespace perfbench {

using mergepurge::Dataset;
using mergepurge::JsonValue;
using mergepurge::Result;
using mergepurge::Status;
using mergepurge::TupleId;

// Inputs repeat with this period in --seed; every generator seed in
// [0, kGeneratorSeeds) has its expected outputs pinned in pinned.json.
inline constexpr uint64_t kGeneratorSeeds = 64;
uint64_t GeneratorSeed(uint64_t seed);

// The batch workload: the paper's multi-pass SNM over one database.
inline constexpr char kBatchWorkload[] = "batch_124k";
inline constexpr size_t kBatchOriginals = 50000;
inline constexpr size_t kBatchWindow = 10;
inline constexpr const char* kBatchKeys[] = {"last-name", "first-name",
                                             "address"};

// A service workload: preload `resident` records over one connection,
// then drive a closed loop of `connections` clients.
struct ServiceWorkload {
  const char* name;
  size_t originals;       // Generator originals (duplicates ride along).
  size_t resident;        // Records preloaded before measuring.
  size_t preload_batch;   // Records per preload upsert request.
  bool durable;           // Run the server with --data-dir.
  size_t connections;     // Closed-loop clients.
  double match_frac;      // Probability a request is a match probe.
  size_t upsert_batch;    // Records per measured upsert request.
  size_t max_probes;      // Size cap of the held-out probe pool.
  double warmup_seconds;  // Unmeasured closed-loop time after preload.
};

inline constexpr ServiceWorkload kServiceWorkloads[] = {
    {"serve_upsert_100k", 80000, 100000, 2000, true, 4, 0.5, 8, 2000, 2.0},
    {"serve_match_20k", 10000, 20000, 250, false, 2, 1.0, 0, 5000, 0.0},
};

const ServiceWorkload* FindServiceWorkload(const std::string& name);

// Generates the employee database of `originals` originals (plus their
// duplicates) for a workload seed.
Result<Dataset> GenerateDatabase(size_t originals, uint64_t seed);

// The service workload's request material, cut from one generated
// stream: the first `resident` records are preloaded; the held-out rest
// gives the probe pool (never an exact copy of a resident record) and,
// after it, the stream of records the measured phase upserts.
struct ServiceInputs {
  Dataset resident;
  Dataset probes;
  Dataset stream;
};
Result<ServiceInputs> MakeServiceInputs(const ServiceWorkload& workload,
                                        uint64_t seed);

// Request lines (with the trailing newline) built by the protocol's
// record encoder.
std::string MatchLine(const Dataset& dataset, size_t index);
std::string UpsertLine(const Dataset& dataset, size_t begin, size_t end);

// Digest of one match answer: the best entity label (absent when nothing
// matched) and the ascending matched tuple ids.
uint64_t MatchDigest(std::optional<uint32_t> entity,
                     const std::vector<TupleId>& matches);
// The same digest read from a match response; nullopt when malformed.
std::optional<uint64_t> MatchDigestFromResponse(const JsonValue& response);
// Order-sensitive digest of a sequence of digests.
uint64_t ChainDigest(const std::vector<uint64_t>& digests);

// FNV-1a over a file's bytes.
Result<uint64_t> FileDigest(const std::string& path);
std::string Hex(uint64_t value);

// Reference values pinned from the benchmark's first commit
// (pinned.json): pinned[workload][generator seed][name] -> hex digest
// or count.
Result<JsonValue> LoadPinned(const std::string& path);
// The pinned string `name` for this workload and seed, or "" if absent.
std::string PinnedValue(const JsonValue& pinned, const std::string& workload,
                        uint64_t generator_seed, const std::string& name);

// Host speed (README.md, "Host speed"): the seconds a fixed computation
// takes on this host now. It runs only this file's code on a fixed input,
// so no change to the programs can move it. `*checksum` receives its
// result, which must always equal kReferenceChecksum.
double TimeReference(uint64_t* checksum);
inline constexpr double kReferenceSeconds = 0.25;
inline constexpr uint64_t kReferenceChecksum = 4810899;

// Nearest-rank percentile (p in [0, 1]) of unsorted samples; 0 if empty.
double Percentile(std::vector<double> samples, double p);

// Refuses (returns an error) when this program was compiled without
// optimisation or with a sanitizer: such numbers must never be reported.
Status CheckOptimizedBuild();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

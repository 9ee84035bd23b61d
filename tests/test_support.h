// Helpers shared by the test suites: a scratch directory, hand-made and
// generated employee records, the resident engine's options, and the
// serial replay every service-level path is compared against.

#ifndef MERGEPURGE_TESTS_TEST_SUPPORT_H_
#define MERGEPURGE_TESTS_TEST_SUPPORT_H_

#include <cstdlib>
#include <filesystem>
#include <string>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "core/merge_purge.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "service/match_service.h"

namespace mergepurge {

// A fresh directory under /tmp, removed with everything in it.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/mergepurge_test_XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp/mergepurge_test_bad";
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

inline Record MakeRecord(std::string_view ssn, std::string_view first,
                         std::string_view last, std::string_view address) {
  Record r;
  r.set_field(employee::kSsn, std::string(ssn));
  r.set_field(employee::kFirstName, std::string(first));
  r.set_field(employee::kLastName, std::string(last));
  r.set_field(employee::kAddress, std::string(address));
  r.set_field(employee::kCity, "SPRINGFIELD");
  r.set_field(employee::kState, "IL");
  r.set_field(employee::kZip, "62701");
  return r;
}

inline MergePurgeOptions EngineOptions(
    std::vector<KeySpec> keys = StandardThreeKeys(), size_t window = 8) {
  MergePurgeOptions options;
  options.keys = std::move(keys);
  options.window = window;
  return options;
}

// A service over `data_dir` that logs every batch with fsync and
// snapshots often (every 3 batches or 20 ms).
inline MatchServiceOptions DurableServiceOptions(const std::string& data_dir) {
  MatchServiceOptions options;
  options.engine = EngineOptions();
  // One upsert == one batch (the test thread is the only client).
  options.batcher.max_delay_ms = 0.0;
  options.durability.data_dir = data_dir;
  options.durability.fsync = FsyncPolicy::kAlways;
  options.durability.snapshot_every_batches = 3;
  options.durability.snapshot_interval_ms = 20;
  return options;
}

// Feeds `batches` (raw records) through a fresh incremental engine, the
// way the service's writer and its recovery do.
inline std::unique_ptr<IncrementalMergePurge> ReplaySerially(
    const MergePurgeOptions& options,
    const std::vector<std::vector<Record>>& batches) {
  auto engine = std::make_unique<IncrementalMergePurge>(options);
  EmployeeTheory theory;
  for (const std::vector<Record>& batch : batches) {
    Dataset dataset(employee::MakeSchema());
    for (const Record& record : batch) dataset.Append(record);
    EXPECT_TRUE(engine->AddBatch(dataset, theory).ok());
  }
  return engine;
}

// Field-by-field equality, in tuple-id order.
inline void ExpectSameRecords(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.size(), want.size());
  for (TupleId t = 0; t < want.size(); ++t) {
    ASSERT_EQ(got.record(t).fields(), want.record(t).fields()) << t;
  }
}

inline Dataset GenerateDataset(size_t num_records, uint64_t seed) {
  GeneratorConfig config;
  config.num_records = num_records;
  config.seed = seed;
  auto db = DatabaseGenerator(config).Generate();
  EXPECT_TRUE(db.ok());
  return std::move(db->dataset);
}

}  // namespace mergepurge

#endif  // MERGEPURGE_TESTS_TEST_SUPPORT_H_

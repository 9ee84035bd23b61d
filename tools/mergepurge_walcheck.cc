// mergepurge_walcheck — offline recovery auditor (docs/durability.md).
//
// Rebuilds the service engine state from a --data-dir twice and demands
// the two copies agree byte for byte:
//
//   A. the RECOVERY path the server takes at startup: newest valid
//      snapshot, then replay of the WAL tail past the snapshot sequence;
//   B. the REFERENCE path: a serial replay of the ENTIRE WAL from
//      sequence 1 into a fresh engine, ignoring snapshots.
//
// Path B needs the full log, so the server must have run with
// --keep-wal (snapshot-triggered truncation otherwise deletes the
// prefix that B depends on). Any divergence — record bytes, pair sets,
// or closure labels — is a durability bug and exits 1 with the first
// difference found.
//
//   mergepurge_walcheck --data-dir=DIR
//                       [--window=10]
//                       [--keys=last-name,first-name,address]
//                       [--rules=theory.rules]
//
// The engine flags must match the ones the server ran with (the
// snapshot's config digest enforces this for A; B trusts the flags).
//
// Exit codes: 0 states identical, 1 mismatch or runtime failure,
// 2 usage error.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "eval/experiment.h"
#include "keys/standard_keys.h"
#include "rules/theory_loader.h"
#include "service/snapshot.h"
#include "service/wal.h"
#include "util/string_util.h"

using namespace mergepurge;

namespace {

constexpr int kExitMismatch = 1;
constexpr int kExitUsage = 2;

constexpr const char* kUsage =
    "usage: mergepurge_walcheck --data-dir=DIR [--window=N] [--keys=...] "
    "[--rules=FILE]";

constexpr const char* kKnownFlags[] = {
    "data-dir", "window", "keys", "rules",
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "mergepurge_walcheck: %s\n", message.c_str());
  return kExitMismatch;
}

int UsageError(const std::string& message) {
  std::fprintf(stderr, "mergepurge_walcheck: %s\n%s\n", message.c_str(),
               kUsage);
  return kExitUsage;
}

// Replays `batches` into `engine` in sequence order. Deterministically
// rejected batches (AddBatch returning an error) are skipped, exactly as
// the server's recovery skips them: a batch the engine rejects now was
// rejected identically at original commit time, so skipping reproduces
// the acknowledged state.
Status Replay(const std::vector<WalBatch>& batches, uint64_t after_seq,
              const EquationalTheory& theory,
              IncrementalMergePurge* engine) {
  for (const WalBatch& batch : batches) {
    if (batch.seq <= after_seq) continue;
    Dataset dataset(engine->size() > 0 ? engine->records().schema()
                                       : employee::MakeSchema());
    dataset.Reserve(batch.records.size());
    for (const Record& record : batch.records) dataset.Append(record);
    (void)engine->AddBatch(dataset, theory);
  }
  return Status::OK();
}

// First point of divergence between the two engines, or empty when they
// are identical. Compares record count, every field of every record,
// the sorted pair sets, and the canonical closure labels.
std::string FirstDifference(const IncrementalMergePurge& a,
                            const IncrementalMergePurge& b) {
  if (a.size() != b.size()) {
    return StringPrintf("record counts differ: recovery=%zu replay=%zu",
                        a.size(), b.size());
  }
  const Dataset& ra = a.records();
  const Dataset& rb = b.records();
  const size_t fields = ra.schema().num_fields();
  for (size_t t = 0; t < a.size(); ++t) {
    for (size_t f = 0; f < fields; ++f) {
      const Record& rec_a = ra.record(static_cast<TupleId>(t));
      const Record& rec_b = rb.record(static_cast<TupleId>(t));
      if (rec_a.field(f) != rec_b.field(f)) {
        return StringPrintf(
            "record %zu field %zu differs: recovery='%s' replay='%s'", t, f,
            std::string(rec_a.field(f)).c_str(),
            std::string(rec_b.field(f)).c_str());
      }
    }
  }
  const auto pa = a.pairs().ToSortedVector();
  const auto pb = b.pairs().ToSortedVector();
  if (pa != pb) {
    return StringPrintf("pair sets differ: recovery=%zu replay=%zu pairs",
                        pa.size(), pb.size());
  }
  const std::vector<uint32_t> la = a.ComponentLabels();
  const std::vector<uint32_t> lb = b.ComponentLabels();
  for (size_t t = 0; t < la.size(); ++t) {
    if (la[t] != lb[t]) {
      return StringPrintf(
          "closure labels differ at tuple %zu: recovery=%u replay=%u", t,
          la[t], lb[t]);
    }
  }
  return std::string();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.status().ok()) return UsageError(args.status().message());
  const std::string unknown = args.FirstUnknownFlag(kKnownFlags);
  if (!unknown.empty()) return UsageError("unknown flag --" + unknown);
  if (!args.Has("data-dir")) return UsageError("--data-dir is required");
  const std::string data_dir = args.GetString("data-dir", "");
  if (data_dir.empty()) return UsageError("--data-dir needs a path");

  MergePurgeOptions options;
  Result<std::vector<KeySpec>> keys = KeysFromNames(
      args.GetString("keys", "last-name,first-name,address"));
  if (!keys.ok()) return UsageError(keys.status().message());
  options.keys = std::move(*keys);
  Result<size_t> window = WindowFlag(args);
  if (!window.ok()) return UsageError(window.status().message());
  options.window = *window;

  Result<LoadedTheory> loaded = LoadTheory(args.GetString("rules", ""),
                                           employee::MakeSchema(), nullptr);
  if (!loaded.ok()) return Fail(loaded.status().message());
  std::unique_ptr<EquationalTheory> theory = loaded->factory();

  // The full WAL, read once; both paths replay slices of it. Reading for
  // recovery may truncate a torn tail in place — the same cut the server
  // would make, so the audit sees exactly what a restart would.
  WalReadStats stats;
  Result<std::vector<WalBatch>> wal = ReadWalForRecovery(data_dir, 0, &stats);
  if (!wal.ok()) return Fail("reading WAL: " + wal.status().ToString());

  const uint64_t digest = EngineConfigDigest(options);

  // --- Path A: snapshot + tail, the server's startup sequence. ---
  IncrementalMergePurge recovery(options);
  uint64_t snapshot_seq = 0;
  Result<SnapshotState> snapshot = LoadNewestSnapshot(data_dir, digest);
  if (snapshot.ok()) {
    snapshot_seq = snapshot->seq;
    Status restored = recovery.Restore(std::move(snapshot->records),
                                       std::move(snapshot->pairs));
    if (!restored.ok()) {
      return Fail("restoring snapshot: " + restored.ToString());
    }
  } else if (snapshot.status().code() != StatusCode::kNotFound) {
    return Fail("loading snapshot: " + snapshot.status().ToString());
  }
  Status replayed = Replay(*wal, snapshot_seq, *theory, &recovery);
  if (!replayed.ok()) return Fail("tail replay: " + replayed.ToString());

  // --- Path B: serial replay of the whole log from sequence 1. ---
  if (!wal->empty() && wal->front().seq != 1) {
    return Fail(StringPrintf(
        "WAL starts at seq %llu, not 1 — it was truncated by a snapshot; "
        "rerun the server with --keep-wal to audit recovery",
        static_cast<unsigned long long>(wal->front().seq)));
  }
  if (wal->empty() && snapshot_seq > 0) {
    return Fail(
        "WAL is empty but a snapshot exists — the log was truncated; "
        "rerun the server with --keep-wal to audit recovery");
  }
  IncrementalMergePurge replay(options);
  Status full = Replay(*wal, 0, *theory, &replay);
  if (!full.ok()) return Fail("full replay: " + full.ToString());

  const std::string difference = FirstDifference(recovery, replay);
  if (!difference.empty()) {
    return Fail("recovery diverges from serial replay: " + difference);
  }
  std::fprintf(
      stderr,
      "mergepurge_walcheck: OK — snapshot seq %llu + %llu tail batches "
      "== serial replay of %llu batches (%zu records, %zu entities, "
      "%llu torn bytes cut)\n",
      static_cast<unsigned long long>(snapshot_seq),
      static_cast<unsigned long long>(
          stats.last_seq > snapshot_seq ? stats.last_seq - snapshot_seq : 0),
      static_cast<unsigned long long>(stats.batches_read),
      replay.size(), replay.NumEntities(),
      static_cast<unsigned long long>(stats.truncated_bytes));
  return 0;
}

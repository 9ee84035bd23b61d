#include "service/snapshot.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "core/checkpoint.h"
#include "core/pair_set.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/fs.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace mergepurge {

namespace {

constexpr char kSnapshotMagic[] = "MPSNAP1\n";
constexpr size_t kSnapshotMagicLen = 8;
constexpr char kManifestMagic[] = "MPSS1";
constexpr char kManifestName[] = "snapshot.manifest";

std::string EncodeBody(uint64_t config_digest, const SnapshotState& state) {
  std::string body;
  PutU64(&body, state.seq);
  PutU64(&body, config_digest);
  PutStringList(&body, state.records.schema().field_names());
  PutU64(&body, state.records.size());
  for (const Record& record : state.records.records()) {
    PutStringList(&body, record.fields());
  }
  std::vector<uint64_t> pairs = state.pairs;
  std::sort(pairs.begin(), pairs.end());
  PutU64(&body, pairs.size());
  for (const uint64_t pair : pairs) {
    PutU32(&body, PackedHigh(pair));
    PutU32(&body, PackedLow(pair));
  }
  return body;
}

Status DecodeBody(std::string_view body, const std::string& path,
                  uint64_t expected_config, SnapshotState* out) {
  size_t pos = 0;
  uint64_t config_digest = 0;
  if (!GetU64(body, &pos, &out->seq) ||
      !GetU64(body, &pos, &config_digest)) {
    return Status::ParseError(path + ": truncated snapshot header");
  }
  if (config_digest != expected_config) {
    return Status::InvalidArgument(StringPrintf(
        "%s: snapshot config digest %016llx does not match engine %016llx "
        "(engine parameters changed; remove the data dir to start fresh)",
        path.c_str(), static_cast<unsigned long long>(config_digest),
        static_cast<unsigned long long>(expected_config)));
  }
  std::vector<std::string> field_names;
  if (!GetStringList(body, &pos, &field_names)) {
    return Status::ParseError(path + ": truncated schema");
  }
  out->records = Dataset(Schema(std::move(field_names)));
  uint64_t record_count = 0;
  if (!GetU64(body, &pos, &record_count)) {
    return Status::ParseError(path + ": truncated record count");
  }
  out->records.Reserve(record_count);
  for (uint64_t r = 0; r < record_count; ++r) {
    std::vector<std::string> fields;
    if (!GetStringList(body, &pos, &fields)) {
      return Status::ParseError(path + ": truncated record");
    }
    out->records.Append(Record(std::move(fields)));
  }
  uint64_t pair_count = 0;
  if (!GetU64(body, &pos, &pair_count)) {
    return Status::ParseError(path + ": truncated pair count");
  }
  for (uint64_t p = 0; p < pair_count; ++p) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!GetU32(body, &pos, &lo) || !GetU32(body, &pos, &hi)) {
      return Status::ParseError(path + ": truncated pair");
    }
    out->pairs.push_back(PackMatch(lo, hi));
  }
  if (pos != body.size()) {
    return Status::ParseError(path + ": trailing bytes after snapshot body");
  }
  return Status::OK();
}

// Loads and fully validates one snapshot file.
Status LoadSnapshotFile(const std::string& path, uint64_t expected_config,
                        SnapshotState* out) {
  Result<std::string> read = ReadFileToString(path);
  if (!read.ok()) return Status::IoError("cannot open snapshot: " + path);
  const std::string& data = *read;
  if (data.size() < kSnapshotMagicLen ||
      data.compare(0, kSnapshotMagicLen, kSnapshotMagic) != 0) {
    return Status::ParseError(path + ": not a snapshot file");
  }
  size_t pos = kSnapshotMagicLen;
  uint64_t body_len = 0;
  uint32_t crc = 0;
  if (!GetU64(data, &pos, &body_len) || !GetU32(data, &pos, &crc) ||
      data.size() - pos != body_len) {
    return Status::ParseError(path + ": truncated snapshot");
  }
  std::string_view body(data.data() + pos, body_len);
  if (Crc32(body) != crc) {
    return Status::ParseError(path + ": snapshot checksum mismatch");
  }
  return DecodeBody(body, path, expected_config, out);
}

// Parses "snap-<16 hex>.mps" -> seq; false for any other name.
bool ParseSnapshotName(const std::string& name, uint64_t* seq) {
  if (name.size() != 5 + 16 + 4 || name.compare(0, 5, "snap-") != 0 ||
      name.compare(21, 4, ".mps") != 0) {
    return false;
  }
  char* end = nullptr;
  const std::string hex = name.substr(5, 16);
  *seq = std::strtoull(hex.c_str(), &end, 16);
  return end == hex.c_str() + 16;
}

}  // namespace

uint64_t EngineConfigDigest(const MergePurgeOptions& options) {
  uint64_t digest = Fnv1a64("engine-config");
  digest = Fnv1a64(
      StringPrintf("|m=%d;w=%zu;c=%d;s=%d",
                   static_cast<int>(options.method), options.window,
                   options.condition_records ? 1 : 0,
                   options.spell_correct_city ? 1 : 0),
      digest);
  for (const KeySpec& spec : options.keys) {
    digest = Fnv1a64(
        StringPrintf("|k=%016llx",
                     static_cast<unsigned long long>(KeySpecDigest(spec))),
        digest);
  }
  return digest;
}

std::string SnapshotFileName(uint64_t seq) {
  return StringPrintf("snap-%016llx.mps",
                      static_cast<unsigned long long>(seq));
}

Status SaveSnapshot(const std::string& dir, uint64_t config_digest,
                    const SnapshotState& state, FaultInjector* faults) {
  const std::string body = EncodeBody(config_digest, state);
  std::string file;
  file.reserve(kSnapshotMagicLen + 12 + body.size());
  file.append(kSnapshotMagic, kSnapshotMagicLen);
  PutU64(&file, body.size());
  PutU32(&file, Crc32(body));
  file.append(body);

  const std::string path = dir + "/" + SnapshotFileName(state.seq);
  const std::string tmp = path + ".tmp";

  // Crash point: process dies mid-write, leaving a partial temp file.
  // Recovery must ignore it (only renamed files are ever loaded).
  Status fault = faults->OnPoint(fault_points::kSnapshotWrite);
  if (!fault.ok()) {
    std::ofstream torn(tmp, std::ios::binary | std::ios::trunc);
    torn.write(file.data(), static_cast<std::streamsize>(file.size() / 2));
    return fault;
  }
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open for writing: " + tmp);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.flush();
    if (!out) return Status::IoError("write failed: " + tmp);
  }
  MERGEPURGE_RETURN_NOT_OK(FsyncPath(tmp));

  // Crash point: process dies after the temp write but before the
  // rename — the snapshot never becomes visible.
  fault = faults->OnPoint(fault_points::kSnapshotRename);
  if (!fault.ok()) return fault;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)RemoveFile(tmp);
    return Status::IoError("rename failed: " + tmp + " -> " + path);
  }
  MERGEPURGE_RETURN_NOT_OK(FsyncPath(dir));

  // Commit record: the manifest names the newest snapshot. Written last
  // so it never points at a file that is not fully durable.
  std::string manifest;
  manifest.append(kManifestMagic);
  manifest.push_back('\n');
  manifest.append(StringPrintf(
      "seq %016llx\n", static_cast<unsigned long long>(state.seq)));
  manifest.append(StringPrintf(
      "config %016llx\n", static_cast<unsigned long long>(config_digest)));
  manifest.append("file " + SnapshotFileName(state.seq) + "\n");
  MERGEPURGE_RETURN_NOT_OK(
      WriteFileDurable(dir + "/" + kManifestName, manifest));

  // Old snapshot files are garbage once the manifest moved on; keep just
  // the newest so the directory doesn't grow without bound. Best-effort:
  // a leftover file is wasted disk, not a correctness problem.
  Result<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      uint64_t seq = 0;
      if (ParseSnapshotName(name, &seq) && seq < state.seq) {
        (void)RemoveFile(dir + "/" + name);
      }
    }
  }
  return Status::OK();
}

Result<SnapshotState> LoadNewestSnapshot(const std::string& dir,
                                         uint64_t config_digest) {
  // Prefer the manifest's file: it is the committed pointer.
  const std::string manifest_path = dir + "/" + kManifestName;
  std::string manifest_file;
  {
    std::ifstream in(manifest_path);
    std::string line;
    bool magic_ok = in && std::getline(in, line) && line == kManifestMagic;
    while (magic_ok && std::getline(in, line)) {
      if (line.rfind("file ", 0) == 0) manifest_file = line.substr(5);
    }
  }
  uint64_t manifest_seq = 0;
  if (!manifest_file.empty() &&
      ParseSnapshotName(manifest_file, &manifest_seq)) {
    SnapshotState state;
    Status status = LoadSnapshotFile(dir + "/" + manifest_file,
                                     config_digest, &state);
    if (status.ok()) return state;
    // A config mismatch is a hard refusal (replaying under different
    // parameters silently corrupts the closure); anything else falls
    // through to the directory scan.
    if (status.code() == StatusCode::kInvalidArgument) return status;
  }

  // Fall back to the newest snap-*.mps that validates — covers a crash
  // between the snapshot rename and the manifest rewrite.
  Result<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<uint64_t> seqs;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseSnapshotName(name, &seq)) seqs.push_back(seq);
  }
  std::sort(seqs.rbegin(), seqs.rend());
  for (uint64_t seq : seqs) {
    SnapshotState state;
    Status status = LoadSnapshotFile(dir + "/" + SnapshotFileName(seq),
                                     config_digest, &state);
    if (status.ok()) return state;
    if (status.code() == StatusCode::kInvalidArgument) return status;
  }
  return Status::NotFound("no usable snapshot under " + dir);
}

// --- Snapshotter. ---

Snapshotter::Snapshotter(Options options, CopyFn copy, TruncateFn truncate)
    : options_(std::move(options)),
      copy_(std::move(copy)),
      truncate_(std::move(truncate)) {}

Snapshotter::~Snapshotter() { Stop(/*final_snapshot=*/false); }

void Snapshotter::Start() {
  MutexLock lock(mu_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void Snapshotter::NotifyBatch() {
  MutexLock lock(mu_);
  if (++batches_since_save_ >= options_.every_batches) cv_.NotifyOne();
}

Status Snapshotter::SnapshotNow() { return SaveOnce(); }

void Snapshotter::Stop(bool final_snapshot) {
  {
    MutexLock lock(mu_);
    if (!started_) return;
    started_ = false;
    stop_ = true;
    cv_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
  if (final_snapshot) (void)SaveOnce();
}

uint64_t Snapshotter::last_saved_seq() const {
  MutexLock lock(mu_);
  return last_saved_seq_;
}

double Snapshotter::ms_since_last_save() const {
  MutexLock lock(mu_);
  if (!saved_once_) return -1.0;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - last_saved_at_)
      .count();
}

void Snapshotter::Loop() {
  MutexLock lock(mu_);
  while (!stop_) {
    if (batches_since_save_ < options_.every_batches) {
      cv_.WaitFor(mu_, std::chrono::milliseconds(options_.interval_ms));
    }
    if (stop_) break;
    if (batches_since_save_ == 0) continue;
    lock.Unlock();
    (void)SaveOnce();
    lock.Lock();
  }
}

Status Snapshotter::SaveOnce() {
  // One save at a time (the loop vs an explicit SnapshotNow); the seq
  // check below makes the later of two saves of one state a no-op.
  MutexLock save_lock(save_mu_);
  uint64_t last = 0;
  {
    MutexLock lock(mu_);
    last = last_saved_seq_;
    batches_since_save_ = 0;
  }
  SnapshotState state;
  if (!copy_(&state) || state.seq <= last) return Status::OK();

  Timer timer;
  Status status =
      SaveSnapshot(options_.dir, options_.config_digest, state);
  static Counter* const saves = MetricsRegistry::Global().GetCounter(
      metric_names::kServiceSnapshotSaves);
  static Counter* const failures = MetricsRegistry::Global().GetCounter(
      metric_names::kServiceSnapshotFailures);
  static LatencyHistogram* const write_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceSnapshotWriteUs);
  if (!status.ok()) {
    // Non-fatal: the WAL still holds everything this snapshot would
    // have covered; the next tick retries.
    failures->Increment();
    return status;
  }
  saves->Increment();
  write_us->Record(static_cast<double>(timer.ElapsedMicros()));
  {
    MutexLock lock(mu_);
    if (state.seq > last_saved_seq_) last_saved_seq_ = state.seq;
    saved_once_ = true;
    last_saved_at_ = std::chrono::steady_clock::now();
  }
  MetricsRegistry::Global()
      .GetGauge(metric_names::kServiceSnapshotAgeMs)
      ->Set(0.0);
  if (!options_.keep_wal && truncate_) truncate_(state.seq);
  return Status::OK();
}

}  // namespace mergepurge

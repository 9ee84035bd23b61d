#include "service/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/fs.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace mergepurge {

namespace {

constexpr char kSegmentMagic[] = "MPWAL1\n";
constexpr size_t kSegmentMagicLen = 7;
// A single batch is bounded by the batcher (hundreds of records of short
// fields); anything near this is a corrupt length field, not data.
constexpr uint32_t kMaxPayloadBytes = 1u << 30;

std::string EncodePayload(uint64_t seq, const std::vector<Record>& records) {
  std::string payload;
  PutU64(&payload, seq);
  PutU32(&payload, static_cast<uint32_t>(records.size()));
  for (const Record& record : records) {
    PutStringList(&payload, record.fields());
  }
  return payload;
}

bool DecodePayload(std::string_view payload, WalBatch* out) {
  size_t pos = 0;
  uint32_t record_count = 0;
  if (!GetU64(payload, &pos, &out->seq)) return false;
  if (!GetU32(payload, &pos, &record_count)) return false;
  out->records.clear();
  out->records.reserve(record_count);
  for (uint32_t r = 0; r < record_count; ++r) {
    std::vector<std::string> fields;
    if (!GetStringList(payload, &pos, &fields)) return false;
    out->records.emplace_back(std::move(fields));
  }
  return pos == payload.size();
}

Status WriteFully(int fd, std::string_view data, const std::string& path) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write failed: " + path + " (" +
                             std::strerror(errno) + ")");
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Parses "wal-<16 hex>.log" -> first seq; false for any other name.
bool ParseSegmentName(const std::string& name, uint64_t* first_seq) {
  if (name.size() != 4 + 16 + 4 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(20, 4, ".log") != 0) {
    return false;
  }
  char* end = nullptr;
  const std::string hex = name.substr(4, 16);
  *first_seq = std::strtoull(hex.c_str(), &end, 16);
  return end == hex.c_str() + 16;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kGroup:
      return "group";
    case FsyncPolicy::kNone:
      return "none";
  }
  return "group";
}

Result<FsyncPolicy> ParseFsyncPolicy(const std::string& name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "group") return FsyncPolicy::kGroup;
  if (name == "none") return FsyncPolicy::kNone;
  return Status::InvalidArgument(
      "unknown fsync policy '" + name + "' (expected always, group, or none)");
}

std::string WalSegmentFileName(uint64_t first_seq) {
  return StringPrintf("wal-%016llx.log",
                      static_cast<unsigned long long>(first_seq));
}

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Open(const std::string& dir, uint64_t next_seq) {
  MutexLock lock(mu_);
  if (fd_ >= 0) return Status::Internal("WalWriter::Open: already open");
  dir_ = dir;
  next_seq_ = next_seq;
  active_first_seq_ = next_seq;
  active_path_ = dir + "/" + WalSegmentFileName(next_seq);
  fd_ = open(active_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    return Status::IoError("cannot open WAL segment: " + active_path_ + " (" +
                           std::strerror(errno) + ")");
  }
  // A restart can reopen the segment it crashed in (recovery truncated
  // it back to whole records); only a fresh file needs the header.
  off_t size = lseek(fd_, 0, SEEK_END);
  if (size == 0) {
    MERGEPURGE_RETURN_NOT_OK(
        WriteFully(fd_, {kSegmentMagic, kSegmentMagicLen}, active_path_));
    size = static_cast<off_t>(kSegmentMagicLen);
  }
  open_segment_bytes_ = static_cast<uint64_t>(size);
  MetricsRegistry::Global()
      .GetGauge(metric_names::kServiceWalOpenSegmentBytes)
      ->Set(static_cast<double>(open_segment_bytes_));
  return Status::OK();
}

Status WalWriter::AppendLocked(const std::vector<Record>& records) {
  // Stage attribution: serialize+write vs fsync, one sample per batch in
  // each so the stage counts stay equal (a 0 µs fsync sample under
  // --fsync=none is the truth, not noise). service.wal.append_us in
  // Commit keeps the combined number.
  static LatencyHistogram* const stage_append_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceStageWalAppendUs);
  static LatencyHistogram* const stage_fsync_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceStageWalFsyncUs);
  Timer stage_timer;
  const std::string payload = EncodePayload(next_seq_, records);
  std::string frame;
  frame.reserve(8 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload));
  frame.append(payload);

  // Crash point: the process dies mid-write, leaving a torn record. We
  // model it by writing only a prefix of the frame before failing.
  Status fault = faults_->OnPoint(fault_points::kWalAppend);
  if (!fault.ok()) {
    const std::string torn = frame.substr(0, 8 + payload.size() / 2);
    (void)WriteFully(fd_, torn, active_path_);
    return fault;
  }
  MERGEPURGE_RETURN_NOT_OK(WriteFully(fd_, frame, active_path_));

  static Counter* const appends =
      MetricsRegistry::Global().GetCounter(metric_names::kServiceWalAppends);
  static Counter* const bytes =
      MetricsRegistry::Global().GetCounter(metric_names::kServiceWalBytes);
  appends->Increment();
  bytes->Add(frame.size());
  open_segment_bytes_ += frame.size();
  MetricsRegistry::Global()
      .GetGauge(metric_names::kServiceWalOpenSegmentBytes)
      ->Set(static_cast<double>(open_segment_bytes_));
  stage_append_us->Record(static_cast<double>(stage_timer.ElapsedMicros()));

  stage_timer.Restart();
  if (policy_ != FsyncPolicy::kNone) {
    // Crash point: the append hit the page cache but the process dies
    // before fsync — the record may or may not survive the "crash".
    Status sync_fault = faults_->OnPoint(fault_points::kWalFsync);
    if (!sync_fault.ok()) return sync_fault;
    MERGEPURGE_RETURN_NOT_OK(FsyncFd(fd_, active_path_));
    static Counter* const fsyncs =
        MetricsRegistry::Global().GetCounter(metric_names::kServiceWalFsyncs);
    fsyncs->Increment();
  }
  stage_fsync_us->Record(static_cast<double>(stage_timer.ElapsedMicros()));
  return Status::OK();
}

Result<uint64_t> WalWriter::Commit(const std::vector<Record>& records) {
  Timer timer;
  MutexLock lock(mu_);
  if (!broken_.ok()) return broken_;
  if (fd_ < 0) return Status::Internal("WalWriter::Commit: not open");
  Status status = AppendLocked(records);
  if (!status.ok()) {
    // Fail-stop: a torn or unsynced record must stay the LAST record, so
    // the writer never appends past it (recovery truncates it away).
    broken_ = status;
    return status;
  }
  uint64_t seq = next_seq_++;
  static LatencyHistogram* const append_us =
      MetricsRegistry::Global().GetHistogram(
          metric_names::kServiceWalAppendUs);
  append_us->Record(static_cast<double>(timer.ElapsedMicros()));
  return seq;
}

Result<uint64_t> WalWriter::TruncateThrough(uint64_t seq) {
  MutexLock lock(mu_);
  if (!broken_.ok()) return broken_;
  if (fd_ < 0) return Status::Internal("WalWriter::TruncateThrough: not open");

  // Rotate when the snapshot covers records in the active segment, so
  // those records become removable at the next truncation.
  if (seq >= active_first_seq_ && next_seq_ > active_first_seq_) {
    // Any failure mid-rotation leaves the writer in an undefined file
    // state, so it latches fail-stop like a Commit failure would.
    Status rotate = FsyncFd(fd_, active_path_);
    if (rotate.ok()) {
      close(fd_);
      fd_ = -1;
      active_first_seq_ = next_seq_;
      active_path_ = dir_ + "/" + WalSegmentFileName(next_seq_);
      fd_ = open(active_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      rotate = fd_ < 0 ? Status::IoError("cannot open WAL segment: " +
                                         active_path_ + " (" +
                                         std::strerror(errno) + ")")
                       : Status::OK();
    }
    if (rotate.ok()) {
      rotate = WriteFully(fd_, {kSegmentMagic, kSegmentMagicLen},
                          active_path_);
    }
    if (rotate.ok()) rotate = FsyncPath(dir_);
    if (!rotate.ok()) {
      broken_ = rotate;
      return rotate;
    }
    open_segment_bytes_ = kSegmentMagicLen;
    MetricsRegistry::Global()
        .GetGauge(metric_names::kServiceWalOpenSegmentBytes)
        ->Set(static_cast<double>(open_segment_bytes_));
  }

  Result<std::vector<std::string>> names = ListDir(dir_);
  if (!names.ok()) return names.status();
  std::vector<uint64_t> firsts;
  for (const std::string& name : *names) {
    uint64_t first = 0;
    if (ParseSegmentName(name, &first)) firsts.push_back(first);
  }
  std::sort(firsts.begin(), firsts.end());
  uint64_t removed = 0;
  for (size_t i = 0; i + 1 < firsts.size(); ++i) {
    if (firsts[i] == active_first_seq_) continue;
    // Segment i holds seqs [firsts[i], firsts[i+1] - 1].
    if (firsts[i + 1] - 1 > seq) break;
    MERGEPURGE_RETURN_NOT_OK(
        RemoveFile(dir_ + "/" + WalSegmentFileName(firsts[i])));
    ++removed;
  }
  if (removed > 0) {
    MERGEPURGE_RETURN_NOT_OK(FsyncPath(dir_));
    static Counter* const removed_counter =
        MetricsRegistry::Global().GetCounter(
            metric_names::kServiceWalSegmentsRemoved);
    removed_counter->Add(removed);
  }
  return removed;
}

void WalWriter::Close() {
  MutexLock lock(mu_);
  if (fd_ < 0) return;
  if (broken_.ok() && policy_ != FsyncPolicy::kNone) {
    (void)FsyncFd(fd_, active_path_);
  }
  close(fd_);
  fd_ = -1;
}

uint64_t WalWriter::next_seq() const {
  MutexLock lock(mu_);
  return next_seq_;
}

Status WalWriter::health() const {
  MutexLock lock(mu_);
  return broken_;
}

uint64_t WalWriter::open_segment_bytes() const {
  MutexLock lock(mu_);
  return open_segment_bytes_;
}

Result<std::vector<WalBatch>> ReadWalForRecovery(const std::string& dir,
                                                 uint64_t after_seq,
                                                 WalReadStats* stats) {
  WalReadStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = WalReadStats();
  std::vector<WalBatch> batches;
  if (!PathExists(dir)) return batches;
  Result<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<uint64_t> firsts;
  for (const std::string& name : *names) {
    uint64_t first = 0;
    if (ParseSegmentName(name, &first)) firsts.push_back(first);
  }
  std::sort(firsts.begin(), firsts.end());

  uint64_t last_seq = 0;  // 0 = no record scanned yet.
  for (uint64_t first : firsts) {
    const std::string path = dir + "/" + WalSegmentFileName(first);
    Result<std::string> read = ReadFileToString(path);
    if (!read.ok()) return Status::IoError("cannot open WAL segment: " + path);
    const std::string& data = *read;
    ++stats->segments_scanned;

    if (data.size() < kSegmentMagicLen ||
        data.compare(0, kSegmentMagicLen, kSegmentMagic) != 0) {
      // A torn segment header (crash during rotation). Cut the whole
      // file; the writer re-writes the header on a zero-length file.
      stats->truncated_bytes += data.size();
      MERGEPURGE_RETURN_NOT_OK(TruncateFile(path, 0));
      break;
    }

    size_t pos = kSegmentMagicLen;
    size_t good_end = pos;
    bool torn = false;
    while (pos < data.size()) {
      uint32_t payload_len = 0;
      uint32_t crc = 0;
      size_t frame_start = pos;
      if (!GetU32(data, &pos, &payload_len) || !GetU32(data, &pos, &crc) ||
          payload_len > kMaxPayloadBytes ||
          data.size() - pos < payload_len) {
        torn = true;
        pos = frame_start;
        break;
      }
      std::string_view payload(data.data() + pos, payload_len);
      pos += payload_len;
      WalBatch batch;
      if (Crc32(payload) != crc || !DecodePayload(payload, &batch)) {
        torn = true;
        pos = frame_start;
        break;
      }
      if (last_seq != 0 && batch.seq != last_seq + 1) {
        // A sequence gap means everything from here on postdates a lost
        // record; replaying it would reorder history. Stop cleanly.
        return batches;
      }
      last_seq = batch.seq;
      stats->last_seq = batch.seq;
      ++stats->batches_read;
      stats->records_read += batch.records.size();
      if (batch.seq > after_seq) batches.push_back(std::move(batch));
      good_end = pos;
    }
    if (torn) {
      stats->truncated_bytes += data.size() - good_end;
      MERGEPURGE_RETURN_NOT_OK(TruncateFile(path, good_end));
      // Anything in later segments postdates the torn record; a
      // fail-stop writer can't have written any, but guard anyway.
      break;
    }
  }
  return batches;
}

}  // namespace mergepurge

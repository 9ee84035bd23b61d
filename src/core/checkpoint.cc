#include "core/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "io/pairs_io.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/fs.h"
#include "util/string_util.h"

namespace mergepurge {

namespace {
constexpr char kManifestMagic[] = "MPCK1";
}  // namespace

uint64_t DatasetDigest(const Dataset& dataset) {
  uint64_t digest = Fnv1a64("dataset");
  for (const Record& record : dataset.records()) {
    for (const std::string& field : record.fields()) {
      digest = Fnv1a64(field, digest);
      digest = Fnv1a64("\x1f", digest);  // Field separator.
    }
    digest = Fnv1a64("\x1e", digest);  // Record separator.
  }
  return digest;
}

uint64_t KeySpecDigest(const KeySpec& spec) {
  uint64_t digest = Fnv1a64(spec.name);
  for (const KeyComponent& component : spec.components) {
    digest = Fnv1a64(
        StringPrintf("|f=%u;k=%d;l=%zu", component.field,
                     static_cast<int>(component.kind), component.length),
        digest);
  }
  return digest;
}

std::string ManifestFileName(size_t pass_index) {
  return StringPrintf("pass_%zu.manifest", pass_index);
}

std::string PairsFileName(size_t pass_index) {
  return StringPrintf("pass_%zu.mpp", pass_index);
}

Status WritePassCheckpoint(const std::string& dir, size_t pass_index,
                           const PassManifest& manifest,
                           const PairSet& pairs) {
  // Pairs first: the manifest is the commit record, so it must only
  // appear after the data it points at is in place.
  const std::string pairs_path = dir + "/" + manifest.pairs_file;
  const std::string pairs_tmp = pairs_path + ".tmp";
  MERGEPURGE_RETURN_NOT_OK(WritePairSetFile(pairs, pairs_tmp));
  // fsync before the rename and the directory after it: the manifest
  // below is the commit record, so the pairs bytes (and their name) must
  // be durable first. Every failure propagates as a Status.
  Status durable = FsyncPath(pairs_tmp);
  if (durable.ok() &&
      std::rename(pairs_tmp.c_str(), pairs_path.c_str()) != 0) {
    durable = Status::IoError("rename failed: " + pairs_tmp + " -> " +
                              pairs_path);
  }
  if (!durable.ok()) {
    std::remove(pairs_tmp.c_str());
    return durable;
  }
  MERGEPURGE_RETURN_NOT_OK(FsyncPath(dir));

  std::ostringstream out;
  out << kManifestMagic << '\n';
  out << "key " << manifest.key_name << '\n';
  out << "spec " << StringPrintf("%016llx",
                                 static_cast<unsigned long long>(
                                     manifest.key_digest))
      << '\n';
  out << "config " << StringPrintf("%016llx",
                                   static_cast<unsigned long long>(
                                       manifest.config_digest))
      << '\n';
  out << "dataset " << StringPrintf("%016llx",
                                    static_cast<unsigned long long>(
                                        manifest.dataset_digest))
      << '\n';
  out << "pairs " << manifest.pairs_file << '\n';
  out << "complete " << (manifest.complete ? 1 : 0) << '\n';
  // The full durable protocol (util/fs.h): a manifest that survives a
  // crash must never point at data that didn't.
  Status status =
      WriteFileDurable(dir + "/" + ManifestFileName(pass_index), out.str());
  if (status.ok()) {
    static Counter* const saves =
        MetricsRegistry::Global().GetCounter(metric_names::kCheckpointSaves);
    saves->Increment();
  }
  return status;
}

Result<PassManifest> ReadPassManifest(const std::string& dir,
                                      size_t pass_index) {
  const std::string path = dir + "/" + ManifestFileName(pass_index);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no manifest: " + path);
  std::string line;
  if (!std::getline(in, line) || line != kManifestMagic) {
    return Status::ParseError(path + ": not a checkpoint manifest");
  }
  PassManifest manifest;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    size_t space = line.find(' ');
    if (space == std::string::npos) {
      return Status::ParseError(StringPrintf("%s:%zu: malformed line",
                                             path.c_str(), line_number));
    }
    std::string field = line.substr(0, space);
    std::string value = line.substr(space + 1);
    if (field == "key") {
      manifest.key_name = value;
    } else if (field == "spec" || field == "config" || field == "dataset") {
      char* end = nullptr;
      uint64_t digest = std::strtoull(value.c_str(), &end, 16);
      if (end == value.c_str() || *end != '\0') {
        return Status::ParseError(StringPrintf("%s:%zu: bad digest",
                                               path.c_str(), line_number));
      }
      if (field == "spec") manifest.key_digest = digest;
      if (field == "config") manifest.config_digest = digest;
      if (field == "dataset") manifest.dataset_digest = digest;
    } else if (field == "pairs") {
      manifest.pairs_file = value;
    } else if (field == "complete") {
      manifest.complete = value == "1";
    } else {
      return Status::ParseError(StringPrintf("%s:%zu: unknown field '%s'",
                                             path.c_str(), line_number,
                                             field.c_str()));
    }
  }
  if (manifest.pairs_file.empty()) {
    return Status::ParseError(path + ": manifest has no pairs file");
  }
  return manifest;
}

bool ManifestMatches(const PassManifest& manifest,
                     const std::string& key_name, uint64_t key_digest,
                     uint64_t config_digest, uint64_t dataset_digest) {
  return manifest.complete && manifest.key_name == key_name &&
         manifest.key_digest == key_digest &&
         manifest.config_digest == config_digest &&
         manifest.dataset_digest == dataset_digest;
}

Result<PairSet> LoadCheckpointedPairs(const std::string& dir,
                                      const PassManifest& manifest,
                                      size_t num_records) {
  Result<PairSet> pairs =
      ReadPairSetFile(dir + "/" + manifest.pairs_file, num_records);
  if (pairs.ok()) {
    static Counter* const loads =
        MetricsRegistry::Global().GetCounter(metric_names::kCheckpointLoads);
    loads->Increment();
  }
  return pairs;
}

}  // namespace mergepurge

// Checkpoint/resume for multi-pass merge/purge runs. The paper's §4.1
// pipelined operation ("We ran all independent runs in turn and stored the
// results on disk. We then computed the transitive closure over the
// results stored on disk.") assumes every run finishes; a multi-hour
// multi-pass job that dies between passes had to start over. This module
// makes the pipeline crash-consistent:
//
//   * after each pass its pair set is persisted via pairs_io, written to a
//     temp file and atomically renamed into place;
//   * a small manifest per pass records the pass identity — key name, key
//     spec digest, a config digest (method/window/cluster parameters) and
//     a record-source digest — plus a completion flag, also written
//     write-to-temp + rename (the manifest only becomes visible after its
//     pairs file is durable);
//   * on resume, a pass whose manifest exists, is complete, and matches
//     the current identity is loaded from disk instead of re-run; the
//     interrupted pass (missing or mismatched manifest) re-runs, and the
//     closure is recomputed over all passes.
//
// Digest mismatches (different inputs, keys, window, or method) silently
// invalidate the checkpoint for that pass — resuming with changed
// parameters recomputes rather than corrupting the closure.

#ifndef MERGEPURGE_CORE_CHECKPOINT_H_
#define MERGEPURGE_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "core/pair_set.h"
#include "keys/key_builder.h"
#include "record/dataset.h"
#include "util/status.h"

namespace mergepurge {

struct PassManifest {
  std::string key_name;
  uint64_t key_digest = 0;      // KeySpecDigest of the pass key.
  uint64_t config_digest = 0;   // Method/window/clustering parameters.
  uint64_t dataset_digest = 0;  // DatasetDigest of the record source.
  std::string pairs_file;       // Relative to the checkpoint dir.
  bool complete = false;
};

// Structural digests (FNV-1a). Any change to the hashed identity
// invalidates prior checkpoints, which is exactly the desired behaviour.
uint64_t DatasetDigest(const Dataset& dataset);
uint64_t KeySpecDigest(const KeySpec& spec);

// Writes the pass's pairs file (atomically, consulting the io.pairs_write
// fault point) and then its manifest. `dir` must exist.
Status WritePassCheckpoint(const std::string& dir, size_t pass_index,
                           const PassManifest& manifest,
                           const PairSet& pairs);

// Reads pass `pass_index`'s manifest. NotFound when absent; ParseError on
// a malformed file.
Result<PassManifest> ReadPassManifest(const std::string& dir,
                                      size_t pass_index);

// True iff `manifest` is complete and identifies the same pass as the
// given identity digests.
bool ManifestMatches(const PassManifest& manifest,
                     const std::string& key_name, uint64_t key_digest,
                     uint64_t config_digest, uint64_t dataset_digest);

// Loads the pairs file a manifest points at, for a dataset of
// `num_records` tuples; a pair outside it makes the file unreadable.
Result<PairSet> LoadCheckpointedPairs(const std::string& dir,
                                      const PassManifest& manifest,
                                      size_t num_records);

// Canonical file names inside a checkpoint directory.
std::string ManifestFileName(size_t pass_index);
std::string PairsFileName(size_t pass_index);

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_CHECKPOINT_H_

// Disk persistence for pair sets. The paper ran independent passes, stored
// each result on disk, and computed the transitive closure over the stored
// files (§4.1: "We ran all independent runs in turn and stored the results
// on disk. We then computed the transitive closure over the results stored
// on disk."). These helpers support the same pipelined operation: each
// pass (possibly on a different machine or day) writes its pairs; the
// closure step reads all files.
//
// File format: "MPP1\n" magic line, then one "lo hi\n" pair of decimal
// tuple ids per line, sorted ascending (diff-friendly, deterministic).

#ifndef MERGEPURGE_IO_PAIRS_IO_H_
#define MERGEPURGE_IO_PAIRS_IO_H_

#include <cstddef>
#include <string>

#include "core/pair_set.h"
#include "util/status.h"

namespace mergepurge {

Status WritePairSetFile(const PairSet& pairs, const std::string& path);

// Reads a pair file written for a dataset of `num_records` tuples. A pair
// naming a tuple id >= num_records is an OutOfRange error: the file
// belongs to another (larger) dataset, and its ids would index past the
// closure's arrays.
Result<PairSet> ReadPairSetFile(const std::string& path,
                                size_t num_records);

}  // namespace mergepurge

#endif  // MERGEPURGE_IO_PAIRS_IO_H_

// The (key, tid) order of every record order, and its builders. The
// batch builder serves both merge methods (paper §2.2 phases 1-2,
// §2.2.1). It groups tuples into buckets that are contiguous ranges of
// the (key, tid) order and sorts the buckets on the pool, the range
// partitioning of Kolb, Thor & Rahm's RepSN. A sorted-neighborhood pass
// draws its buckets from key splitters, so the buckets concatenated are
// exactly the global (key, tid) order and MakeOverlappingFragments
// (parallel/fragment_scan.h) bands it unchanged. A clustering pass's
// buckets are its clusters (KeyPartitioner::ClusterOf). The incremental
// engine inserts into the same order (InsertInOrder).

#ifndef MERGEPURGE_CORE_KEY_ORDER_H_
#define MERGEPURGE_CORE_KEY_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "record/record.h"

namespace mergepurge {

// The total order of every record order: key bytes, then tuple id.
inline bool KeyTidLess(std::string_view key_a, TupleId a,
                       std::string_view key_b, TupleId b) {
  const int cmp = key_a.compare(key_b);
  return cmp != 0 ? cmp < 0 : a < b;
}

// Buckets per worker of a sorted-neighborhood pass: more buckets than
// workers let the pool even out buckets of unequal cost.
inline constexpr size_t kBucketsPerWorker = 4;

struct KeyOrder {
  std::vector<TupleId> order;
  // Bucket b holds positions [bounds[b], bounds[b + 1]) of `order`; one
  // more entry than there are buckets. A bucket may be empty.
  std::vector<size_t> bounds;
  // Summed run time of the build's tasks: its cost on one CPU.
  double busy_seconds = 0.0;
};

// Groups each tuple t into bucket bucket_of[t] (< num_buckets) by a
// counting scatter, tids ascending within a bucket, then sorts every
// bucket by (keys[t], t) on a pool of `workers` threads. keys and
// bucket_of have one entry per tuple.
KeyOrder OrderByBuckets(const std::vector<std::string>& keys,
                        const std::vector<uint32_t>& bucket_of,
                        size_t num_buckets, size_t workers);

// The (key, tid) order of every tuple, range-partitioned into
// num_buckets buckets: num_buckets - 1 (key, tid) splitters are drawn
// from every k-th key (no RNG), each tuple's bucket is the number of
// splitters at or below it (binary search), and OrderByBuckets sorts the
// buckets. The order equals a serial sort by (key, tid) for every
// num_buckets and worker count.
KeyOrder OrderByKeyRanges(const std::vector<std::string>& keys,
                          size_t num_buckets, size_t workers);

// The number of entries of `order` (in KeyTidLess order, keys indexed by
// tuple id) that order before a tuple (key, tid): where it would go.
size_t InsertionPoint(const std::vector<std::string>& keys,
                      const std::vector<TupleId>& order, std::string_view key,
                      TupleId tid);

// Inserts tuples [first_new, keys.size()), whose ids exceed every id in
// `order`, into `order` and returns the positions they land at,
// ascending: one sort of the new tuples, a binary search each, and one
// backward pass that shifts resident ids (reading no keys). Into an empty
// order this is a single sort.
std::vector<size_t> InsertInOrder(const std::vector<std::string>& keys,
                                  TupleId first_new,
                                  std::vector<TupleId>* order);

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_KEY_ORDER_H_

// PairSet: a deduplicated set of unordered tuple-id pairs — the output of
// a merge pass ("each independent run will produce a set of pairs of
// records which can be merged", paper §2.4), stored as one sorted run of
// PackMatch(lo, hi) words: the order of pair files and snapshots.

#ifndef MERGEPURGE_CORE_PAIR_SET_H_
#define MERGEPURGE_CORE_PAIR_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "record/record.h"

namespace mergepurge {

// A match {a, b} as one word: a in the high half, b in the low half. The
// halves need not be ordered; PairSet orients them.
inline uint64_t PackMatch(TupleId a, TupleId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}
inline TupleId PackedHigh(uint64_t p) { return static_cast<TupleId>(p >> 32); }
inline TupleId PackedLow(uint64_t p) { return static_cast<TupleId>(p); }

class PairSet {
 public:
  PairSet() = default;

  // The set of `matches` (PackMatch words, in any order and orientation):
  // each is oriented to (lo, hi), self-pairs are dropped, and the run is
  // sorted and deduplicated.
  explicit PairSet(std::vector<uint64_t> matches);

  bool Contains(TupleId a, TupleId b) const;  // A binary search.

  size_t size() const { return packed_.size(); }
  bool empty() const { return packed_.empty(); }

  // This set becomes the union of itself and `other` (a linear merge).
  void Merge(const PairSet& other);

  // The (lo, hi) pairs as PackMatch(lo, hi) words, ascending.
  const std::vector<uint64_t>& packed() const { return packed_; }

  // Applies fn(lo, hi) to each pair in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t packed : packed_) fn(PackedHigh(packed), PackedLow(packed));
  }

 private:
  std::vector<uint64_t> packed_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_PAIR_SET_H_

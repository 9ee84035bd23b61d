#include "core/pair_set.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace mergepurge {

PairSet::PairSet(std::vector<uint64_t> matches) : packed_(std::move(matches)) {
  size_t kept = 0;
  for (const uint64_t match : packed_) {
    const TupleId a = PackedHigh(match);
    const TupleId b = PackedLow(match);
    if (a != b) packed_[kept++] = a < b ? match : PackMatch(b, a);
  }
  packed_.resize(kept);
  std::sort(packed_.begin(), packed_.end());
  packed_.erase(std::unique(packed_.begin(), packed_.end()), packed_.end());
}

bool PairSet::Contains(TupleId a, TupleId b) const {
  return a != b && std::binary_search(packed_.begin(), packed_.end(),
                                      a < b ? PackMatch(a, b)
                                            : PackMatch(b, a));
}

void PairSet::Merge(const PairSet& other) {
  std::vector<uint64_t> merged;
  merged.reserve(packed_.size() + other.packed_.size());
  std::set_union(packed_.begin(), packed_.end(), other.packed_.begin(),
                 other.packed_.end(), std::back_inserter(merged));
  packed_ = std::move(merged);
}

}  // namespace mergepurge

#include "parallel/coordinator.h"

#include <algorithm>

namespace mergepurge {

std::vector<Fragment> MakeOverlappingFragments(size_t n, size_t p,
                                               size_t w) {
  std::vector<Fragment> fragments;
  if (n == 0 || p == 0) return fragments;
  if (p > n) p = n;
  const size_t overlap = w > 0 ? w - 1 : 0;

  // Distribute n positions as evenly as possible, then extend each
  // fragment's start backwards by the replicated band.
  size_t base = n / p;
  size_t extra = n % p;
  size_t cursor = 0;
  for (size_t i = 0; i < p; ++i) {
    size_t length = base + (i < extra ? 1 : 0);
    if (length == 0) break;
    Fragment fragment;
    fragment.begin = cursor >= overlap ? cursor - overlap : 0;
    fragment.fresh = cursor;
    fragment.end = cursor + length;
    fragments.push_back(fragment);
    cursor += length;
  }
  return fragments;
}

std::vector<std::vector<Fragment>> MakeBlockCyclicFragments(size_t n,
                                                            size_t p,
                                                            size_t m,
                                                            size_t w) {
  std::vector<std::vector<Fragment>> per_site(p == 0 ? 1 : p);
  if (n == 0) return per_site;
  const size_t overlap = w > 0 ? w - 1 : 0;
  // Blocks must hold at least two bands, or the fresh regions would not
  // tile the input and boundary pairs would be lost.
  if (m < 2 * overlap) m = 2 * overlap;
  if (m == 0) m = 1;

  // Block k covers [k*stride, k*stride + m): each block replicates the
  // last w-1 records of its predecessor ("The CP stores the last w-1 of
  // the block sent to site 1 and reads M-(w-1) records from disk, for a
  // total of M records").
  const size_t stride = m > overlap ? m - overlap : 1;
  size_t site = 0;
  for (size_t begin = 0;; begin += stride) {
    Fragment block;
    block.begin = begin;
    // The previous block ended `overlap` positions past this one's start.
    block.fresh = begin == 0 ? 0 : begin + overlap;
    block.end = std::min(n, begin + m);
    per_site[site % per_site.size()].push_back(block);
    ++site;
    if (block.end >= n) break;
  }
  return per_site;
}

}  // namespace mergepurge

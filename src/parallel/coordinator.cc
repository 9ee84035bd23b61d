#include "parallel/coordinator.h"

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

}  // namespace mergepurge

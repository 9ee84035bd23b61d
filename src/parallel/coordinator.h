// Fragmentation of a sorted record list for parallel window scanning
// (paper §4.1, figure 5): processor i's fragment replicates the last w-1
// records of processor i-1's fragment, so the fragmentation is invisible
// to the window scan — the per-fragment scans together make exactly the
// global scan's comparisons (tested in tests/parallel_test.cc).

#ifndef MERGEPURGE_PARALLEL_COORDINATOR_H_
#define MERGEPURGE_PARALLEL_COORDINATOR_H_

#include <cstddef>
#include <vector>

namespace mergepurge {

// Half-open range [begin, end) of positions in the sorted order. `begin`
// already includes the replicated band from the previous fragment;
// `fresh` is the first position the fragment owns. Records in
// [begin, fresh) are window context only: the previous fragment has
// already compared them with each other. A clustering pass's fragment is
// one whole cluster, with no band (begin == fresh).
struct Fragment {
  size_t begin = 0;
  size_t fresh = 0;
  size_t end = 0;
};

// Splits n positions into at most p fragments of near-equal size, each
// extended backwards by w-1 replicated positions (except the first).
// Returns fewer than p fragments when n is too small to populate them.
std::vector<Fragment> MakeOverlappingFragments(size_t n, size_t p, size_t w);

}  // namespace mergepurge

#endif  // MERGEPURGE_PARALLEL_COORDINATOR_H_

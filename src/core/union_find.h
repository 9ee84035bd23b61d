// Union-find (disjoint sets) with union by size and path compression.
// This is the transitive-closure engine of the multi-pass approach: the
// closure over pairs of tuple ids is "executed on pairs of tuple id's ...
// and fast solutions to compute transitive closure exist" (paper §3.3) —
// with these two heuristics the total cost is effectively linear.
//
// Each root also carries the smallest element of its set, so the
// canonical label of an element is one read-only walk to its root
// (O(log n) under union by size) — no relabeling pass over the universe.

#ifndef MERGEPURGE_CORE_UNION_FIND_H_
#define MERGEPURGE_CORE_UNION_FIND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mergepurge {

class UnionFind {
 public:
  explicit UnionFind(size_t n);

  size_t size() const { return parent_.size(); }

  // Representative of x's set (with path compression).
  uint32_t Find(uint32_t x);

  // Merges the sets of a and b; returns true if they were distinct.
  bool Union(uint32_t a, uint32_t b);

  bool SameSet(uint32_t a, uint32_t b) { return Find(a) == Find(b); }

  // Number of elements in x's set.
  uint32_t SetSize(uint32_t x);

  // Number of disjoint sets.
  size_t NumSets() const { return num_sets_; }

  // Extends the universe to n elements (new elements are singletons).
  // No-op if n <= size(). Used by the incremental engine as batches arrive.
  void Grow(size_t n);

  // Canonical label of x: the smallest element of its set, not the
  // internal root. Roots depend on union order, and the union order
  // differs between paths (a batch run, a restored pair log, a resumed
  // checkpoint); labels depend only on the partition, so every path
  // labels identically. Read-only (no path compression): concurrent
  // readers are safe while no Union or Grow runs.
  uint32_t Label(uint32_t x) const;

  // Label(x) for every element.
  std::vector<uint32_t> ComponentLabels() const;

  // --- Work counters (plain members: UnionFind is single-threaded).
  // The closure driver flushes these to the global registry. ---

  // Union(a, b) calls that actually merged two distinct sets.
  uint64_t unions_performed() const { return unions_performed_; }
  // All Union(a, b) calls, including no-ops on already-joined sets.
  uint64_t union_calls() const { return union_calls_; }
  // Parent pointers rewritten by path compression inside Find().
  uint64_t path_compressions() const { return path_compressions_; }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
  std::vector<uint32_t> min_;  // Smallest element of the set; valid at roots.
  size_t num_sets_;
  uint64_t unions_performed_ = 0;
  uint64_t union_calls_ = 0;
  uint64_t path_compressions_ = 0;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_UNION_FIND_H_

#include "core/union_find.h"

#include <algorithm>
#include <numeric>

namespace mergepurge {

UnionFind::UnionFind(size_t n)
    : parent_(n), size_(n, 1), min_(n), num_sets_(n) {
  std::iota(parent_.begin(), parent_.end(), 0);
  std::iota(min_.begin(), min_.end(), 0);
}

uint32_t UnionFind::Find(uint32_t x) {
  uint32_t root = x;
  while (parent_[root] != root) root = parent_[root];
  // Path compression.
  while (parent_[x] != root) {
    uint32_t next = parent_[x];
    parent_[x] = root;
    ++path_compressions_;
    x = next;
  }
  return root;
}

bool UnionFind::Union(uint32_t a, uint32_t b) {
  ++union_calls_;
  uint32_t ra = Find(a);
  uint32_t rb = Find(b);
  if (ra == rb) return false;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  min_[ra] = std::min(min_[ra], min_[rb]);
  --num_sets_;
  ++unions_performed_;
  return true;
}

uint32_t UnionFind::SetSize(uint32_t x) { return size_[Find(x)]; }

void UnionFind::Grow(size_t n) {
  if (n <= parent_.size()) return;
  size_t old_size = parent_.size();
  parent_.resize(n);
  size_.resize(n, 1);
  min_.resize(n);
  for (size_t i = old_size; i < n; ++i) {
    parent_[i] = static_cast<uint32_t>(i);
    min_[i] = static_cast<uint32_t>(i);
  }
  num_sets_ += n - old_size;
}

uint32_t UnionFind::Label(uint32_t x) const {
  while (parent_[x] != x) x = parent_[x];
  return min_[x];
}

std::vector<uint32_t> UnionFind::ComponentLabels() const {
  std::vector<uint32_t> labels(parent_.size());
  for (size_t i = 0; i < parent_.size(); ++i) {
    labels[i] = Label(static_cast<uint32_t>(i));
  }
  return labels;
}

}  // namespace mergepurge

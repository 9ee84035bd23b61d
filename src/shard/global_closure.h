// GlobalClosure: incremental union-find over coordinator-assigned global
// ids, plus the per-shard label spaces that translate shard-local tuple
// ids into those global ids.
//
// Invariants (docs/sharding.md):
//   * every record admitted through the coordinator gets one global id
//     at admission, BEFORE any shard sees it — replicas of the record on
//     neighbor shards bind their shard-local tids to the SAME global id,
//     which is exactly how replicated-band matches dedup: a match
//     between a replica and a local record unions two global ids that a
//     single-engine run would also union;
//   * a shard's component labels are smallest-tuple-id per component
//     (IncrementalMergePurge's invariant), i.e. they live in the tid id
//     space — so a shard response's `entities` and `merges` both reduce
//     to tid-level unions here;
//   * unions are idempotent and order-independent, so at-least-once
//     resends after a shard crash, and whole-batch merge deltas replayed
//     by every rider of a coalesced batch, are all safe to apply.
//
// Not thread-safe: the coordinator serializes access under its closure
// mutex (annotated there).

#ifndef MERGEPURGE_SHARD_GLOBAL_CLOSURE_H_
#define MERGEPURGE_SHARD_GLOBAL_CLOSURE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "record/record.h"

namespace mergepurge {

class GlobalClosure {
 public:
  // Admits a new record; returns its global id (dense, starting at 0).
  uint32_t NewId();

  // Canonical (smallest) global id of `gid`'s entity — mirroring the
  // engines' smallest-label convention so the cross-path contract test
  // can compare partitions against a single-engine run directly.
  uint32_t Find(uint32_t gid);

  void Union(uint32_t a, uint32_t b);

  uint64_t num_ids() const { return parent_.size(); }
  uint64_t num_entities() const { return num_entities_; }

 private:
  std::vector<uint32_t> parent_;
  uint64_t num_entities_ = 0;
};

// One shard's tid -> global-id translation: a lazy union-find over the
// shard's tuple ids (parent map, path halving) with a global-id binding
// per component root. Merge events and label memberships arrive as tid
// unions; record admissions arrive as Bind(tid, gid). When two bound
// components meet — or a component acquires a second binding — the
// bindings' global ids are unioned in the shared GlobalClosure.
class ShardLabelSpace {
 public:
  // `closure` must outlive the label space; not owned.
  explicit ShardLabelSpace(GlobalClosure* closure) : closure_(closure) {}

  // Unions the components of two shard-local tids.
  void UnionTids(TupleId a, TupleId b);

  // Binds `tid`'s component to global id `gid`.
  void Bind(TupleId tid, uint32_t gid);

  // Canonical global id of `tid`'s component; nullopt when the tid was
  // never bound (a tid this coordinator never admitted — e.g. state
  // left over from a previous coordinator run against a durable shard).
  std::optional<uint32_t> Lookup(TupleId tid);

  uint64_t tracked_tids() const { return parent_.size(); }

 private:
  TupleId FindTid(TupleId tid);

  GlobalClosure* closure_;
  std::unordered_map<TupleId, TupleId> parent_;
  // Keyed by component ROOT tid only.
  std::unordered_map<TupleId, uint32_t> binding_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_SHARD_GLOBAL_CLOSURE_H_

// CoordService: the shard coordinator's RequestDispatcher. Fronts N
// mergepurge_serve shard engines over their own NDJSON protocol and
// speaks the identical protocol upward, so loadgen / mergepurge_top /
// scripts work unchanged against `tools/mergepurge_coord`.
//
// Data path (docs/sharding.md):
//   * upsert — records are routed by ShardRouter (dedup'd union of
//     per-key owners), replicated to neighbor shards when in a w-1
//     boundary band (shard/boundary.h), assigned a global id at
//     admission, fanned out to the owning shards in parallel, and the
//     shard responses' tids/entities/merges folded into the
//     GlobalClosure under the closure mutex. The response's "entities"
//     are canonical GLOBAL ids.
//   * match — fanned to the probe's owner shards only (band records are
//     replicated INTO owners, so a probe never needs to visit a
//     neighbor); matched component labels translate to global ids via
//     the per-shard label spaces. "matches"/"entities" both carry the
//     dedup'd canonical global ids (shard-local tuple ids would be
//     meaningless upward).
//   * stats/health — fanned to every shard; the merged response keeps
//     the coordinator's own closure figures at top level and nests each
//     shard's full response under "shards".
//
// Delivery is at-least-once: CallWithRetry resends on transport errors
// and "recovering" refusals (a shard restarting after a crash), and a
// resent upsert at worst re-admits records that merge with their first
// copy — the closure unions are idempotent, so the global partition is
// unaffected (the invariants are spelled out in shard/global_closure.h).
//
// Locking (docs/concurrency.md): three independent leaf mutexes, never
// held together — routing_mu_ (router bootstrap + boundary bands, whose
// in-band test depends on admission order), closure_mu_ (global closure
// + label spaces), pool_mu_ (shard connection pools). They share
// lockrank::kCoordLeaf, so the runtime validator aborts if any two
// nest. Shard RPCs run with no coordinator lock held.

#ifndef MERGEPURGE_SHARD_COORDINATOR_H_
#define MERGEPURGE_SHARD_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"
#include "record/record.h"
#include "record/schema.h"
#include "service/client.h"
#include "service/dispatcher.h"
#include "shard/boundary.h"
#include "shard/global_closure.h"
#include "shard/router.h"
#include "util/random.h"
#include "util/sync.h"

namespace mergepurge {

struct ShardAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct CoordinatorOptions {
  // One entry per shard engine; shard index == position.
  std::vector<ShardAddress> shards;
  // Record schema for (de)serializing records on shard requests.
  Schema schema;
  // Key specs — must match the shards' --keys configuration, because
  // routing contiguity per key is what makes the boundary band
  // sufficient (shard/router.h).
  std::vector<KeySpec> keys;
  // The shards' window size w; the boundary band replicates w-1 records
  // per cut side.
  size_t window = 10;
  // Canonical --keys spec (protocol.h CanonicalKeysSpec) sent in the
  // VerifyShards hello so each shard can refuse a mismatched topology.
  // Empty skips the keys check (window is always sent).
  std::string keys_spec;
  // Leading key characters the routing histogram considers.
  size_t histogram_depth = 3;
  // Per-shard-call retry schedule (service/client.h).
  RetryOptions retry;
  // Seeds the routing subsample and retry jitter streams.
  uint64_t seed = 0x5eedc0de;
};

class CoordService : public RequestDispatcher {
 public:
  explicit CoordService(CoordinatorOptions options);
  ~CoordService() override;

  CoordService(const CoordService&) = delete;
  CoordService& operator=(const CoordService&) = delete;

  // Builds the router from an explicit sample (--router-sample). When
  // never called, the router is built lazily from the FIRST upsert's
  // records — later records route through cluster boundaries fit on
  // that first batch, exactly like the paper fits its equi-depth
  // partition on a sample of the input.
  Status SeedRouter(const std::vector<Record>& sample);

  // The startup config handshake: sends a hello carrying this
  // coordinator's topology (options_.keys_spec / options_.window) to
  // every shard. A shard that disagrees answers config_mismatch and
  // this returns an error naming the shard — refuse to serve in that
  // case, because a mismatched shard silently mis-routes records.
  // Shards still replaying their WAL answer hello immediately, so the
  // handshake does not wait out recovery.
  Status VerifyShards();

  size_t num_shards() const { return options_.shards.size(); }

  // The coordinator itself has no recovery phase; per-shard recovery
  // surfaces as retryable "recovering" refusals handled inside the
  // shard calls.
  MatchService::Lifecycle lifecycle() const override {
    return MatchService::Lifecycle::kServing;
  }

  std::string HandleMatch(const JsonValue* id,
                          std::vector<Record> records) override;
  std::string HandleUpsert(const JsonValue* id,
                           std::vector<Record> records) override;
  std::string HandleStats(const JsonValue* id,
                          const JsonValue& extra) override;
  void FillHealth(JsonValue* health) override;
  void Drain() override;

  struct ClosureStats {
    uint64_t records = 0;   // Global ids admitted.
    uint64_t entities = 0;  // Distinct global entities.
  };
  ClosureStats GetClosureStats() const;

  // Canonical global label of every admitted record, in admission order
  // — the global analogue of MatchService::ComponentLabels(), used by
  // the cross-path contract test to compare a sharded run's partition
  // against a single engine's.
  std::vector<uint32_t> GlobalLabels();

 private:
  // One in-flight RPC of a fan-out. `response` starts errored and is
  // overwritten by the call.
  struct ShardCall {
    size_t shard = 0;
    std::string line;
    Result<JsonValue> response = Status::Internal("not called");
  };

  // A pooled connection with its own jitter stream (ServiceClient is
  // not thread-safe; a leased client is thread-private until returned).
  struct PooledClient {
    ServiceClient client;
    Rng rng;
    explicit PooledClient(uint64_t seed) : rng(seed) {}
  };

  Status EnsureRouter(const std::vector<Record>& sample)
      MERGEPURGE_EXCLUDES(routing_mu_);
  Status BuildRouterLocked(const std::vector<Record>& sample)
      MERGEPURGE_REQUIRES(routing_mu_);

  // Runs every call (parallel when more than one), leasing one pooled
  // connection per call and retrying per options_.retry.
  void FanOut(std::vector<ShardCall>* calls);
  void RunCall(ShardCall* call);

  std::unique_ptr<PooledClient> LeaseClient(size_t shard)
      MERGEPURGE_EXCLUDES(pool_mu_);
  void ReturnClient(size_t shard, std::unique_ptr<PooledClient> client)
      MERGEPURGE_EXCLUDES(pool_mu_);

  CoordinatorOptions options_;

  mutable Mutex routing_mu_{lockrank::kCoordLeaf};
  // Immutable once built; the shared_ptr lets requests route outside
  // the mutex after a brief load. Null until the first sample arrives.
  std::shared_ptr<const ShardRouter> router_
      MERGEPURGE_GUARDED_BY(routing_mu_);
  // One band per key spec (each key has its own cut points). Band
  // admission depends on arrival order, so updates stay under the lock.
  std::vector<BoundaryBand> bands_ MERGEPURGE_GUARDED_BY(routing_mu_);
  Rng routing_rng_ MERGEPURGE_GUARDED_BY(routing_mu_);

  mutable Mutex closure_mu_{lockrank::kCoordLeaf};
  GlobalClosure closure_ MERGEPURGE_GUARDED_BY(closure_mu_);
  // One label space per shard, indexed by shard id.
  std::vector<std::unique_ptr<ShardLabelSpace>> spaces_
      MERGEPURGE_GUARDED_BY(closure_mu_);

  mutable Mutex pool_mu_{lockrank::kCoordLeaf};
  // pools_[shard] is a free-list of idle connections to that shard.
  std::vector<std::vector<std::unique_ptr<PooledClient>>> pools_
      MERGEPURGE_GUARDED_BY(pool_mu_);
  uint64_t clients_created_ MERGEPURGE_GUARDED_BY(pool_mu_) = 0;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_SHARD_COORDINATOR_H_

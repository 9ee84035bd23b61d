// Shard subsystem: router determinism over histogram edge cases,
// boundary-band membership (the paper's §4 fragmentation rule applied
// online), the global-closure label algebra, and the coordinator's
// topology handshake. That a coordinator over 2-4 shards reproduces one
// engine's partition is the cross-path contract (contract_test).

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "keys/standard_keys.h"
#include "obs/json.h"
#include "rules/employee_theory.h"
#include "service/client.h"
#include "service/match_service.h"
#include "service/protocol.h"
#include "service/server.h"
#include "shard/boundary.h"
#include "shard/coordinator.h"
#include "shard/global_closure.h"
#include "shard/router.h"

namespace mergepurge {
namespace {

Record LastNameRecord(std::string_view last) {
  Record r;
  r.set_field(employee::kLastName, std::string(last));
  return r;
}

std::vector<Record> LastNameRecords(
    const std::vector<std::string>& names) {
  std::vector<Record> records;
  records.reserve(names.size());
  for (const std::string& name : names) {
    records.push_back(LastNameRecord(name));
  }
  return records;
}

// --- ShardRouter. ---

TEST(ShardRouterTest, BuildIsDeterministicAndMonotone) {
  const std::vector<std::string> names = {
      "ADAMS", "BAKER", "COOPER", "DAVIS",  "EVANS",  "FISHER",
      "GREEN", "HARRIS", "IRWIN", "JONES",  "KELLER", "LOPEZ",
      "MOORE", "NORRIS", "OWENS", "PARKER", "QUINN",  "REED",
      "SMITH", "TAYLOR", "UNDERWOOD", "VANCE", "WALKER", "YOUNG"};
  const std::vector<Record> sample = LastNameRecords(names);
  ShardRouterOptions options;
  options.num_shards = 4;
  Rng rng_a(7), rng_b(7);
  Result<ShardRouter> a =
      ShardRouter::Build({LastNameKey()}, sample, options, &rng_a);
  Result<ShardRouter> b =
      ShardRouter::Build({LastNameKey()}, sample, options, &rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  size_t previous = 0;
  std::set<size_t> owners_seen;
  for (const std::string& name : names) {  // Already sorted.
    const size_t owner = a->OwnerOfKey(0, name);
    EXPECT_EQ(owner, b->OwnerOfKey(0, name)) << name;
    EXPECT_LT(owner, 4u);
    // Monotone: sorted keys route to non-decreasing shards, so each
    // shard owns a contiguous key range.
    EXPECT_GE(owner, previous) << name;
    previous = owner;
    owners_seen.insert(owner);
  }
  // An equi-depth split of 24 evenly spread names uses all 4 shards.
  EXPECT_EQ(owners_seen.size(), 4u);
}

TEST(ShardRouterTest, SingleClusterWhenAllKeysCollide) {
  // Every sampled key identical: the histogram has one occupied bin and
  // the equi-depth split degenerates to a single cluster. The router
  // must stay valid (everything routes to one shard) rather than fail.
  const std::vector<Record> sample =
      LastNameRecords({"SMITH", "SMITH", "SMITH", "SMITH"});
  ShardRouterOptions options;
  options.num_shards = 4;
  Rng rng(7);
  Result<ShardRouter> router =
      ShardRouter::Build({LastNameKey()}, sample, options, &rng);
  ASSERT_TRUE(router.ok());
  const size_t owner = router->OwnerOfKey(0, "SMITH");
  EXPECT_LT(owner, 4u);
  // Unseen keys on either side still map to valid shards.
  EXPECT_LT(router->OwnerOfKey(0, "AARON"), 4u);
  EXPECT_LT(router->OwnerOfKey(0, "ZEBRA"), 4u);
  EXPECT_LE(router->OwnerOfKey(0, "AARON"), owner);
  EXPECT_GE(router->OwnerOfKey(0, "ZEBRA"), owner);
}

TEST(ShardRouterTest, HandlesUnicodeKeyPrefixes) {
  // Multi-byte UTF-8 prefixes land in the histogram's "other" symbol
  // (cluster/histogram.h maps non-[0-9A-Za-z] bytes to symbol 0), so
  // the router must (a) build without error, (b) route them to valid
  // shards deterministically, and (c) keep them at-or-below every
  // ASCII-letter key's shard — symbol 0 precedes digits and letters in
  // bin order, whatever the raw UTF-8 bytes compare as.
  const std::vector<std::string> leading = {"ÅBERG", "ÉLODIE", "ŌTA",
                                            "ŻUK"};
  std::vector<std::string> unicode = leading;
  unicode.insert(unicode.end(), {"MÜLLER", "NÚÑEZ"});
  std::vector<std::string> names = unicode;
  names.insert(names.end(), {"ADAMS", "JONES", "ZHOU"});
  const std::vector<Record> sample = LastNameRecords(names);
  ShardRouterOptions options;
  options.num_shards = 3;
  Rng rng_a(11), rng_b(11);
  Result<ShardRouter> a =
      ShardRouter::Build({LastNameKey()}, sample, options, &rng_a);
  Result<ShardRouter> b =
      ShardRouter::Build({LastNameKey()}, sample, options, &rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  const size_t ascii_floor = a->OwnerOfKey(0, "ADAMS");
  for (const std::string& name : unicode) {
    const size_t owner = a->OwnerOfKey(0, name);
    EXPECT_LT(owner, 3u) << name;
    EXPECT_EQ(owner, b->OwnerOfKey(0, name)) << name;
  }
  // The floor applies to names whose LEADING byte is non-ASCII; names
  // like MÜLLER bin by their ASCII first letter as usual.
  for (const std::string& name : leading) {
    EXPECT_LE(a->OwnerOfKey(0, name), ascii_floor) << name;
  }
  // Records carrying these names route identically to their raw keys.
  for (const Record& record : sample) {
    EXPECT_EQ(a->OwnerOf(0, record),
              a->OwnerOfKey(0, a->KeyOf(0, record)));
  }
}

TEST(ShardRouterTest, EmptySampleOrKeysIsRejected) {
  Rng rng(1);
  ShardRouterOptions options;
  EXPECT_FALSE(
      ShardRouter::Build({}, LastNameRecords({"A"}), options, &rng).ok());
  EXPECT_FALSE(
      ShardRouter::Build({LastNameKey()}, {}, options, &rng).ok());
  options.num_shards = 0;
  EXPECT_FALSE(ShardRouter::Build({LastNameKey()},
                                  LastNameRecords({"A"}), options, &rng)
                   .ok());
}

TEST(ShardRouterTest, DestinationsAreDedupedUnionOfPerKeyOwners) {
  const std::vector<std::string> names = {"ADAMS", "BAKER", "SMITH",
                                          "TAYLOR"};
  const std::vector<Record> sample = LastNameRecords(names);
  ShardRouterOptions options;
  options.num_shards = 2;
  Rng rng(3);
  // Two identical key specs: per-key owners coincide, so destinations
  // must collapse to one entry per shard.
  Result<ShardRouter> router = ShardRouter::Build(
      {LastNameKey(), LastNameKey()}, sample, options, &rng);
  ASSERT_TRUE(router.ok());
  for (const Record& record : sample) {
    const std::vector<size_t> destinations =
        router->DestinationsOf(record);
    ASSERT_EQ(destinations.size(), 1u);
    EXPECT_EQ(destinations[0], router->OwnerOf(0, record));
  }
}

// --- BoundaryBand. ---

TEST(BoundaryBandTest, ReplicatesTheExtremeBandToNeighbors) {
  // 2 shards, window 3 -> band width 2 per cut side.
  BoundaryBand band(2, 2);
  std::vector<size_t> out;

  // Shard 0's upper band (toward shard 1): the first two keys are
  // trivially among the two largest seen.
  band.Replicas(0, "MOORE", &out);
  EXPECT_EQ(out, std::vector<size_t>({1}));
  out.clear();
  band.Replicas(0, "NOLAN", &out);
  EXPECT_EQ(out, std::vector<size_t>({1}));
  out.clear();
  // "ADAMS" is below both tracked keys: not in the upper band.
  band.Replicas(0, "ADAMS", &out);
  EXPECT_TRUE(out.empty());
  // "ZEBRA" beats the tracked minimum: in-band, evicting "MOORE".
  band.Replicas(0, "ZEBRA", &out);
  EXPECT_EQ(out, std::vector<size_t>({1}));
  out.clear();
  // "MOORE" again: the band is now {NOLAN, ZEBRA}, so MOORE is out.
  band.Replicas(0, "MOORE", &out);
  EXPECT_TRUE(out.empty());

  // Shard 1's lower band mirrors toward shard 0.
  band.Replicas(1, "QUINN", &out);
  EXPECT_EQ(out, std::vector<size_t>({0}));
  out.clear();
  band.Replicas(1, "PRICE", &out);
  EXPECT_EQ(out, std::vector<size_t>({0}));
  out.clear();
  band.Replicas(1, "ZWEIG", &out);  // Above both tracked: out of band.
  EXPECT_TRUE(out.empty());
}

TEST(BoundaryBandTest, EdgeShardsHaveOneSidedBands) {
  BoundaryBand band(3, 2);
  std::vector<size_t> out;
  // Shard 0 has no lower neighbor; shard 2 no upper.
  band.Replicas(0, "AAA", &out);
  EXPECT_EQ(out, std::vector<size_t>({1}));
  out.clear();
  band.Replicas(2, "ZZZ", &out);
  EXPECT_EQ(out, std::vector<size_t>({1}));
  out.clear();
  // A middle shard can be in both of its cut bands at once.
  band.Replicas(1, "MMM", &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, std::vector<size_t>({0, 2}));
}

TEST(BoundaryBandTest, ZeroWidthDisablesReplication) {
  BoundaryBand band(2, 0);
  std::vector<size_t> out;
  band.Replicas(0, "ANY", &out);
  band.Replicas(1, "KEY", &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(band.tracked(), 0u);
}

TEST(BoundaryBandTest, FinalExtremesWereAlwaysReplicated) {
  // The conservative online rule's correctness obligation: every key
  // that ENDS among the band_width most extreme must have been
  // replicated at its own arrival, whatever the arrival order.
  const size_t kWidth = 3;
  std::vector<std::string> keys = {"ECHO", "ALFA", "GOLF", "CHARLIE",
                                   "FOXTROT", "BRAVO", "HOTEL", "DELTA",
                                   "INDIA", "JULIET"};
  // Try several arrival orders (deterministic rotations + reverse).
  for (size_t rotation = 0; rotation < keys.size(); ++rotation) {
    std::vector<std::string> order = keys;
    std::rotate(order.begin(), order.begin() + rotation, order.end());
    if (rotation % 2 == 1) std::reverse(order.begin(), order.end());

    BoundaryBand band(2, kWidth);
    std::set<std::string> replicated;
    std::vector<size_t> out;
    for (const std::string& key : order) {
      out.clear();
      band.Replicas(0, key, &out);
      if (!out.empty()) replicated.insert(key);
    }
    std::vector<std::string> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = sorted.size() - kWidth; i < sorted.size(); ++i) {
      EXPECT_TRUE(replicated.count(sorted[i]))
          << sorted[i] << " (rotation " << rotation << ")";
    }
  }
}

// --- GlobalClosure / ShardLabelSpace. ---

TEST(GlobalClosureTest, SmallestIdIsCanonicalAndUnionsAreIdempotent) {
  GlobalClosure closure;
  for (int i = 0; i < 5; ++i) closure.NewId();
  EXPECT_EQ(closure.num_ids(), 5u);
  EXPECT_EQ(closure.num_entities(), 5u);

  closure.Union(3, 1);
  closure.Union(4, 3);
  EXPECT_EQ(closure.Find(4), 1u);
  EXPECT_EQ(closure.num_entities(), 3u);
  closure.Union(1, 4);  // Replay: no further change.
  EXPECT_EQ(closure.num_entities(), 3u);
  EXPECT_EQ(closure.Find(0), 0u);
  EXPECT_EQ(closure.Find(2), 2u);
}

TEST(ShardLabelSpaceTest, BindingsReconcileThroughTidUnions) {
  GlobalClosure closure;
  ShardLabelSpace space(&closure);
  const uint32_t g0 = closure.NewId();
  const uint32_t g1 = closure.NewId();
  const uint32_t g2 = closure.NewId();

  space.Bind(10, g0);
  space.Bind(20, g1);
  space.Bind(30, g2);
  EXPECT_EQ(closure.num_entities(), 3u);

  // A shard-side merge of tids 10 and 20 must union their global ids.
  space.UnionTids(20, 10);
  EXPECT_EQ(closure.num_entities(), 2u);
  EXPECT_EQ(space.Lookup(10), space.Lookup(20));
  EXPECT_EQ(*space.Lookup(20), std::min(g0, g1));

  // Binding a second gid onto an already-bound component unions too
  // (a boundary replica landing on the component's tid).
  space.Bind(10, g2);
  EXPECT_EQ(closure.num_entities(), 1u);
  EXPECT_EQ(*space.Lookup(30), *space.Lookup(10));

  // Unbound tids have no global identity.
  EXPECT_FALSE(space.Lookup(999).has_value());

  // Replays are harmless.
  space.UnionTids(10, 20);
  space.Bind(30, g2);
  EXPECT_EQ(closure.num_entities(), 1u);
}

TEST(ShardLabelSpaceTest, UnionMovesBindingToSmallerUnboundRoot) {
  // A bound tid joins a smaller tid that was never bound: the smaller tid
  // becomes the component root and must take over the binding.
  GlobalClosure closure;
  ShardLabelSpace space(&closure);
  const uint32_t g = closure.NewId();
  space.Bind(20, g);
  space.UnionTids(20, 5);
  EXPECT_EQ(space.Lookup(5), std::optional<uint32_t>(g));
  EXPECT_EQ(space.Lookup(20), std::optional<uint32_t>(g));
  EXPECT_EQ(closure.num_entities(), 1u);
}

// --- Config handshake: a coordinator must refuse a mismatched fleet. ---

MatchServiceOptions SingleKeyEngine() {
  MatchServiceOptions options;
  options.engine.keys = {LastNameKey()};
  options.engine.window = 8;
  return options;
}

TEST(CoordinatorTest, HelloHandshakeVerifiesTopology) {
  MatchService shard(SingleKeyEngine(), EmployeeTheory::Factory());
  ServerOptions server_options;
  server_options.port = 0;
  server_options.topology_keys = CanonicalKeysSpec("last-name");
  server_options.topology_window = 8;
  Server server(server_options, &shard);
  Result<uint16_t> port = server.Start();
  ASSERT_TRUE(port.ok());

  CoordinatorOptions good;
  good.shards = {{"127.0.0.1", *port}};
  good.schema = employee::MakeSchema();
  good.keys = {LastNameKey()};
  good.keys_spec = CanonicalKeysSpec("Last-Name");  // Canonicalization.
  good.window = 8;
  {
    CoordService coord(std::move(good));
    EXPECT_TRUE(coord.VerifyShards().ok());
  }

  // Wrong window: the shard answers config_mismatch and the handshake
  // surfaces it as an error naming the shard.
  CoordinatorOptions bad_window;
  bad_window.shards = {{"127.0.0.1", *port}};
  bad_window.schema = employee::MakeSchema();
  bad_window.keys = {LastNameKey()};
  bad_window.keys_spec = CanonicalKeysSpec("last-name");
  bad_window.window = 9;
  bad_window.retry.max_attempts = 1;  // Mismatch is not retryable.
  {
    CoordService coord(std::move(bad_window));
    Status verified = coord.VerifyShards();
    ASSERT_FALSE(verified.ok());
    EXPECT_NE(verified.message().find("topology mismatch"),
              std::string::npos)
        << verified.ToString();
  }

  // Wrong keys likewise.
  CoordinatorOptions bad_keys;
  bad_keys.shards = {{"127.0.0.1", *port}};
  bad_keys.schema = employee::MakeSchema();
  bad_keys.keys = {FirstNameKey()};
  bad_keys.keys_spec = CanonicalKeysSpec("first-name");
  bad_keys.window = 8;
  bad_keys.retry.max_attempts = 1;
  {
    CoordService coord(std::move(bad_keys));
    EXPECT_FALSE(coord.VerifyShards().ok());
  }

  server.RequestDrain();
  server.Join();
}

// The hello op itself: answers the configured topology, rejects a
// mismatched probe with config_mismatch, and (unlike match/upsert)
// does not require the serving lifecycle.
TEST(CoordinatorTest, HelloOpReportsAndChecksTopology) {
  MatchService shard(SingleKeyEngine(), EmployeeTheory::Factory());
  ServerOptions server_options;
  server_options.port = 0;
  server_options.topology_keys = "last-name";
  server_options.topology_window = 8;
  Server server(server_options, &shard);
  Result<uint16_t> port = server.Start();
  ASSERT_TRUE(port.ok());

  ServiceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", *port).ok());

  Result<JsonValue> bare = client.Call("{\"op\":\"hello\"}\n");
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->Find("ok")->bool_value());
  EXPECT_EQ(bare->Find("keys")->string_value(), "last-name");
  EXPECT_EQ(bare->Find("window")->int_value(), 8);

  Result<JsonValue> mismatch =
      client.Call("{\"op\":\"hello\",\"keys\":\"last-name\",\"window\":4}\n");
  ASSERT_TRUE(mismatch.ok());
  EXPECT_FALSE(mismatch->Find("ok")->bool_value());
  EXPECT_EQ(mismatch->Find("error")->Find("code")->string_value(),
            "config_mismatch");

  client.Close();
  server.RequestDrain();
  server.Join();
}

}  // namespace
}  // namespace mergepurge

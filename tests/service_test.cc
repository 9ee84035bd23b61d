// Online service subsystem: wire protocol (parse / serialize / framing),
// the read-only MatchOnly probe, commit labels and merge deltas, the
// MatchService API, and the socket server's hardening against malformed
// and hostile clients. That a concurrent mix equals a serial replay of
// the committed batches is the cross-path contract (contract_test).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/employee_theory.h"
#include "service/batcher.h"
#include "service/match_service.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/random.h"
#include "util/sync.h"

#include "test_support.h"

namespace mergepurge {
namespace {

Schema TestSchema() { return employee::MakeSchema(); }

MatchServiceOptions ServiceOptions() {
  MatchServiceOptions options;
  options.engine = EngineOptions();
  return options;
}

// --- Protocol: request parsing. ---

TEST(ProtocolTest, ParsesMatchRequest) {
  ServiceRequest request;
  ServiceError error;
  ASSERT_TRUE(ParseRequest(
      R"({"op":"match","id":7,"record":{"first_name":"JOHN","last_name":"DOE"}})",
      TestSchema(), &request, &error));
  EXPECT_EQ(request.op, ServiceRequest::Op::kMatch);
  ASSERT_EQ(request.records.size(), 1u);
  EXPECT_EQ(request.records[0].field(employee::kFirstName), "JOHN");
  ASSERT_TRUE(request.id.has_value());
  EXPECT_EQ(request.id->int_value(), 7);
}

TEST(ProtocolTest, ParsesUpsertRequest) {
  ServiceRequest request;
  ServiceError error;
  ASSERT_TRUE(ParseRequest(
      R"({"op":"upsert","records":[{"last_name":"DOE"},{"last_name":"ROE"}]})",
      TestSchema(), &request, &error));
  EXPECT_EQ(request.op, ServiceRequest::Op::kUpsert);
  ASSERT_EQ(request.records.size(), 2u);
  EXPECT_EQ(request.records[1].field(employee::kLastName), "ROE");
  EXPECT_FALSE(request.id.has_value());
}

TEST(ProtocolTest, ParsesPingAndStats) {
  ServiceRequest request;
  ServiceError error;
  EXPECT_TRUE(
      ParseRequest(R"({"op":"ping"})", TestSchema(), &request, &error));
  EXPECT_EQ(request.op, ServiceRequest::Op::kPing);
  EXPECT_TRUE(
      ParseRequest(R"({"op":"stats"})", TestSchema(), &request, &error));
  EXPECT_EQ(request.op, ServiceRequest::Op::kStats);
}

TEST(ProtocolTest, ParsesHealthAndTrace) {
  ServiceRequest request;
  ServiceError error;
  EXPECT_TRUE(
      ParseRequest(R"({"op":"health"})", TestSchema(), &request, &error));
  EXPECT_EQ(request.op, ServiceRequest::Op::kHealth);

  ASSERT_TRUE(ParseRequest(R"({"op":"trace","enabled":true,"sample":8})",
                           TestSchema(), &request, &error));
  EXPECT_EQ(request.op, ServiceRequest::Op::kTrace);
  EXPECT_TRUE(request.trace_enabled);
  ASSERT_TRUE(request.trace_sample.has_value());
  EXPECT_EQ(*request.trace_sample, 8u);

  // `sample` is optional; absent keeps the server's current interval.
  ASSERT_TRUE(ParseRequest(R"({"op":"trace","enabled":false})",
                           TestSchema(), &request, &error));
  EXPECT_FALSE(request.trace_enabled);
  EXPECT_FALSE(request.trace_sample.has_value());
}

struct BadRequestCase {
  const char* line;
  ServiceErrorCode code;
};

TEST(ProtocolTest, RejectsMalformedRequestsWithTypedErrors) {
  const BadRequestCase cases[] = {
      {"not json at all", ServiceErrorCode::kBadJson},
      {"{\"op\":\"match\"", ServiceErrorCode::kBadJson},
      {"[1,2,3]", ServiceErrorCode::kBadJson},
      {"{}", ServiceErrorCode::kBadRequest},
      {R"({"op":42})", ServiceErrorCode::kBadRequest},
      {R"({"op":"match"})", ServiceErrorCode::kBadRequest},
      {R"({"op":"match","records":[{}]})", ServiceErrorCode::kBadRequest},
      {R"({"op":"upsert","records":[]})", ServiceErrorCode::kBadRequest},
      {R"({"op":"upsert","record":{}})", ServiceErrorCode::kBadRequest},
      {R"({"op":"ping","records":[]})", ServiceErrorCode::kBadRequest},
      {R"({"op":"match","record":{},"surprise":1})",
       ServiceErrorCode::kBadRequest},
      {R"({"op":"merge","record":{}})", ServiceErrorCode::kUnknownOp},
      {R"({"op":"health","records":[]})", ServiceErrorCode::kBadRequest},
      {R"({"op":"trace"})", ServiceErrorCode::kBadRequest},
      {R"({"op":"trace","enabled":"yes"})", ServiceErrorCode::kBadRequest},
      {R"({"op":"trace","enabled":true,"sample":0})",
       ServiceErrorCode::kBadRequest},
      {R"({"op":"stats","enabled":true})", ServiceErrorCode::kBadRequest},
      {R"({"op":"match","record":{"no_such_field":"X"}})",
       ServiceErrorCode::kBadRecord},
      {R"({"op":"match","record":{"last_name":42}})",
       ServiceErrorCode::kBadRecord},
  };
  for (const BadRequestCase& c : cases) {
    ServiceRequest request;
    ServiceError error;
    EXPECT_FALSE(ParseRequest(c.line, TestSchema(), &request, &error))
        << c.line;
    EXPECT_EQ(ServiceErrorCodeName(error.code),
              std::string(ServiceErrorCodeName(c.code)))
        << c.line << " -> " << error.message;
  }
}

TEST(ProtocolTest, RecordJsonRoundTrip) {
  Schema schema = TestSchema();
  Record original = MakeRecord("123456789", "JOHN", "DOE", "12 OAK ST");
  JsonValue encoded = RecordToJson(schema, original);
  Record decoded;
  ServiceError error;
  ASSERT_TRUE(RecordFromJson(schema, encoded, "record", &decoded, &error))
      << error.message;
  for (FieldId f = 0; f < schema.num_fields(); ++f) {
    EXPECT_EQ(original.field(f), decoded.field(f)) << "field " << f;
  }
}

TEST(ProtocolTest, ResponseLinesAreSingleLineJsonWithOkFlag) {
  const std::string lines[] = {
      MatchResponseLine(nullptr, 3u, {1, 2}, {3}),
      UpsertResponseLine(nullptr, {0, 1}, 5),
      PingResponseLine(nullptr),
      StatsResponseLine(nullptr, 10, 7, 3),
  };
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1);
    Result<JsonValue> parsed = ParseResponseLine(line);
    ASSERT_TRUE(parsed.ok());
    const JsonValue* ok = parsed->Find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_TRUE(ok->bool_value());
  }
  Result<JsonValue> error_line = ParseResponseLine(ErrorResponseLine(
      nullptr, {ServiceErrorCode::kUnknownOp, "nope"}));
  ASSERT_TRUE(error_line.ok());
  EXPECT_FALSE(error_line->Find("ok")->bool_value());
  EXPECT_EQ(error_line->Find("error")->Find("code")->string_value(),
            "unknown_op");
}

TEST(ProtocolTest, ResponsesEchoRequestId) {
  JsonValue id("req-9");
  Result<JsonValue> parsed =
      ParseResponseLine(PingResponseLine(&id));
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->Find("id"), nullptr);
  EXPECT_EQ(parsed->Find("id")->string_value(), "req-9");
}

// --- Framing. ---

TEST(LineFrameReaderTest, ReassemblesLinesAcrossArbitraryChunks) {
  LineFrameReader reader(1024);
  const std::string stream = "first line\r\nsecond\nthird one\n";
  // Feed one byte at a time: the harshest possible fragmentation.
  std::vector<std::string> lines;
  std::string line;
  for (char c : stream) {
    ASSERT_TRUE(reader.Append(std::string_view(&c, 1)));
    while (reader.NextLine(&line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "first line");  // '\r' stripped.
  EXPECT_EQ(lines[1], "second");
  EXPECT_EQ(lines[2], "third one");
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(LineFrameReaderTest, MultipleLinesInOneAppend) {
  LineFrameReader reader(1024);
  ASSERT_TRUE(reader.Append("a\nb\nc"));
  std::string line;
  ASSERT_TRUE(reader.NextLine(&line));
  EXPECT_EQ(line, "a");
  ASSERT_TRUE(reader.NextLine(&line));
  EXPECT_EQ(line, "b");
  EXPECT_FALSE(reader.NextLine(&line));
  EXPECT_EQ(reader.buffered_bytes(), 1u);  // "c" awaits its newline.
}

TEST(LineFrameReaderTest, OverflowIsPermanent) {
  LineFrameReader reader(16);
  EXPECT_TRUE(reader.Append("0123456789"));
  EXPECT_FALSE(reader.Append("0123456789"));  // 20 bytes, no newline.
  EXPECT_TRUE(reader.overflowed());
  // Even a newline cannot rescue the reader: framing was lost.
  EXPECT_FALSE(reader.Append("\n"));
  std::string line;
  EXPECT_FALSE(reader.NextLine(&line));
}

TEST(LineFrameReaderTest, OversizedCompleteLineOverflows) {
  LineFrameReader reader(8);
  // The oversized line arrives in one append WITH its newline, so Append
  // cannot reject it early — NextLine must trip the limit instead of
  // surfacing the line.
  EXPECT_TRUE(reader.Append("0123456789ABCDEF\n"));
  std::string line;
  EXPECT_FALSE(reader.NextLine(&line));
  EXPECT_TRUE(reader.overflowed());
}

TEST(LineFrameReaderTest, ShortLinesUnderLimitStillFlow) {
  LineFrameReader reader(8);
  ASSERT_TRUE(reader.Append("abc\ndef\n"));
  std::string line;
  ASSERT_TRUE(reader.NextLine(&line));
  EXPECT_EQ(line, "abc");
  ASSERT_TRUE(reader.NextLine(&line));
  EXPECT_EQ(line, "def");
  EXPECT_FALSE(reader.overflowed());
}

// --- MatchOnly probe + label cache. ---

TEST(MatchOnlyTest, EmptyEngineReturnsNoMatches) {
  IncrementalMergePurge engine(EngineOptions());
  EmployeeTheory theory;
  Result<ProbeResult> probe =
      engine.MatchOnly(MakeRecord("1", "A", "B", "C"), theory);
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->matches.empty());
}

TEST(MatchOnlyTest, ProbeFindsDuplicateWithoutAdmittingIt) {
  IncrementalMergePurge engine(EngineOptions());
  EmployeeTheory theory;
  Dataset batch(TestSchema());
  batch.Append(MakeRecord("123456789", "JOHN", "SMITH", "12 OAK STREET"));
  batch.Append(MakeRecord("987654321", "ALICE", "JONES", "9 ELM AVENUE"));
  ASSERT_TRUE(engine.AddBatch(batch, theory).ok());
  const size_t size_before = engine.size();
  const uint64_t pairs_before = engine.pairs().size();

  // An exact copy of an admitted record must match it.
  Result<ProbeResult> probe = engine.MatchOnly(
      MakeRecord("123456789", "JOHN", "SMITH", "12 OAK STREET"), theory);
  ASSERT_TRUE(probe.ok());
  ASSERT_FALSE(probe->matches.empty());
  EXPECT_EQ(probe->matches[0], 0u);

  // Probing is read-only: no record admitted, no pair recorded.
  EXPECT_EQ(engine.size(), size_before);
  EXPECT_EQ(engine.pairs().size(), pairs_before);

  // A record resembling nothing matches nothing.
  Result<ProbeResult> miss = engine.MatchOnly(
      MakeRecord("555001111", "XAVIER", "QUIXOTE", "77 NOWHERE LANE"),
      theory);
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->matches.empty());
}

TEST(MatchOnlyTest, ProbeConditionsRawRecords) {
  IncrementalMergePurge engine(EngineOptions());
  EmployeeTheory theory;
  Dataset batch(TestSchema());
  batch.Append(MakeRecord("123456789", "JOHN", "SMITH", "12 OAK STREET"));
  ASSERT_TRUE(engine.AddBatch(batch, theory).ok());

  // Lowercase, unnormalized input: MatchOnly must condition the probe the
  // same way AddBatch conditions admitted records.
  Result<ProbeResult> probe = engine.MatchOnly(
      MakeRecord("123456789", "john", "smith", "12 oak street"), theory);
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(probe->matches.empty());
}

// The deduplicated {new, old} label diff over the records both labelings
// cover: the definition of a commit's merge delta.
std::vector<std::pair<uint32_t, uint32_t>> LabelDiff(
    const std::vector<uint32_t>& before, const std::vector<uint32_t>& after) {
  std::vector<std::pair<uint32_t, uint32_t>> diff;
  for (size_t t = 0; t < before.size(); ++t) {
    if (after[t] != before[t]) diff.emplace_back(after[t], before[t]);
  }
  std::sort(diff.begin(), diff.end());
  diff.erase(std::unique(diff.begin(), diff.end()), diff.end());
  return diff;
}

// Property, after every serial upsert (batches of 1..64 records, with
// exact duplicates of earlier and of same-batch records so keys tie):
//   * the served merge delta equals the full before/after label diff;
//   * the served labels and Label(t) equal ComponentLabels();
//   * a Restore'd copy answers 200 probes exactly as the live engine,
//     which holds only if binary-search insertion built the same sorted
//     orders a full sort does.
TEST(CommitPropertyTest, MergesLabelsAndOrdersMatchFullRecomputation) {
  for (uint64_t seed : {7u, 2026u, 31337u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Dataset all = GenerateDataset(500, seed);
    MatchServiceOptions options = ServiceOptions();
    options.batcher.max_delay_ms = 0.0;  // One upsert == one batch.
    MatchService service(options, EmployeeTheory::Factory());
    IncrementalMergePurge mirror(EngineOptions());
    EmployeeTheory theory;
    Rng rng(seed);

    size_t next = 0;
    uint64_t merged_batches = 0;
    while (next < all.size()) {
      const size_t n = std::min<size_t>(1 + rng.NextBounded(64),
                                        all.size() - next);
      std::vector<Record> records;
      for (size_t k = 0; k < n; ++k) {
        records.push_back(all.record(static_cast<TupleId>(next + k)));
      }
      // Exact duplicates: one of an earlier record, one of this batch's.
      records.push_back(
          all.record(static_cast<TupleId>(rng.NextBounded(next + 1))));
      Record twin = records[rng.NextBounded(n)];
      records.push_back(std::move(twin));
      next += n;

      const std::vector<uint32_t> before = service.ComponentLabels();
      Dataset batch(TestSchema());
      for (const Record& record : records) batch.Append(record);
      Result<MatchService::UpsertOutcome> outcome =
          service.Upsert(std::move(records));
      ASSERT_TRUE(outcome.ok());
      ASSERT_TRUE(mirror.AddBatch(batch, theory).ok());
      const std::vector<uint32_t> after = service.ComponentLabels();

      EXPECT_EQ(outcome->merges, LabelDiff(before, after));
      EXPECT_EQ(mirror.LastBatchMerges(), outcome->merges);
      if (!outcome->merges.empty()) ++merged_batches;
      ASSERT_EQ(outcome->base_tid, before.size());
      ASSERT_EQ(after, mirror.ComponentLabels());
      for (size_t i = 0; i < outcome->entities.size(); ++i) {
        ASSERT_EQ(outcome->entities[i], after[before.size() + i]);
      }
      for (TupleId t = 0; t < after.size(); ++t) {
        ASSERT_EQ(mirror.Label(t), after[t]) << "tuple " << t;
      }

      IncrementalMergePurge restored(EngineOptions());
      ASSERT_TRUE(restored.Restore(mirror.records(), mirror.pairs()).ok());
      ASSERT_EQ(restored.ComponentLabels(), after);
      for (int probe = 0; probe < 200; ++probe) {
        const Record& record =
            all.record(static_cast<TupleId>(rng.NextBounded(all.size())));
        Result<ProbeResult> live = mirror.MatchOnly(record, theory);
        Result<ProbeResult> copy = restored.MatchOnly(record, theory);
        ASSERT_TRUE(live.ok());
        ASSERT_TRUE(copy.ok());
        ASSERT_EQ(live->matches, copy->matches);
      }
    }
    // The sequence exercised the delta, not just empty ones.
    EXPECT_GT(merged_batches, 0u);
  }
}

// --- Batcher. ---

TEST(BatcherTest, CoalescesConcurrentSubmissionsAndPreservesOrder) {
  BatcherOptions options;
  options.max_batch_records = 1000;
  options.max_delay_ms = 20.0;

  Mutex mu(lockrank::kUnranked);
  std::vector<size_t> commit_sizes;
  UpsertBatcher batcher(
      options, [&](std::vector<Record> records) -> Result<BatchCommit> {
        MutexLock lock(mu);
        commit_sizes.push_back(records.size());
        // Label each record with its global commit position.
        static uint32_t next = 0;
        BatchCommit commit;
        commit.base_tid = next;
        commit.labels.resize(records.size());
        for (uint32_t& l : commit.labels) l = next++;
        return commit;
      });

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 5;
  std::vector<std::thread> threads;
  std::atomic<size_t> total_labels{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&batcher, &total_labels] {
      for (size_t i = 0; i < kPerThread; ++i) {
        std::vector<Record> records(3);
        auto future = batcher.Submit(std::move(records));
        Result<UpsertSlice> slice = future.get();
        ASSERT_TRUE(slice.ok());
        ASSERT_EQ(slice->entities.size(), 3u);
        // A request's labels are contiguous: the batcher never splits a
        // request across commits.
        EXPECT_EQ(slice->entities[1], slice->entities[0] + 1);
        EXPECT_EQ(slice->entities[2], slice->entities[0] + 2);
        // The sliced base tid names the request's first record.
        EXPECT_EQ(slice->base_tid, slice->entities[0]);
        total_labels.fetch_add(slice->entities.size());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  batcher.Drain();

  EXPECT_EQ(total_labels.load(), kThreads * kPerThread * 3);
  size_t committed = 0;
  for (size_t s : batcher.committed_batch_sizes()) committed += s;
  EXPECT_EQ(committed, kThreads * kPerThread * 3);
  // With a 20ms window and 8 writers, at least SOME coalescing happened
  // (strictly fewer commits than requests).
  EXPECT_LT(batcher.committed_batch_sizes().size(),
            kThreads * kPerThread);
}

TEST(BatcherTest, SubmitAfterDrainFails) {
  UpsertBatcher batcher(
      BatcherOptions{},
      [](std::vector<Record> records) -> Result<BatchCommit> {
        BatchCommit commit;
        commit.labels.assign(records.size(), 0);
        return commit;
      });
  batcher.Drain();
  auto future = batcher.Submit(std::vector<Record>(1));
  EXPECT_FALSE(future.get().ok());
}

// --- MatchService. ---

TEST(MatchServiceTest, UpsertAssignsEntitiesAndMatchFindsThem) {
  MatchService service(ServiceOptions(), EmployeeTheory::Factory());
  std::vector<Record> records;
  records.push_back(
      MakeRecord("123456789", "JOHN", "SMITH", "12 OAK STREET"));
  records.push_back(
      MakeRecord("987654321", "ALICE", "JONES", "9 ELM AVENUE"));
  Result<MatchService::UpsertOutcome> upsert =
      service.Upsert(std::move(records));
  ASSERT_TRUE(upsert.ok());
  ASSERT_EQ(upsert->entities.size(), 2u);
  // Distinct people get distinct entities.
  EXPECT_NE(upsert->entities[0], upsert->entities[1]);

  Result<MatchService::MatchOutcome> match = service.Match(
      MakeRecord("123456789", "JOHN", "SMITH", "12 OAK STREET"));
  ASSERT_TRUE(match.ok());
  ASSERT_TRUE(match->entity.has_value());
  EXPECT_EQ(*match->entity, upsert->entities[0]);

  MatchService::Stats stats = service.GetStats();
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.entities, 2u);
}

TEST(MatchServiceTest, MatchOnEmptyServiceFindsNothing) {
  MatchService service(ServiceOptions(), EmployeeTheory::Factory());
  Result<MatchService::MatchOutcome> match =
      service.Match(MakeRecord("1", "A", "B", "C"));
  ASSERT_TRUE(match.ok());
  EXPECT_FALSE(match->entity.has_value());
  EXPECT_TRUE(match->matches.empty());
}

TEST(MatchServiceTest, UpsertAfterDrainFails) {
  MatchService service(ServiceOptions(), EmployeeTheory::Factory());
  ASSERT_TRUE(
      service.Upsert({MakeRecord("1", "A", "B", "C")}).ok());
  service.Drain();
  EXPECT_FALSE(
      service.Upsert({MakeRecord("2", "D", "E", "F")}).ok());
  // Reads keep working on the frozen state.
  EXPECT_TRUE(service.Match(MakeRecord("1", "A", "B", "C")).ok());
  EXPECT_EQ(service.GetStats().records, 1u);
}

// --- Server end-to-end over loopback sockets. ---

// Minimal blocking test client.
class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool Send(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  // Reads one '\n'-terminated line; empty string on EOF / error.
  std::string ReadLine() {
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return std::string();
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  JsonValue Call(std::string_view request_line) {
    EXPECT_TRUE(Send(request_line));
    std::string line = ReadLine();
    EXPECT_FALSE(line.empty());
    Result<JsonValue> parsed = ParseResponseLine(line);
    EXPECT_TRUE(parsed.ok()) << line;
    return parsed.ok() ? std::move(*parsed) : JsonValue::Object();
  }

  // True when the peer has closed (EOF) — distinguishes "connection shut"
  // from "still open" after fatal protocol errors.
  bool AtEof() {
    char byte;
    const ssize_t n = ::recv(fd_, &byte, 1, 0);
    return n == 0;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = ServerOptions()) {
    service_ = std::make_unique<MatchService>(ServiceOptions(),
                                              EmployeeTheory::Factory());
    options.port = 0;  // Ephemeral.
    options.idle_timeout_ms = 5000;
    server_ = std::make_unique<Server>(options, service_.get());
    Result<uint16_t> port = server_->Start();
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->RequestDrain();
      server_->Join();
    }
  }

  static bool Ok(const JsonValue& response) {
    const JsonValue* ok = response.Find("ok");
    return ok != nullptr && ok->bool_value();
  }

  static std::string ErrorCode(const JsonValue& response) {
    const JsonValue* error = response.Find("error");
    if (error == nullptr) return "";
    const JsonValue* code = error->Find("code");
    return code == nullptr ? "" : code->string_value();
  }

  std::unique_ptr<MatchService> service_;
  std::unique_ptr<Server> server_;
  uint16_t port_ = 0;
};

TEST_F(ServerTest, PingUpsertMatchStatsRoundTrip) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(port_));

  JsonValue pong = client.Call("{\"op\":\"ping\",\"id\":1}\n");
  EXPECT_TRUE(Ok(pong));
  EXPECT_EQ(pong.Find("id")->int_value(), 1);

  JsonValue upsert = client.Call(
      R"({"op":"upsert","records":[)"
      R"({"ssn":"123456789","first_name":"JOHN","last_name":"SMITH",)"
      R"("address":"12 OAK STREET","city":"SPRINGFIELD","state":"IL",)"
      R"("zip":"62701"}]})"
      "\n");
  ASSERT_TRUE(Ok(upsert)) << ErrorCode(upsert);
  ASSERT_EQ(upsert.Find("entities")->elements().size(), 1u);

  JsonValue match = client.Call(
      R"({"op":"match","record":)"
      R"({"ssn":"123456789","first_name":"JOHN","last_name":"SMITH",)"
      R"("address":"12 OAK STREET","city":"SPRINGFIELD","state":"IL",)"
      R"("zip":"62701"}})"
      "\n");
  ASSERT_TRUE(Ok(match)) << ErrorCode(match);
  EXPECT_FALSE(match.Find("matches")->elements().empty());
  EXPECT_FALSE(match.Find("entity")->is_null());

  JsonValue stats = client.Call("{\"op\":\"stats\"}\n");
  ASSERT_TRUE(Ok(stats));
  EXPECT_EQ(stats.Find("records")->int_value(), 1);
}

TEST_F(ServerTest, StatsCarriesIntrospectionSections) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(port_));
  ASSERT_TRUE(Ok(client.Call(
      R"({"op":"upsert","records":[{"ssn":"123456789",)"
      R"("first_name":"JOHN","last_name":"SMITH"}]})"
      "\n")));

  JsonValue stats = client.Call("{\"op\":\"stats\"}\n");
  ASSERT_TRUE(Ok(stats));
  EXPECT_EQ(stats.Find("state")->string_value(), "serving");
  EXPECT_GE(stats.Find("uptime_seconds")->double_value(), 0.0);
  ASSERT_NE(stats.Find("counters"), nullptr);
  ASSERT_NE(stats.Find("gauges"), nullptr);
  ASSERT_NE(stats.Find("histograms"), nullptr);

  // The registry is process-global and other tests feed it, so assert
  // floors, not exact counts.
  const JsonValue* requests =
      stats.Find("counters")->Find("service.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->int_value(), 2);
  const JsonValue* upsert_us =
      stats.Find("histograms")->Find("service.upsert_us");
  ASSERT_NE(upsert_us, nullptr);
  EXPECT_GE(upsert_us->Find("count")->int_value(), 1);
  // Each histogram is MetricsSnapshot::ToJson's summary, the form a run
  // report writes: exactly {count, sum, p50, p90, p99}. This connection
  // is idle, so the registry still holds what the reply summarized.
  std::vector<std::string> keys;
  for (const auto& [key, value] : upsert_us->members()) keys.push_back(key);
  ASSERT_EQ(keys,
            (std::vector<std::string>{"count", "sum", "p50", "p90", "p99"}));
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(upsert_us->Dump(), snapshot.ToJson()
                                   .Find("histograms")
                                   ->Find("service.upsert_us")
                                   ->Dump());
  const HistogramSnapshot& upsert_h =
      snapshot.histograms.at("service.upsert_us");
  EXPECT_DOUBLE_EQ(upsert_us->Find("p50")->double_value(),
                   HistogramQuantile(upsert_h, 0.50));
  EXPECT_DOUBLE_EQ(upsert_us->Find("p99")->double_value(),
                   HistogramQuantile(upsert_h, 0.99));
  // Commit-pipeline stage attribution rides in the same histogram map.
  const JsonValue* apply_us =
      stats.Find("histograms")->Find("service.stage.apply_us");
  ASSERT_NE(apply_us, nullptr);
  EXPECT_GE(apply_us->Find("count")->int_value(), 1);
  // ...and so does its split into the engine's AddBatch stages.
  for (const char* stage : {"service.stage.insert_us", "service.stage.scan_us",
                            "service.stage.union_us"}) {
    const JsonValue* split = stats.Find("histograms")->Find(stage);
    ASSERT_NE(split, nullptr) << stage;
    EXPECT_EQ(split->Find("count")->int_value(),
              apply_us->Find("count")->int_value())
        << stage;
  }
  // Resident gauges were refreshed by the committed batch.
  EXPECT_GE(stats.Find("gauges")
                ->Find("service.records_resident")
                ->double_value(),
            1.0);

  // A first poll has nothing to diff against; the window becomes valid
  // once a second snapshot lands in the ring.
  ASSERT_NE(stats.Find("window"), nullptr);
  JsonValue again = client.Call("{\"op\":\"stats\"}\n");
  ASSERT_TRUE(Ok(again));
  const JsonValue* window = again.Find("window");
  ASSERT_NE(window, nullptr);
  ASSERT_TRUE(window->Find("valid")->bool_value());
  EXPECT_GT(window->Find("seconds")->double_value(), 0.0);
  EXPECT_GE(window->Find("requests_per_sec")->double_value(), 0.0);
  ASSERT_NE(window->Find("histograms"), nullptr);
}

TEST_F(ServerTest, HealthReportsServingStateAndResidentSizes) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(port_));
  ASSERT_TRUE(Ok(client.Call(
      R"({"op":"upsert","records":[{"ssn":"123456789",)"
      R"("first_name":"JOHN","last_name":"SMITH"}]})"
      "\n")));

  JsonValue health = client.Call("{\"op\":\"health\",\"id\":5}\n");
  ASSERT_TRUE(Ok(health));
  EXPECT_EQ(health.Find("id")->int_value(), 5);
  EXPECT_EQ(health.Find("state")->string_value(), "serving");
  EXPECT_GE(health.Find("uptime_seconds")->double_value(), 0.0);
  // No durability configured: the WAL section says so instead of lying
  // with zeros.
  const JsonValue* wal = health.Find("wal");
  ASSERT_NE(wal, nullptr);
  EXPECT_FALSE(wal->Find("enabled")->bool_value());
  const JsonValue* resident = health.Find("resident");
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(resident->Find("records")->int_value(), 1);
  EXPECT_GE(resident->Find("components")->int_value(), 1);
}

TEST_F(ServerTest, TraceToggleControlsRecorderAndSampling) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(port_));

  JsonValue on =
      client.Call(R"({"op":"trace","enabled":true,"sample":3})" "\n");
  ASSERT_TRUE(Ok(on));
  EXPECT_TRUE(on.Find("tracing")->bool_value());
  EXPECT_EQ(on.Find("sample")->int_value(), 3);
  EXPECT_TRUE(TraceRecorder::Global().enabled());

  // Sampled requests still serve normally while tracing.
  EXPECT_TRUE(Ok(client.Call("{\"op\":\"ping\"}\n")));

  JsonValue off = client.Call(R"({"op":"trace","enabled":false})" "\n");
  ASSERT_TRUE(Ok(off));
  EXPECT_FALSE(off.Find("tracing")->bool_value());
  // The sampling interval persists across toggles.
  EXPECT_EQ(off.Find("sample")->int_value(), 3);
  EXPECT_FALSE(TraceRecorder::Global().enabled());
}

TEST_F(ServerTest, StateNameReflectsDrain) {
  StartServer();
  EXPECT_STREQ(server_->StateName(), "serving");
  server_->RequestDrain();
  // RequestDrain shuts connection reads, so the draining state is
  // observable through StateName (and the health doc it feeds), not
  // through a new request on this socket.
  EXPECT_STREQ(server_->StateName(), "draining");
  server_->Join();
}

// Startup recovery runs off-thread: the server binds and answers health
// ("recovering") immediately, refuses writes with a retryable error, and
// flips to serving once the replay lands.
TEST(ServerRecoveryTest, HealthAnswersDuringRecoveryAndUpsertsRefused) {
  TempDir dir;
  MatchServiceOptions options = ServiceOptions();
  options.durability.data_dir = dir.path();
  options.durability.fsync = FsyncPolicy::kNone;
  options.durability.recovery_delay_for_testing_ms = 400;
  MatchService service(options, EmployeeTheory::Factory());
  EXPECT_EQ(service.lifecycle(), MatchService::Lifecycle::kRecovering);

  ServerOptions server_options;
  server_options.port = 0;
  Server server(server_options, &service);
  Result<uint16_t> port = server.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  TestClient client;
  ASSERT_TRUE(client.Connect(*port));

  JsonValue health = client.Call("{\"op\":\"health\"}\n");
  const JsonValue* ok = health.Find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->bool_value());
  EXPECT_EQ(health.Find("state")->string_value(), "recovering");
  // The reduced recovering doc: no engine-backed sections, which would
  // block behind the recovery thread's write lock.
  EXPECT_EQ(health.Find("resident"), nullptr);

  JsonValue refused = client.Call(
      R"({"op":"upsert","records":[{"last_name":"DOE"}]})" "\n");
  EXPECT_FALSE(refused.Find("ok")->bool_value());
  EXPECT_EQ(refused.Find("error")->Find("code")->string_value(),
            "recovering");
  JsonValue stats_refused = client.Call("{\"op\":\"stats\"}\n");
  EXPECT_FALSE(stats_refused.Find("ok")->bool_value());
  EXPECT_EQ(stats_refused.Find("error")->Find("code")->string_value(),
            "recovering");

  ASSERT_TRUE(service.WaitForRecovery().ok());
  JsonValue admitted = client.Call(
      R"({"op":"upsert","records":[{"last_name":"DOE"}]})" "\n");
  EXPECT_TRUE(admitted.Find("ok")->bool_value());
  JsonValue healthy = client.Call("{\"op\":\"health\"}\n");
  EXPECT_EQ(healthy.Find("state")->string_value(), "serving");
  EXPECT_EQ(healthy.Find("resident")->Find("records")->int_value(), 1);

  client.Close();
  server.RequestDrain();
  server.Join();
}

TEST_F(ServerTest, InvalidJsonGetsTypedErrorAndConnectionSurvives) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(port_));

  JsonValue bad = client.Call("this is not json\n");
  EXPECT_FALSE(Ok(bad));
  EXPECT_EQ(ErrorCode(bad), "bad_json");

  JsonValue unknown = client.Call("{\"op\":\"obliterate\"}\n");
  EXPECT_FALSE(Ok(unknown));
  EXPECT_EQ(ErrorCode(unknown), "unknown_op");

  JsonValue bad_record =
      client.Call(R"({"op":"match","record":{"shoe_size":"12"}})"
                  "\n");
  EXPECT_FALSE(Ok(bad_record));
  EXPECT_EQ(ErrorCode(bad_record), "bad_record");

  // The connection is still in sync: a valid request succeeds.
  EXPECT_TRUE(Ok(client.Call("{\"op\":\"ping\"}\n")));
}

TEST_F(ServerTest, OversizedLineGetsFrameTooLargeAndClose) {
  ServerOptions options;
  options.max_line_bytes = 256;
  StartServer(options);
  TestClient client;
  ASSERT_TRUE(client.Connect(port_));

  std::string huge(1024, 'x');
  huge += "\n";
  ASSERT_TRUE(client.Send(huge));
  std::string line = client.ReadLine();
  Result<JsonValue> parsed = ParseResponseLine(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(ErrorCode(*parsed), "frame_too_large");
  EXPECT_TRUE(client.AtEof());  // Fatal: the server closed.

  // The server itself is unharmed: a fresh connection works.
  TestClient next;
  ASSERT_TRUE(next.Connect(port_));
  EXPECT_TRUE(Ok(next.Call("{\"op\":\"ping\"}\n")));
}

TEST_F(ServerTest, PartialFramesCompleteAcrossSends) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(port_));

  ASSERT_TRUE(client.Send("{\"op\":"));
  ASSERT_TRUE(client.Send("\"pi"));
  ASSERT_TRUE(client.Send("ng\"}"));
  ASSERT_TRUE(client.Send("\n"));
  std::string line = client.ReadLine();
  Result<JsonValue> parsed = ParseResponseLine(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(Ok(*parsed));
}

TEST_F(ServerTest, AbruptDisconnectLeavesServerHealthy) {
  StartServer();
  {
    TestClient client;
    ASSERT_TRUE(client.Connect(port_));
    // Half a request, then vanish.
    ASSERT_TRUE(client.Send("{\"op\":\"upsert\",\"records\":[{"));
    client.Close();
  }
  TestClient next;
  ASSERT_TRUE(next.Connect(port_));
  EXPECT_TRUE(Ok(next.Call("{\"op\":\"ping\"}\n")));
}

TEST_F(ServerTest, ConnectionCapRejectsExcessConnections) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_connections = 1;
  StartServer(options);

  TestClient first;
  ASSERT_TRUE(first.Connect(port_));
  ASSERT_TRUE(Ok(first.Call("{\"op\":\"ping\"}\n")));  // Fully admitted.

  TestClient second;
  ASSERT_TRUE(second.Connect(port_));
  std::string line = second.ReadLine();  // Rejection arrives unprompted.
  Result<JsonValue> parsed = ParseResponseLine(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(ErrorCode(*parsed), "too_many_connections");
  EXPECT_TRUE(second.AtEof());

  // The admitted connection is unaffected.
  EXPECT_TRUE(Ok(first.Call("{\"op\":\"ping\"}\n")));
}

TEST_F(ServerTest, GracefulDrainPreservesAdmittedState) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(port_));
  JsonValue upsert = client.Call(
      R"({"op":"upsert","records":[{"ssn":"111223333",)"
      R"("first_name":"JANE","last_name":"DOE"}]})"
      "\n");
  ASSERT_TRUE(Ok(upsert));
  client.Close();

  server_->RequestDrain();
  server_->Join();

  // The admitted record survived the drain in the service.
  EXPECT_EQ(service_->GetStats().records, 1u);
  // Post-drain, new connections are not accepted.
  TestClient late;
  if (late.Connect(port_)) {
    EXPECT_TRUE(late.AtEof());
  }
  server_.reset();
}

}  // namespace
}  // namespace mergepurge

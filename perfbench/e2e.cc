// perfbench_e2e — the end-to-end half of the repository benchmark
// (README.md). It generates a workload's inputs from the seed, runs the
// built programs as separate processes, measures them with tracing off
// and checks every output.
//
//   perfbench_e2e --workload=NAME --seed=N --seconds=S --bin-dir=DIR
//                 --work-dir=DIR --pinned=FILE
//                 [--stage-stats]   (service: also read the server's
//                                    commit-stage histograms)
//                 [--cli-window=N]  (batch: pass --window=N to the CLI;
//                                    the negative control of the check)
//                 [--pin]           (print the reference digests for
//                                    pinned.json instead of measuring)
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (the gated end-to-end metrics), details (each workload's own
// figures) and layers (server stage histograms). Exit 0 when every check
// passed, 1 when one failed, 2 on usage errors.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "eval/experiment.h"
#include "io/csv.h"
#include "service/client.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

extern char** environ;

namespace perfbench {
namespace {

using mergepurge::ArgParser;
using mergepurge::Rng;
using mergepurge::ServiceClient;
using mergepurge::StringPrintf;
using mergepurge::Timer;

constexpr int kExitFailed = 1;
constexpr int kExitUsage = 2;
constexpr double kCliTimeoutSeconds = 150.0;
constexpr double kServerReadySeconds = 30.0;
constexpr double kServerDrainSeconds = 60.0;
// The server's stats op diffs histograms over its last 10 s of stats
// calls; the stage sample opens a window just inside that.
constexpr double kStageWindowSeconds = 9.5;
// Reference times taken just before and just after the measured phase
// (HostSpeed), each time after the server has been idle for longer than
// its snapshot interval, so no background snapshot competes with them.
constexpr int kServiceReferenceSamples = 3;
constexpr auto kServerQuiet = std::chrono::milliseconds(1500);

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  std::string bin_dir;
  std::string work_dir;
  std::string pinned_path;
  bool stage_stats = false;
  int64_t cli_window = 0;
  bool pin = false;
};

// The outcome of one benchmark run, printed as the last stdout line.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int errors_logged = 0;
  JsonValue metrics = JsonValue::Object();
  JsonValue details = JsonValue::Object();
  JsonValue layers = JsonValue::Object();

  // A failed operation that `attempted` already counts.
  void Fail(const std::string& message) {
    ++failed;
    if (errors_logged++ < 5) {
      std::fprintf(stderr, "perfbench_e2e: check failed: %s\n",
                   message.c_str());
    }
  }

  // A check that is an operation of its own.
  void Check(bool ok, const std::string& message) {
    ++attempted;
    if (!ok) Fail(message);
  }
};

// A spawned program. The destructor kills and reaps a child that is
// still running, so no early return leaves a process behind.
class Child {
 public:
  Child() = default;
  ~Child() { Kill(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool running() const { return pid_ > 0; }

  // Starts argv[0] with stdout and stderr appended to `log_path`.
  Status Spawn(const std::vector<std::string>& argv,
               const std::string& log_path) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<char*> args;
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    const int rc = posix_spawn(&pid_, args[0], &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      return Status::IoError("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
    }
    return Status::OK();
  }

  // Waits up to `timeout_s` for the child to exit; kills it on timeout.
  // Reports the exit code (128+signal when killed) and peak RSS.
  Status Wait(double timeout_s, int* exit_code, double* peak_rss_mb) {
    Timer timer;
    while (pid_ > 0) {
      int status = 0;
      struct rusage usage {};
      const pid_t done = wait4(pid_, &status, WNOHANG, &usage);
      if (done == pid_) {
        pid_ = -1;
        *exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
        *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
        return Status::OK();
      }
      if (done < 0) {
        pid_ = -1;
        return Status::IoError("wait4 failed");
      }
      if (timer.ElapsedSeconds() > timeout_s) {
        Kill();
        return Status::IoError(StringPrintf(
            "child did not exit within %.0f s; killed", timeout_s));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::IoError("no child to wait for");
  }

  // The running child's peak RSS so far (VmHWM), in MB; 0 if unknown.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0.0;
  }

  // SIGTERM (the server's graceful drain), then Wait.
  Status Terminate(double timeout_s, int* exit_code, double* peak_rss_mb) {
    if (pid_ > 0) ::kill(pid_, SIGTERM);
    return Wait(timeout_s, exit_code, peak_rss_mb);
  }

  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

// Reference times (common.h TimeReference), each taken while no measured
// program works, and how much slower than kReferenceSeconds the host ran:
// the timing metrics are divided by that slowdown.
class HostSpeed {
 public:
  void Sample(int times) {
    for (int i = 0; i < times; ++i) {
      uint64_t checksum = 0;
      seconds_.push_back(TimeReference(&checksum));
      if (checksum != kReferenceChecksum) bad_checksum_ = checksum;
    }
  }

  double Slowdown() const { return Median(seconds_) / kReferenceSeconds; }

  void Record(Report* report) const {
    report->Check(bad_checksum_ == 0,
                  StringPrintf("reference computation gave %llu",
                               static_cast<unsigned long long>(bad_checksum_)));
    report->details.Set("reference_s", JsonValue(Median(seconds_)));
  }

 private:
  std::vector<double> seconds_;
  uint64_t bad_checksum_ = 0;
};

std::string Path(const Options& options, const std::string& name) {
  return options.work_dir + "/" + name;
}

// ---------------------------------------------------------------- batch

int RunBatch(const Options& options, const JsonValue& pinned,
             Report* report) {
  const std::string csv = Path(options, "input.csv");
  const uint64_t gen_seed = GeneratorSeed(options.seed);

  // Set-up: generate the database and write the CSV, five times (it is
  // short, so single timings are noisy).
  std::vector<double> setup_seconds;
  size_t records = 0;
  for (int i = 0; i < (options.pin ? 1 : 5); ++i) {
    Timer timer;
    Result<Dataset> dataset = GenerateDatabase(kBatchOriginals, options.seed);
    if (!dataset.ok()) {
      std::fprintf(stderr, "perfbench_e2e: %s\n",
                   dataset.status().ToString().c_str());
      return kExitFailed;
    }
    Status written = mergepurge::WriteCsvFile(*dataset, csv);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench_e2e: %s\n", written.ToString().c_str());
      return kExitFailed;
    }
    records = dataset->size();
    setup_seconds.push_back(timer.ElapsedSeconds());
  }

  std::vector<std::string> argv = {
      options.bin_dir + "/mergepurge", "--input=" + csv,
      "--output=" + Path(options, "output.csv"),
      "--pairs-out=" + Path(options, "pairs"),
      "--entities=" + Path(options, "entities.csv")};
  if (options.cli_window > 0) {
    argv.push_back("--window=" + std::to_string(options.cli_window));
  }
  std::vector<std::string> outputs;
  std::vector<std::string> output_names;
  for (const char* key : kBatchKeys) {
    outputs.push_back(Path(options, "pairs." + std::string(key) + ".mpp"));
    output_names.push_back("pairs." + std::string(key));
  }
  outputs.push_back(Path(options, "entities.csv"));
  output_names.push_back("entities");

  const std::string expected_records = PinnedValue(
      pinned, kBatchWorkload, gen_seed, "records");
  if (!options.pin) {
    report->Check(expected_records == std::to_string(records),
                  StringPrintf("generated %zu records, pinned %s", records,
                               expected_records.c_str()));
  }

  // Measured phase: back-to-back CLI runs for --seconds, at least three
  // (one when pinning), so the median is of several runs.
  const size_t min_runs = options.pin ? 1 : 3;
  std::vector<double> walls;
  double peak_rss_mb = 0.0;
  HostSpeed host;
  host.Sample(1);
  Timer measured;
  while (walls.size() < min_runs ||
         measured.ElapsedSeconds() < options.seconds) {
    for (const std::string& output : outputs) {
      std::filesystem::remove(output);
    }
    ++report->attempted;
    Child cli;
    Timer wall;
    Status spawned = cli.Spawn(argv, Path(options, "cli.log"));
    int exit_code = -1;
    double rss = 0.0;
    Status waited = spawned.ok()
                        ? cli.Wait(kCliTimeoutSeconds, &exit_code, &rss)
                        : spawned;
    walls.push_back(wall.ElapsedSeconds());
    host.Sample(1);
    peak_rss_mb = std::max(peak_rss_mb, rss);
    if (!waited.ok() || exit_code != 0) {
      report->Fail(StringPrintf("CLI run failed (exit %d): %s", exit_code,
                                waited.ToString().c_str()));
      if (options.pin) return kExitFailed;
      break;
    }
    JsonValue digests = JsonValue::Object();
    std::string mismatches;
    for (size_t i = 0; i < outputs.size(); ++i) {
      Result<uint64_t> digest = FileDigest(outputs[i]);
      const std::string actual = digest.ok() ? Hex(*digest) : "missing";
      digests.Set(output_names[i], JsonValue(actual));
      const std::string expected =
          PinnedValue(pinned, kBatchWorkload, gen_seed, output_names[i]);
      if (actual != expected) {
        mismatches += " " + output_names[i] + " digest " + actual +
                      ", pinned " + (expected.empty() ? "<none>" : expected);
      }
    }
    if (options.pin) {
      digests.Set("records", JsonValue(static_cast<uint64_t>(records)));
      report->details.Set("pinned", std::move(digests));
      break;
    }
    if (!mismatches.empty()) {
      report->Fail("wrong CLI outputs:" + mismatches);
      break;  // More runs add nothing.
    }
  }

  const double batch_wall_s = Median(walls);
  const double slowdown = host.Slowdown();
  host.Record(report);
  report->metrics.Set("setup_s", JsonValue(Median(setup_seconds) / slowdown));
  report->metrics.Set("op_p50_ms", JsonValue(batch_wall_s / slowdown * 1e3));
  report->metrics.Set("records_per_s",
                      JsonValue(static_cast<double>(records) * slowdown /
                                batch_wall_s));
  report->metrics.Set("peak_rss_mb", JsonValue(peak_rss_mb));
  report->details.Set("setup_raw_s", JsonValue(Median(setup_seconds)));
  report->details.Set("batch_wall_s", JsonValue(batch_wall_s));
  report->details.Set("op_p90_ms", JsonValue(Percentile(walls, 0.90) * 1e3));
  report->details.Set("cli_runs", JsonValue(static_cast<uint64_t>(walls.size())));
  report->details.Set("records", JsonValue(static_cast<uint64_t>(records)));
  return 0;
}

// -------------------------------------------------------------- service

struct ServiceLines {
  std::vector<std::string> preload;
  std::vector<size_t> preload_sizes;
  std::vector<std::string> probes;
  std::vector<std::string> upserts;  // Each of workload.upsert_batch records.
};

ServiceLines EncodeLines(const ServiceWorkload& workload,
                         const ServiceInputs& inputs) {
  ServiceLines lines;
  for (size_t begin = 0; begin < inputs.resident.size();
       begin += workload.preload_batch) {
    const size_t end =
        std::min(inputs.resident.size(), begin + workload.preload_batch);
    lines.preload.push_back(UpsertLine(inputs.resident, begin, end));
    lines.preload_sizes.push_back(end - begin);
  }
  for (size_t i = 0; i < inputs.probes.size(); ++i) {
    lines.probes.push_back(MatchLine(inputs.probes, i));
  }
  if (workload.upsert_batch > 0) {
    for (size_t begin = 0; begin + workload.upsert_batch <= inputs.stream.size();
         begin += workload.upsert_batch) {
      lines.upserts.push_back(
          UpsertLine(inputs.stream, begin, begin + workload.upsert_batch));
    }
  }
  return lines;
}

bool ResponseOk(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  return ok != nullptr && ok->bool_value();
}

// Number of entity ids in an upsert response, or -1 when it failed.
int64_t UpsertEntities(const JsonValue& response) {
  const JsonValue* entities = response.Find("entities");
  if (!ResponseOk(response) || entities == nullptr || !entities->is_array()) {
    return -1;
  }
  return static_cast<int64_t>(entities->size());
}

struct LoopResult {
  std::vector<double> match_ms;
  std::vector<double> upsert_ms;
  uint64_t upserted = 0;
  double seconds = 0.0;
};

// The closed loop: each connection sends its next request only after
// the previous answer. Matches must answer what the pool pass pinned
// (when `expected` is non-empty); upserts must label every record.
// With `stats_at` >= 0 the first connection sends one stats request
// that many seconds in: every server worker is busy with a loop
// connection, so a separate stats connection would wait to the end.
LoopResult RunClosedLoop(uint16_t port, const ServiceWorkload& workload,
                         const ServiceLines& lines,
                         const std::vector<uint64_t>& expected,
                         double seconds, double stats_at, uint64_t seed,
                         std::atomic<size_t>* next_upsert, Report* report) {
  std::mutex mu;
  LoopResult total;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  Timer wall;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < workload.connections; ++c) {
    threads.emplace_back([&, c] {
      LoopResult local;
      uint64_t attempted = 0;
      std::vector<std::string> errors;
      Rng rng(seed * 1000003ULL + c);
      ServiceClient client;
      Status connected = client.Connect("127.0.0.1", port);
      if (!connected.ok()) {
        ++attempted;
        errors.push_back(connected.ToString());
      }
      bool stats_due = c == 0 && stats_at >= 0.0;
      while (connected.ok() && std::chrono::steady_clock::now() < deadline) {
        if (stats_due && wall.ElapsedSeconds() >= stats_at) {
          // Only feeds the server's stats window ring.
          stats_due = false;
          ++attempted;
          Result<JsonValue> stats = client.Call("{\"op\":\"stats\"}\n");
          if (!stats.ok() || !ResponseOk(*stats)) {
            errors.push_back("stats request failed");
          }
          continue;
        }
        // Past its end the upsert stream starts over: an upsert always
        // appends, so a record sent again is a new tuple like any other.
        const bool is_match = rng.NextBernoulli(workload.match_frac);
        const size_t upsert =
            is_match ? 0 : next_upsert->fetch_add(1) % lines.upserts.size();
        const size_t probe =
            is_match ? static_cast<size_t>(rng.NextBounded(lines.probes.size()))
                     : 0;
        ++attempted;
        Timer timer;
        Result<JsonValue> response =
            client.Call(is_match ? lines.probes[probe] : lines.upserts[upsert]);
        const double ms = timer.ElapsedSeconds() * 1e3;
        if (!response.ok()) {
          errors.push_back(response.status().ToString());
          break;  // The connection is unusable after a transport error.
        }
        if (is_match) {
          local.match_ms.push_back(ms);
          const std::optional<uint64_t> digest =
              MatchDigestFromResponse(*response);
          if (!digest.has_value()) {
            errors.push_back("bad match response: " + response->Dump(0));
          } else if (!expected.empty() && *digest != expected[probe]) {
            errors.push_back(StringPrintf("probe %zu answered differently "
                                          "from the pool pass", probe));
          }
        } else {
          local.upsert_ms.push_back(ms);
          const int64_t labelled = UpsertEntities(*response);
          if (labelled != static_cast<int64_t>(workload.upsert_batch)) {
            errors.push_back(StringPrintf(
                "upsert of %zu records returned %lld entity ids",
                workload.upsert_batch, static_cast<long long>(labelled)));
          } else {
            local.upserted += workload.upsert_batch;
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      report->attempted += attempted;
      for (const std::string& error : errors) report->Fail(error);
      total.match_ms.insert(total.match_ms.end(), local.match_ms.begin(),
                            local.match_ms.end());
      total.upsert_ms.insert(total.upsert_ms.end(), local.upsert_ms.begin(),
                             local.upsert_ms.end());
      total.upserted += local.upserted;
    });
  }
  for (std::thread& thread : threads) thread.join();
  total.seconds = wall.ElapsedSeconds();
  return total;
}

// One server lifetime: start, wait until it answers, preload.
class Server {
 public:
  Server(const Options& options, const ServiceWorkload& workload)
      : options_(options), workload_(workload) {}

  uint16_t port() const { return port_; }
  Child& child() { return child_; }

  Status Start() {
    const std::string port_file = Path(options_, "server.port");
    std::filesystem::remove(port_file);
    std::vector<std::string> argv = {options_.bin_dir + "/mergepurge_serve",
                                     "--port=0", "--port-file=" + port_file,
                                     "--workers=4"};
    if (workload_.durable) {
      const std::string data_dir = Path(options_, "data");
      std::filesystem::remove_all(data_dir);
      std::filesystem::create_directories(data_dir);
      argv.push_back("--data-dir=" + data_dir);
      argv.push_back("--fsync=none");
    }
    MERGEPURGE_RETURN_NOT_OK(
        child_.Spawn(argv, Path(options_, "server.log")));
    Timer timer;
    while (timer.ElapsedSeconds() < kServerReadySeconds) {
      std::ifstream in(port_file);
      unsigned port = 0;
      if (in >> port && port > 0) {
        port_ = static_cast<uint16_t>(port);
        ServiceClient client;
        Rng rng(options_.seed);
        Result<JsonValue> pong = mergepurge::CallWithRetry(
            &client, "127.0.0.1", port_, "{\"op\":\"ping\"}\n", &rng);
        if (!pong.ok()) return pong.status();
        if (!ResponseOk(*pong)) {
          return Status::Internal("ping refused: " + pong->Dump(0));
        }
        return Status::OK();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return Status::IoError("server did not publish its port");
  }

  // Preloads over one connection, one request at a time, so every run
  // commits the same batches and ends in the same resident state.
  void Preload(const ServiceLines& lines, Report* report) {
    ServiceClient client;
    Status connected = client.Connect("127.0.0.1", port_);
    if (!connected.ok()) {
      report->Check(false, "preload connect: " + connected.ToString());
      return;
    }
    for (size_t i = 0; i < lines.preload.size(); ++i) {
      ++report->attempted;
      Result<JsonValue> response = client.Call(lines.preload[i]);
      if (!response.ok()) {
        report->Fail("preload: " + response.status().ToString());
        return;
      }
      if (UpsertEntities(*response) !=
          static_cast<int64_t>(lines.preload_sizes[i])) {
        report->Fail("preload batch " + std::to_string(i) + ": " +
                     response->Dump(0).substr(0, 200));
      }
    }
  }

  // Sends every pool probe once over one connection and returns each
  // answer's digest (0 for a failed probe).
  std::vector<uint64_t> PoolPass(const ServiceLines& lines, Report* report) {
    std::vector<uint64_t> digests;
    ServiceClient client;
    Status connected = client.Connect("127.0.0.1", port_);
    if (!connected.ok()) {
      report->Check(false, "pool pass connect: " + connected.ToString());
      return digests;
    }
    for (const std::string& line : lines.probes) {
      ++report->attempted;
      Result<JsonValue> response = client.Call(line);
      std::optional<uint64_t> digest;
      if (response.ok()) digest = MatchDigestFromResponse(*response);
      if (!digest.has_value()) report->Fail("pool pass probe failed");
      digests.push_back(digest.value_or(0));
    }
    return digests;
  }

  Result<JsonValue> Stats() {
    ServiceClient client;
    MERGEPURGE_RETURN_NOT_OK(client.Connect("127.0.0.1", port_));
    return client.Call("{\"op\":\"stats\"}\n");
  }

 private:
  const Options& options_;
  const ServiceWorkload& workload_;
  Child child_;
  uint16_t port_ = 0;
};

double WindowP50(const JsonValue& stats, const char* histogram) {
  const JsonValue* window = stats.Find("window");
  const JsonValue* histograms =
      window != nullptr ? window->Find("histograms") : nullptr;
  const JsonValue* doc =
      histograms != nullptr ? histograms->Find(histogram) : nullptr;
  const JsonValue* p50 = doc != nullptr ? doc->Find("p50") : nullptr;
  return p50 != nullptr ? p50->double_value() : 0.0;
}

int RunService(const Options& options, const ServiceWorkload& workload,
               const JsonValue& pinned, Report* report) {
  Result<ServiceInputs> inputs = MakeServiceInputs(workload, options.seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "perfbench_e2e: %s\n",
                 inputs.status().ToString().c_str());
    return kExitFailed;
  }
  const ServiceLines lines = EncodeLines(workload, *inputs);
  const bool probe_only = workload.match_frac >= 1.0;
  const uint64_t gen_seed = GeneratorSeed(options.seed);

  // Set-up: start, readiness, preload and warm-up. A durable preload of
  // the large resident set is too slow to repeat within a run.
  //
  // The gated memory figure is the server's peak RSS at the end of
  // set-up, where every run holds about the same records. By the end of
  // the measured phase the resident set has grown by however many
  // records the run managed to upsert, and growth crosses allocator and
  // container-capacity steps: a faster run or program would read as a
  // memory regression.
  const int setups = options.pin || workload.durable ? 1 : 3;
  std::vector<double> setup_seconds;
  std::vector<double> setup_rss_mb;
  std::vector<uint64_t> expected;
  std::atomic<size_t> next_upsert{0};
  uint64_t warmup_upserted = 0;
  Server server(options, workload);
  for (int s = 0; s < setups; ++s) {
    if (server.child().running()) server.child().Kill();
    Timer timer;
    Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench_e2e: server: %s\n",
                   started.ToString().c_str());
      return kExitFailed;
    }
    server.Preload(lines, report);
    if (probe_only) {
      std::vector<uint64_t> digests = server.PoolPass(lines, report);
      if (!expected.empty()) {
        report->Check(digests == expected,
                      "pool pass differs between set-ups");
      }
      expected = std::move(digests);
    } else if (workload.warmup_seconds > 0) {
      LoopResult warmup =
          RunClosedLoop(server.port(), workload, lines, {},
                        workload.warmup_seconds, -1.0, options.seed ^ 0x5eed,
                        &next_upsert, report);
      warmup_upserted += warmup.upserted;
    }
    setup_seconds.push_back(timer.ElapsedSeconds());
    setup_rss_mb.push_back(server.child().PeakRssMb());
  }

  if (probe_only) {
    const std::string pool = Hex(ChainDigest(expected));
    if (options.pin) {
      JsonValue digests = JsonValue::Object();
      digests.Set("pool", JsonValue(pool));
      digests.Set("probes",
                  JsonValue(static_cast<uint64_t>(lines.probes.size())));
      report->details.Set("pinned", std::move(digests));
      return 0;
    }
    const std::string pinned_pool =
        PinnedValue(pinned, workload.name, gen_seed, "pool");
    report->Check(pool == pinned_pool,
                  "probe pool digest " + pool + ", pinned " +
                      (pinned_pool.empty() ? "<none>" : pinned_pool));
  }

  // Measured phase. The stage sample taken inside it opens the server's
  // stats window, which the final stats call closes.
  const double stats_at =
      options.stage_stats
          ? std::max(0.0, options.seconds - kStageWindowSeconds)
          : -1.0;
  HostSpeed host;
  std::this_thread::sleep_for(kServerQuiet);
  host.Sample(kServiceReferenceSamples);
  LoopResult loop = RunClosedLoop(server.port(), workload, lines, expected,
                                  options.seconds, stats_at, options.seed,
                                  &next_upsert, report);

  Result<JsonValue> stats = server.Stats();
  const uint64_t resident =
      inputs->resident.size() + warmup_upserted + loop.upserted;
  const JsonValue* records =
      stats.ok() ? stats->Find("records") : nullptr;
  report->Check(records != nullptr &&
                    static_cast<uint64_t>(records->int_value()) == resident,
                StringPrintf("server holds %s records, expected %llu",
                             records == nullptr ? "?"
                                                : records->Dump(0).c_str(),
                             static_cast<unsigned long long>(resident)));
  if (options.stage_stats && stats.ok()) {
    report->layers.Set("server.stage.queue_wait_us",
                       JsonValue(WindowP50(*stats, "service.stage.queue_wait_us")));
    report->layers.Set("server.stage.apply_us",
                       JsonValue(WindowP50(*stats, "service.stage.apply_us")));
    report->layers.Set(
        "server.stage.label_rebuild_us",
        JsonValue(WindowP50(*stats, "service.stage.label_rebuild_us")));
    report->layers.Set(
        "server.stage.wal_append_us",
        JsonValue(WindowP50(*stats, "service.stage.wal_append_us")));
    report->layers.Set("server.batch_records",
                       JsonValue(WindowP50(*stats, "service.batch_records")));
  }

  std::this_thread::sleep_for(kServerQuiet);
  host.Sample(kServiceReferenceSamples);
  const double slowdown = host.Slowdown();
  host.Record(report);

  int exit_code = -1;
  double peak_rss_mb = 0.0;
  Status drained =
      server.child().Terminate(kServerDrainSeconds, &exit_code, &peak_rss_mb);
  report->Check(drained.ok() && exit_code == 0,
                StringPrintf("server drain failed (exit %d): %s", exit_code,
                             drained.ToString().c_str()));

  const std::vector<double>& ops = probe_only ? loop.match_ms : loop.upsert_ms;
  const double op_records = probe_only
                                ? static_cast<double>(loop.match_ms.size())
                                : static_cast<double>(loop.upserted);
  report->metrics.Set("setup_s", JsonValue(Median(setup_seconds) / slowdown));
  report->metrics.Set("op_p50_ms",
                      JsonValue(Percentile(ops, 0.50) / slowdown));
  report->metrics.Set("records_per_s",
                      JsonValue(op_records * slowdown / loop.seconds));
  report->metrics.Set("peak_rss_mb", JsonValue(Median(setup_rss_mb)));
  report->details.Set("setup_raw_s", JsonValue(Median(setup_seconds)));

  report->details.Set("op_p90_ms", JsonValue(Percentile(ops, 0.90)));
  report->details.Set("peak_rss_end_mb", JsonValue(peak_rss_mb));

  report->details.Set("match_p50_ms",
                      JsonValue(Percentile(loop.match_ms, 0.50)));
  report->details.Set("match_p99_ms",
                      JsonValue(Percentile(loop.match_ms, 0.99)));
  report->details.Set("match_per_s",
                      JsonValue(static_cast<double>(loop.match_ms.size()) /
                                loop.seconds));
  report->details.Set("matches",
                      JsonValue(static_cast<uint64_t>(loop.match_ms.size())));
  if (!probe_only) {
    report->details.Set("upsert_p50_ms",
                        JsonValue(Percentile(loop.upsert_ms, 0.50)));
    report->details.Set("upsert_p99_ms",
                        JsonValue(Percentile(loop.upsert_ms, 0.99)));
    report->details.Set("upsert_records_per_s",
                        JsonValue(static_cast<double>(loop.upserted) /
                                  loop.seconds));
    report->details.Set("upserts", JsonValue(static_cast<uint64_t>(
                                       loop.upsert_ms.size())));
  }
  report->details.Set("resident_end", JsonValue(resident));
  report->details.Set("probe_pool",
                      JsonValue(static_cast<uint64_t>(lines.probes.size())));
  return 0;
}

int UsageError(const std::string& message) {
  std::fprintf(stderr, "perfbench_e2e: %s\n", message.c_str());
  return kExitUsage;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  signal(SIGPIPE, SIG_IGN);
  ArgParser args(argc, argv);
  if (!args.status().ok()) return UsageError(args.status().message());
  Options options;
  options.workload = args.GetString("workload", "");
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 0));
  options.seconds = args.GetDouble("seconds", 10.0);
  options.bin_dir = args.GetString("bin-dir", "");
  options.work_dir = args.GetString("work-dir", "");
  options.pinned_path = args.GetString("pinned", "");
  options.stage_stats = args.GetBool("stage-stats", false);
  options.cli_window = args.GetInt("cli-window", 0);
  options.pin = args.GetBool("pin", false);
  if (options.bin_dir.empty() || options.work_dir.empty()) {
    return UsageError("--bin-dir and --work-dir are required");
  }
  if (options.seconds <= 0.0) return UsageError("--seconds must be > 0");

  Status optimized = CheckOptimizedBuild();
  if (!optimized.ok()) return UsageError(optimized.message());
  JsonValue pinned = JsonValue::Object();
  if (!options.pin) {
    Result<JsonValue> loaded = LoadPinned(options.pinned_path);
    if (!loaded.ok()) return UsageError(loaded.status().ToString());
    pinned = std::move(*loaded);
  }

  Report report;
  int code = 0;
  if (options.workload == kBatchWorkload) {
    code = RunBatch(options, pinned, &report);
  } else if (const ServiceWorkload* workload =
                 FindServiceWorkload(options.workload)) {
    code = RunService(options, *workload, pinned, &report);
  } else {
    return UsageError("unknown --workload '" + options.workload + "'");
  }
  if (code != 0) return code;

  JsonValue out = JsonValue::Object();
  out.Set("correct", JsonValue(report.failed == 0));
  out.Set("attempted", JsonValue(report.attempted));
  out.Set("failed", JsonValue(report.failed));
  out.Set("metrics", std::move(report.metrics));
  out.Set("details", std::move(report.details));
  out.Set("layers", std::move(report.layers));
  std::printf("%s\n", out.Dump(0).c_str());
  return report.failed == 0 ? 0 : kExitFailed;
}

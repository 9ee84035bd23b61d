// bench_compare — the CI latency-regression gate.
//
//   bench_compare --baseline=bench/baselines/BENCH_service.json
//                 --fresh=BENCH_service.json
//                 --metric=config/summary/latency_request/p50_us
//                 --max-regress-pct=25
//
// Resolves the same '/'-separated numeric path in both documents
// (lower is better: a latency or seconds-per-run figure) and exits 1 if
// the fresh value exceeds baseline * (1 + max-regress-pct/100). An
// IMPROVEMENT beyond the same margin exits 0 but prints a reminder to
// re-baseline, so the enforced budget ratchets down instead of going
// stale. Used by tools/ci.sh against the committed baselines in
// bench/baselines/ (see ROADMAP "latency regression gate").
//
// Exit codes: 0 within budget, 1 regression (or unreadable inputs),
// 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/json.h"
#include "util/fs.h"
#include "util/string_util.h"

using namespace mergepurge;

namespace {

constexpr const char* kUsage =
    "usage: bench_compare --baseline=old.json --fresh=new.json \\\n"
    "                     --metric=key/path [--max-regress-pct=25]\n"
    "  The metric must resolve to a number in both files; lower is "
    "better.";

// Loads `file` and resolves `path` ("a/b/c") to a number.
bool LoadMetric(const std::string& file, const std::string& path,
                double* out) {
  Result<std::string> text = ReadFileToString(file);
  if (!text.ok()) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", file.c_str());
    return false;
  }
  Result<JsonValue> doc = JsonValue::Parse(*text);
  if (!doc.ok()) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", file.c_str(),
                 doc.status().ToString().c_str());
    return false;
  }
  const JsonValue* node = &*doc;
  for (std::string_view key : SplitView(path, '/')) {
    if (!node->is_object()) {
      std::fprintf(stderr, "bench_compare: %s: '%s' hits a non-object\n",
                   file.c_str(), path.c_str());
      return false;
    }
    const JsonValue* child = node->Find(key);
    if (child == nullptr) {
      std::fprintf(stderr, "bench_compare: %s: missing '%s'\n",
                   file.c_str(), path.c_str());
      return false;
    }
    node = child;
  }
  if (!node->is_number()) {
    std::fprintf(stderr, "bench_compare: %s: '%s' is not a number\n",
                 file.c_str(), path.c_str());
    return false;
  }
  *out = node->double_value();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_file;
  std::string fresh_file;
  std::string metric;
  double max_regress_pct = 25.0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline_file = arg.substr(11);
    } else if (arg.rfind("--fresh=", 0) == 0) {
      fresh_file = arg.substr(8);
    } else if (arg.rfind("--metric=", 0) == 0) {
      metric = arg.substr(9);
    } else if (arg.rfind("--max-regress-pct=", 0) == 0) {
      char* end = nullptr;
      const std::string value = arg.substr(18);
      max_regress_pct = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || max_regress_pct < 0) {
        std::fprintf(stderr, "bench_compare: bad --max-regress-pct=%s\n%s\n",
                     value.c_str(), kUsage);
        return 2;
      }
    } else {
      std::fprintf(stderr, "bench_compare: unknown argument %s\n%s\n",
                   arg.c_str(), kUsage);
      return 2;
    }
  }
  if (baseline_file.empty() || fresh_file.empty() || metric.empty()) {
    std::fprintf(stderr,
                 "bench_compare: need --baseline=, --fresh= and "
                 "--metric=\n%s\n",
                 kUsage);
    return 2;
  }

  double baseline = 0.0;
  double fresh = 0.0;
  if (!LoadMetric(baseline_file, metric, &baseline) ||
      !LoadMetric(fresh_file, metric, &fresh)) {
    return 1;
  }
  if (baseline <= 0.0) {
    std::fprintf(stderr,
                 "bench_compare: baseline %s = %g is not positive; "
                 "re-generate the baseline\n",
                 metric.c_str(), baseline);
    return 1;
  }

  const double change_pct = 100.0 * (fresh - baseline) / baseline;
  const double budget = baseline * (1.0 + max_regress_pct / 100.0);
  if (fresh > budget) {
    std::fprintf(stderr,
                 "bench_compare: REGRESSION %s: baseline %g -> fresh %g "
                 "(%+.1f%%, budget +%.0f%%)\n",
                 metric.c_str(), baseline, fresh, change_pct,
                 max_regress_pct);
    return 1;
  }
  std::printf("bench_compare: %s: baseline %g -> fresh %g (%+.1f%%) ok\n",
              metric.c_str(), baseline, fresh, change_pct);
  if (fresh < baseline * (1.0 - max_regress_pct / 100.0)) {
    std::printf(
        "bench_compare: improvement beyond the gate margin — consider "
        "committing the fresh numbers as the new baseline\n");
  }
  return 0;
}

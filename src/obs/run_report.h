// RunReport: the machine-readable summary of one merge/purge run.
// Collects tool identity, configuration, dataset shape, per-pass
// SNM/clustering stats, closure stats, and a full metrics snapshot into
// one JSON document (schema documented in docs/observability.md).
// Written by mergepurge_cli --metrics-out and the bench harnesses
// (BENCH_snm.json); validated by tools/validate_report and ci.sh.

#ifndef MERGEPURGE_OBS_RUN_REPORT_H_
#define MERGEPURGE_OBS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace mergepurge {

struct MultiPassResult;
struct PassResult;

class RunReport {
 public:
  // Construction pre-registers the standard metric catalog in `registry`
  // so every report carries the full key set (zeros for stages that
  // never ran). Defaults to the global registry.
  explicit RunReport(std::string tool,
                     MetricsRegistry* registry = &MetricsRegistry::Global());

  // --- Identity and configuration. ---
  void SetConfig(std::string_view key, JsonValue value);
  void SetDataset(uint64_t records, uint64_t fields);

  // --- Results. ---
  // A pass's scan time is written as "scan_busy_seconds": the summed
  // busy time of its fragment scans, which overlap other passes' scans.
  void AddPass(const PassResult& pass);

  // Serializes every pass plus closure stats, the distinct-pair union and
  // "run_wall_seconds", the whole run's wall time.
  void SetMultiPass(const MultiPassResult& result);

  void SetOutcome(bool ok, std::string_view detail = "");

  // Copies the registry's current state into the report. Call after the
  // pipeline finishes; the last capture wins.
  void CaptureMetrics();

  // Top-level document:
  //   {"tool", "schema_version", "config", "dataset", "passes",
  //    "closure", "outcome", "counters", "gauges", "histograms"}
  JsonValue ToJson() const;

  // ToJson() pretty-printed to `path`.
  Status WriteToFile(const std::string& path) const;

 private:
  std::string tool_;
  MetricsRegistry* registry_;
  JsonValue config_;
  JsonValue dataset_;
  JsonValue passes_;
  JsonValue closure_;
  JsonValue outcome_;
  MetricsSnapshot metrics_;
  bool metrics_captured_ = false;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_OBS_RUN_REPORT_H_

#include "obs/run_report.h"

#include <fstream>

#include "core/multipass.h"
#include "util/string_util.h"

namespace mergepurge {

RunReport::RunReport(std::string tool, MetricsRegistry* registry)
    : tool_(std::move(tool)),
      registry_(registry),
      config_(JsonValue::Object()),
      dataset_(JsonValue::Object()),
      passes_(JsonValue::Array()),
      closure_(JsonValue::Object()),
      outcome_(JsonValue::Object()) {}

void RunReport::SetConfig(std::string_view key, JsonValue value) {
  config_.Set(std::string(key), std::move(value));
}

void RunReport::SetDataset(uint64_t records, uint64_t fields) {
  dataset_.Set("records", JsonValue(records));
  dataset_.Set("fields", JsonValue(fields));
}

void RunReport::AddPass(const PassResult& pass) {
  JsonValue p = JsonValue::Object();
  p.Set("key", JsonValue(pass.key_name));
  p.Set("pairs", JsonValue(static_cast<uint64_t>(pass.pairs.size())));
  p.Set("windows", JsonValue(pass.windows));
  p.Set("comparisons", JsonValue(pass.comparisons));
  p.Set("matches", JsonValue(pass.matches));
  p.Set("create_keys_seconds", JsonValue(pass.create_keys_seconds));
  p.Set("sort_seconds", JsonValue(pass.sort_seconds));
  p.Set("cluster_seconds", JsonValue(pass.cluster_seconds));
  p.Set("scan_busy_seconds", JsonValue(pass.scan_seconds));
  p.Set("total_seconds", JsonValue(pass.total_seconds));
  p.Set("resumed", JsonValue(pass.resumed));
  passes_.Append(std::move(p));
}

void RunReport::SetMultiPass(const MultiPassResult& result) {
  passes_ = JsonValue::Array();
  for (const PassResult& pass : result.passes) AddPass(pass);
  closure_.Set("union_pairs", JsonValue(result.union_pair_count));
  closure_.Set("closure_seconds", JsonValue(result.closure_seconds));
  closure_.Set("run_wall_seconds", JsonValue(result.total_seconds));
  closure_.Set("passes_resumed",
               JsonValue(static_cast<uint64_t>(result.passes_resumed)));
}

void RunReport::SetOutcome(bool ok, std::string_view detail) {
  outcome_.Set("ok", JsonValue(ok));
  if (!detail.empty()) outcome_.Set("detail", JsonValue(detail));
}

void RunReport::CaptureMetrics() {
  metrics_ = registry_->Snapshot();
  metrics_captured_ = true;
}

JsonValue RunReport::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("tool", JsonValue(tool_));
  out.Set("schema_version", JsonValue(3));
  out.Set("config", config_);
  out.Set("dataset", dataset_);
  out.Set("passes", passes_);
  out.Set("closure", closure_);
  out.Set("outcome", outcome_);
  // A report without an explicit CaptureMetrics() still carries the
  // registry's current state.
  JsonValue metrics =
      metrics_captured_ ? metrics_.ToJson() : registry_->Snapshot().ToJson();
  for (auto& [key, value] : metrics.members()) {
    out.Set(key, value);
  }
  return out;
}

Status RunReport::WriteToFile(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return Status::IoError(
        StringPrintf("cannot open report output '%s'", path.c_str()));
  }
  file << ToJson().Dump(/*indent=*/1) << '\n';
  if (!file.good()) {
    return Status::IoError(
        StringPrintf("failed writing report output '%s'", path.c_str()));
  }
  return Status::OK();
}

}  // namespace mergepurge

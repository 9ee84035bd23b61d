#include "util/fault_injector.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace mergepurge {

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(const std::string& point, FaultSchedule schedule) {
  MutexLock lock(mu_);
  PointState state;
  state.schedule = schedule;
  points_[point] = state;
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Reset() {
  MutexLock lock(mu_);
  points_.clear();
  armed_.store(false, std::memory_order_release);
  faults_injected_.store(0, std::memory_order_relaxed);
}

Status FaultInjector::OnPoint(const char* point) {
  // Fast path: nothing armed anywhere.
  if (!armed_.load(std::memory_order_acquire)) return Status::OK();

  Status verdict = Status::OK();
  {
    MutexLock lock(mu_);
    auto it = points_.find(point);
    if (it == points_.end()) return Status::OK();
    PointState& state = it->second;
    ++state.hits;
    if (state.hits <= state.schedule.skip ||
        state.failures_delivered >= state.schedule.count) {
      return Status::OK();
    }
    ++state.failures_delivered;
    verdict = Status::InjectedFault(StringPrintf(
        "%s: injected failure %llu/%llu", point,
        static_cast<unsigned long long>(state.failures_delivered),
        static_cast<unsigned long long>(state.schedule.count)));
  }
  faults_injected_.fetch_add(1, std::memory_order_relaxed);
  static Counter* const tripped =
      MetricsRegistry::Global().GetCounter(metric_names::kFaultsTripped);
  tripped->Increment();
  return verdict;
}

uint64_t FaultInjector::HitCount(const std::string& point) const {
  MutexLock lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

}  // namespace mergepurge

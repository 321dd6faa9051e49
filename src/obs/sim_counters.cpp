#include "obs/sim_counters.hpp"

namespace hetsched {

SimCounters::SimCounters(MetricsRegistry& metrics, const std::string& prefix)
    : dispatches_(&metrics.counter(prefix + "dispatches")),
      slices_(&metrics.counter(prefix + "slices")),
      completed_slices_(&metrics.counter(prefix + "completed_slices")),
      preempted_slices_(&metrics.counter(prefix + "preempted_slices")),
      preemptions_(&metrics.counter(prefix + "preemptions")),
      reconfig_attempts_(&metrics.counter(prefix + "reconfig_attempts")),
      reconfig_failures_(&metrics.counter(prefix + "reconfig_failures")),
      idle_intervals_(&metrics.counter(prefix + "idle_intervals")),
      idle_cycles_(&metrics.counter(prefix + "idle_cycles")),
      faults_(&metrics.counter(prefix + "faults")),
      watchdog_fires_(&metrics.counter(prefix + "watchdog_fires")),
      dropped_trace_events_(
          &metrics.counter(prefix + "dropped_trace_events")),
      slice_cycles_(
          &metrics.histogram(prefix + "slice_cycles", 0.0, 1e6, 20)) {}

void SimCounters::on_slice(const ScheduledSlice& slice) {
  slices_->add();
  (slice.completed ? completed_slices_ : preempted_slices_)->add();
  slice_cycles_->record(static_cast<double>(slice.end - slice.start));
}

void SimCounters::on_fault(const FaultRecord& record) {
  faults_->add();
  if (record.kind == FaultRecord::Kind::kWatchdogFire) {
    watchdog_fires_->add();
  }
}

void SimCounters::on_dispatch(const DispatchEvent&) { dispatches_->add(); }

void SimCounters::on_reconfig(const ReconfigEvent& event) {
  reconfig_attempts_->add();
  if (!event.success) reconfig_failures_->add();
}

void SimCounters::on_idle(const IdleEvent& event) {
  idle_intervals_->add();
  idle_cycles_->add(event.to - event.from);
}

void SimCounters::on_preempt(const PreemptEvent&) { preemptions_->add(); }

}  // namespace hetsched

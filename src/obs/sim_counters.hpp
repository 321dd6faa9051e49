// Simulator event counters: the `<prefix>dispatches`, slice, preemption,
// reconfiguration, idle, fault and watchdog counters plus the
// slice-duration histogram, maintained straight from the observer
// callbacks. This is all `--metrics-out` asks of a run, so it retains
// nothing: its cost is a few counter increments per event, whatever the
// run length. EventTracer embeds one when it is given a registry.
#pragma once

#include <string>

#include "core/schedule_log.hpp"
#include "obs/metrics.hpp"

namespace hetsched {

class SimCounters final : public ScheduleObserver {
 public:
  // Registers every counter and the histogram under `prefix` up front,
  // so registration order is the construction order.
  explicit SimCounters(MetricsRegistry& metrics,
                       const std::string& prefix = "sim.");

  void on_slice(const ScheduledSlice& slice) override;
  void on_fault(const FaultRecord& record) override;
  void on_dispatch(const DispatchEvent& event) override;
  void on_reconfig(const ReconfigEvent& event) override;
  void on_idle(const IdleEvent& event) override;
  void on_preempt(const PreemptEvent& event) override;

  // Counts one event a retaining tracer dropped at its cap
  // (`<prefix>dropped_trace_events`; stays 0 without a tracer).
  void count_dropped_trace_event() { dropped_trace_events_->add(); }

 private:
  Counter* dispatches_;
  Counter* slices_;
  Counter* completed_slices_;
  Counter* preempted_slices_;
  Counter* preemptions_;
  Counter* reconfig_attempts_;
  Counter* reconfig_failures_;
  Counter* idle_intervals_;
  Counter* idle_cycles_;
  Counter* faults_;
  Counter* watchdog_fires_;
  Counter* dropped_trace_events_;
  FixedHistogram* slice_cycles_;
};

}  // namespace hetsched

// Structured event tracer: records every simulator emit point (slices,
// dispatches, preemptions, reconfiguration attempts, idle intervals,
// faults) plus runtime events (thread-pool job spans, profile-cache
// hits/misses) and exports them as Chrome trace-event / Perfetto
// compatible JSON.
//
// Determinism: every timestamp is SimTime (or a logical tick for
// runtime events) — never wall clock — and events are appended in
// simulation event order on the single simulation thread, so the
// exported trace is byte-identical across runs and HETSCHED_THREADS
// values. In the exported JSON one trace "microsecond" is one simulated
// cycle; tid is the core index.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/schedule_log.hpp"
#include "obs/metrics.hpp"
#include "obs/sim_counters.hpp"

namespace hetsched {

struct TraceEvent {
  // 'X' = complete (duration) event, 'i' = instant event, 'b'/'e' =
  // async span begin/end (a job's lifecycle bar; paired by `id`).
  char phase = 'X';
  std::string name;
  SimTime ts = 0;
  SimTime dur = 0;  // phase 'X' only
  std::uint32_t tid = 0;
  // Rendered into the event's "args" object; values are emitted as JSON
  // strings (escaped), keys in the given order.
  std::vector<std::pair<std::string, std::string>> args;
  // Async pairing id ('b'/'e' only); rendered with a "cat" so Chrome /
  // Perfetto match begin to end on (cat, id, name).
  std::uint64_t id = 0;
};

// A ScheduleObserver that retains the full event stream. When a
// MetricsRegistry is attached, the tracer also maintains the SimCounters
// under `prefix` (registered at construction, so registration order is
// the tracer construction order). A run that only wants the counters
// should attach a SimCounters instead: it retains nothing.
class EventTracer final : public ScheduleObserver {
 public:
  explicit EventTracer(MetricsRegistry* metrics = nullptr,
                       const std::string& prefix = "sim.");

  void on_slice(const ScheduledSlice& slice) override;
  void on_fault(const FaultRecord& record) override;
  void on_arrival(const ArrivalEvent& event) override;
  void on_dispatch(const DispatchEvent& event) override;
  void on_reconfig(const ReconfigEvent& event) override;
  void on_idle(const IdleEvent& event) override;
  void on_preempt(const PreemptEvent& event) override;

  // Direct appends for non-simulator tracks (pool spans, cache events).
  void add_span(std::string name, SimTime ts, SimTime dur,
                std::uint32_t tid,
                std::vector<std::pair<std::string, std::string>> args = {});
  void add_instant(std::string name, SimTime ts, std::uint32_t tid,
                   std::vector<std::pair<std::string, std::string>> args =
                       {});

  const std::vector<TraceEvent>& events() const { return events_; }

  // Retention cap: at most `max` events are kept (0 = unlimited); the
  // default bounds a million-job streaming trace. Once full, the
  // retained stream is the run's prefix — later events are counted in
  // dropped_events() (and the `dropped_trace_events` metric) but not
  // stored. Metric counters keep updating for dropped events, so the
  // registry totals stay exact.
  void set_max_events(std::size_t max) { max_events_ = max; }
  std::size_t max_events() const { return max_events_; }
  std::uint64_t dropped_events() const { return dropped_events_; }

  // Job lifecycle spans: when enabled, each arrival opens an async 'b'
  // event and the retiring slice closes it with an 'e', so every job's
  // life (admission to retirement) renders as one bar on an async track
  // in the trace UI. Off by default: the span events roughly double the
  // event volume and older byte-identity baselines predate them.
  void set_job_spans(bool on) { job_spans_ = on; }
  bool job_spans() const { return job_spans_; }

  static constexpr std::size_t kDefaultMaxEvents = 1'000'000;

 private:
  // False (and counts a drop) when the retention cap is exhausted.
  bool retain();

  std::vector<TraceEvent> events_;
  std::size_t max_events_ = kDefaultMaxEvents;
  std::uint64_t dropped_events_ = 0;
  bool job_spans_ = false;
  std::optional<SimCounters> counters_;  // with a registry only
};

// Renders one or more tracers as a single Chrome trace-event JSON
// document: process i gets pid = i and a process_name metadata record,
// events keep their append order. Byte-identical output for identical
// event streams.
void write_chrome_trace(
    std::ostream& out,
    std::span<const std::pair<std::string, const EventTracer*>> processes);

}  // namespace hetsched

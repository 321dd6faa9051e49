#include "obs/event_trace.hpp"

#include <ostream>

namespace hetsched {
namespace {

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

EventTracer::EventTracer(MetricsRegistry* metrics,
                         const std::string& prefix) {
  if (metrics != nullptr) counters_.emplace(*metrics, prefix);
}

bool EventTracer::retain() {
  if (max_events_ != 0 && events_.size() >= max_events_) {
    ++dropped_events_;
    if (counters_.has_value()) counters_->count_dropped_trace_event();
    return false;
  }
  return true;
}

void EventTracer::on_slice(const ScheduledSlice& slice) {
  if (retain()) {
    events_.push_back(TraceEvent{
        'X', std::string("exec:") + std::string(to_string(slice.kind)),
        slice.start, slice.end - slice.start,
        static_cast<std::uint32_t>(slice.core),
        {{"job", u64(slice.job_id)},
         {"benchmark", u64(slice.benchmark_id)},
         {"config", slice.config.name()},
         {"completed", slice.completed ? "1" : "0"}}});
  }
  // The retiring slice closes the job's async lifecycle span.
  if (job_spans_ && slice.completed && retain()) {
    events_.push_back(TraceEvent{'e', "job", slice.end, 0,
                                 static_cast<std::uint32_t>(slice.core),
                                 {},
                                 slice.job_id});
  }
  if (counters_.has_value()) counters_->on_slice(slice);
}

void EventTracer::on_fault(const FaultRecord& record) {
  if (retain()) {
    events_.push_back(TraceEvent{
        'i', std::string("fault:") + std::string(to_string(record.kind)),
        record.time, 0, static_cast<std::uint32_t>(record.core),
        {{"job", u64(record.job_id)}}});
  }
  if (counters_.has_value()) counters_->on_fault(record);
}

void EventTracer::on_arrival(const ArrivalEvent& event) {
  // Arrivals only materialise in the trace as span-begin events; the
  // disabled path stays byte-identical to pre-span traces (and burns no
  // retention budget).
  if (!job_spans_) return;
  if (!retain()) return;
  events_.push_back(TraceEvent{'b', "job", event.time, 0, 0,
                               {{"benchmark", u64(event.benchmark_id)},
                                {"priority", std::to_string(event.priority)},
                                {"cp_rank", std::to_string(event.cp_rank)}},
                               event.job_id});
}

void EventTracer::on_dispatch(const DispatchEvent& event) {
  if (retain()) {
    events_.push_back(TraceEvent{
        'i', "dispatch", event.time, 0,
        static_cast<std::uint32_t>(event.core),
        {{"job", u64(event.job_id)},
         {"benchmark", u64(event.benchmark_id)},
         {"kind", std::string(to_string(event.kind))},
         {"backoff", u64(event.backoff)},
         {"duration", u64(event.duration)},
         {"hung", event.hung ? "1" : "0"}}});
  }
  if (counters_.has_value()) counters_->on_dispatch(event);
}

void EventTracer::on_reconfig(const ReconfigEvent& event) {
  if (retain()) {
    events_.push_back(TraceEvent{
        'i', event.success ? "reconfig" : "reconfig-retry", event.time, 0,
        static_cast<std::uint32_t>(event.core),
        {{"job", u64(event.job_id)},
         {"attempt", std::to_string(event.attempt)},
         {"success", event.success ? "1" : "0"},
         {"backoff_wait", u64(event.backoff_wait)}}});
  }
  if (counters_.has_value()) counters_->on_reconfig(event);
}

void EventTracer::on_idle(const IdleEvent& event) {
  if (retain()) {
    events_.push_back(TraceEvent{'X', "idle", event.from,
                                 event.to - event.from,
                                 static_cast<std::uint32_t>(event.core),
                                 {}});
  }
  if (counters_.has_value()) counters_->on_idle(event);
}

void EventTracer::on_preempt(const PreemptEvent& event) {
  if (retain()) {
    events_.push_back(TraceEvent{
        'i', "preempt", event.time, 0,
        static_cast<std::uint32_t>(event.core),
        {{"job", u64(event.job_id)},
         {"was_hung", event.was_hung ? "1" : "0"}}});
  }
  if (counters_.has_value()) counters_->on_preempt(event);
}

void EventTracer::add_span(
    std::string name, SimTime ts, SimTime dur, std::uint32_t tid,
    std::vector<std::pair<std::string, std::string>> args) {
  if (!retain()) return;
  events_.push_back(
      TraceEvent{'X', std::move(name), ts, dur, tid, std::move(args)});
}

void EventTracer::add_instant(
    std::string name, SimTime ts, std::uint32_t tid,
    std::vector<std::pair<std::string, std::string>> args) {
  if (!retain()) return;
  events_.push_back(
      TraceEvent{'i', std::move(name), ts, 0, tid, std::move(args)});
}

void write_chrome_trace(
    std::ostream& out,
    std::span<const std::pair<std::string, const EventTracer*>> processes) {
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  for (std::size_t pid = 0; pid < processes.size(); ++pid) {
    sep();
    out << R"({"name":"process_name","ph":"M","pid":)" << pid
        << R"(,"tid":0,"args":{"name":")"
        << json_escape(processes[pid].first) << "\"}}";
    for (const TraceEvent& event : processes[pid].second->events()) {
      sep();
      out << "{\"name\":\"" << json_escape(event.name) << "\",\"ph\":\""
          << event.phase << "\",\"pid\":" << pid
          << ",\"tid\":" << event.tid << ",\"ts\":" << event.ts;
      if (event.phase == 'X') out << ",\"dur\":" << event.dur;
      // Async begin/end events need a category and an id so viewers can
      // pair them into one bar on an async track.
      if (event.phase == 'b' || event.phase == 'e') {
        out << ",\"cat\":\"" << json_escape(event.name)
            << "\",\"id\":" << event.id;
      }
      if (!event.args.empty()) {
        out << ",\"args\":{";
        for (std::size_t a = 0; a < event.args.size(); ++a) {
          out << (a == 0 ? "" : ",") << "\""
              << json_escape(event.args[a].first) << "\":\""
              << json_escape(event.args[a].second) << "\"";
        }
        out << "}";
      }
      out << "}";
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace hetsched

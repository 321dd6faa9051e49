#include "scenario/stream_stats.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/snapshot_text.hpp"

namespace hetsched {
namespace {

// Event-type tags, the low byte of every event's header word, so
// identical field values under different event kinds cannot alias.
enum : std::uint64_t {
  kTagSlice = 1,
  kTagFault,
  kTagDispatch,
  kTagReconfig,
  kTagIdle,
  kTagPreempt,
};

// The header word of one event: its tag, then its enum field (bits
// 8-15) and its bool field (bit 16). Every enum here has fewer than 256
// values, so the packing is injective.
template <typename Kind = int>
constexpr std::uint64_t header(std::uint64_t tag, Kind kind = {},
                               bool flag = false) {
  return tag | (static_cast<std::uint64_t>(kind) << 8) |
         (static_cast<std::uint64_t>(flag) << 16);
}

// Stream digest v2: one multiply and one xor-shift per 64-bit word. Each
// step is a bijection of the state for a fixed word, so two streams that
// differ in exactly one word never collide.
template <typename... Words>
constexpr std::uint64_t fold(std::uint64_t state, Words... words) {
  ((state = (state ^ static_cast<std::uint64_t>(words)) * kFnv1aPrime,
    state ^= state >> 32),
   ...);
  return state;
}

}  // namespace

void StreamStats::on_slice(const ScheduledSlice& slice) {
  digest_ = fold(digest_, header(kTagSlice, slice.kind, slice.completed),
                 slice.job_id, slice.benchmark_id, slice.core, slice.start,
                 slice.end, slice.config.size_bytes,
                 slice.config.associativity, slice.config.line_bytes);

  ++slices_;
  if (slice.core >= per_core_.size() || slice.end <= slice.start) {
    ++invariant_violations_;
    return;
  }
  CoreAggregate& core = per_core_[slice.core];
  // Slices arrive in completion order, which on one core is also start
  // order; an overlap with the previous slice on the same core means two
  // jobs shared the core.
  if (core.slices > 0 && slice.start < core.last_slice_end) {
    ++invariant_violations_;
  }
  core.last_slice_end = slice.end;
  ++core.slices;
  core.busy_cycles += slice.end - slice.start;
  busy_cycles_ += slice.end - slice.start;
  longest_slice_ = std::max<Cycles>(longest_slice_, slice.end - slice.start);
  if (slice.completed) {
    ++completed_slices_;
    ++core.completed_slices;
  }
}

void StreamStats::on_fault(const FaultRecord& record) {
  digest_ = fold(digest_, header(kTagFault, record.kind), record.time,
                 record.core, record.job_id);
  ++faults_;
}

void StreamStats::on_dispatch(const DispatchEvent& event) {
  digest_ = fold(digest_, header(kTagDispatch, event.kind, event.hung),
                 event.time, event.core, event.job_id, event.benchmark_id,
                 event.backoff, event.duration);
  ++dispatches_;
}

void StreamStats::on_reconfig(const ReconfigEvent& event) {
  digest_ = fold(digest_, header(kTagReconfig, 0, event.success), event.time,
                 event.core, event.job_id, event.attempt, event.backoff_wait);
  ++reconfig_attempts_;
  if (!event.success) ++reconfig_failures_;
}

void StreamStats::on_idle(const IdleEvent& event) {
  digest_ = fold(digest_, header(kTagIdle), event.core, event.from, event.to);
  ++idle_intervals_;
  if (event.core < per_core_.size() && event.to > event.from) {
    per_core_[event.core].idle_cycles += event.to - event.from;
    idle_cycles_ += event.to - event.from;
  }
}

void StreamStats::on_dag_release(const DagReleaseEvent& event) {
  // No digest fold — see the header: keeps DAG streaming digests
  // comparable to batch replays, which observe no release events.
  (void)event;
  ++dag_releases_;
}

void StreamStats::on_preempt(const PreemptEvent& event) {
  digest_ = fold(digest_, header(kTagPreempt, 0, event.was_hung), event.time,
                 event.core, event.job_id);
  ++preemptions_;
}

void StreamStats::save_state(std::ostream& out) const {
  out << "stream-stats " << per_core_.size() << "\n"
      << "totals " << slices_ << ' ' << completed_slices_ << ' '
      << busy_cycles_ << ' ' << idle_cycles_ << ' ' << longest_slice_ << ' '
      << dispatches_ << ' ' << preemptions_ << ' ' << idle_intervals_ << ' '
      << reconfig_attempts_ << ' ' << reconfig_failures_ << ' ' << faults_
      << ' ' << invariant_violations_ << ' ' << dag_releases_ << "\n";
  for (const CoreAggregate& core : per_core_) {
    out << core.slices << ' ' << core.completed_slices << ' '
        << core.busy_cycles << ' ' << core.idle_cycles << ' '
        << core.last_slice_end << "\n";
  }
  out << "digest " << digest_ << "\n";
}

void StreamStats::restore_state(std::istream& in,
                                const std::string& context) {
  namespace st = snapshot_text;
  std::string token;
  if (!(in >> token) || token != "stream-stats") {
    st::fail(context, "expected 'stream-stats'");
  }
  if (st::read_value<std::size_t>(in, "core count", context) !=
      per_core_.size()) {
    st::fail(context, "stream-stats core count does not match");
  }
  if (!(in >> token) || token != "totals") {
    st::fail(context, "expected 'totals'");
  }
  for (std::uint64_t* field :
       {&slices_, &completed_slices_, &busy_cycles_, &idle_cycles_,
        &longest_slice_, &dispatches_, &preemptions_, &idle_intervals_,
        &reconfig_attempts_, &reconfig_failures_, &faults_,
        &invariant_violations_, &dag_releases_}) {
    *field = st::read_value<std::uint64_t>(in, "stream total", context);
  }
  for (CoreAggregate& core : per_core_) {
    core.slices = st::read_value<std::uint64_t>(in, "core slices", context);
    core.completed_slices =
        st::read_value<std::uint64_t>(in, "core completed", context);
    core.busy_cycles = st::read_value<Cycles>(in, "core busy", context);
    core.idle_cycles = st::read_value<Cycles>(in, "core idle", context);
    core.last_slice_end =
        st::read_value<SimTime>(in, "core last slice end", context);
  }
  if (!(in >> token) || token != "digest") {
    st::fail(context, "expected 'digest'");
  }
  digest_ = st::read_value<std::uint64_t>(in, "stream digest", context);
}

}  // namespace hetsched

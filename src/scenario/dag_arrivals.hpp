// DAG workloads: precedence-constrained job graphs over a generated
// arrival stream (ROADMAP item 4; cf. Mack et al., arXiv 2112.08980).
// Jobs are the arrival-stream indices 0..count-1; a `dep A B` edge means
// job A must retire before job B becomes eligible. Roots keep their
// generated arrival time; a successor is released at
//   max(generated arrival, last predecessor's retirement cycle)
// so the frontier advances the cycle the final dependency completes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "core/schedule_log.hpp"
#include "workload/arrivals.hpp"

namespace hetsched {

// One precedence edge: `from` must complete before `to` may start.
struct DagEdge {
  std::size_t from = 0;
  std::size_t to = 0;
};

// The dependency structure of a scenario's job graph. Jobs without
// edges are independent; an empty spec reproduces the plain streaming
// workload exactly.
struct DagSpec {
  std::vector<DagEdge> edges;

  bool empty() const { return edges.empty(); }

  // First structural problem with the edge set over `node_count` jobs,
  // or nullopt if the graph is a well-formed DAG. `edge_index` names the
  // offending edge (for cycles: some edge on a cycle) so callers can
  // attribute the error to a source line. Rejects out-of-range
  // endpoints, self edges (a duplicated job id within one edge),
  // duplicate edges and cycles.
  struct Issue {
    std::size_t edge_index = 0;
    std::string what;
  };
  std::optional<Issue> validate(std::size_t node_count) const;

  // Unit-weight longest-path-to-sink rank per node: 0 for sinks and
  // independent jobs, 1 + max over successors otherwise. The critical
  // path length (in edges) is the maximum entry. Requires validate() to
  // have passed.
  std::vector<std::uint32_t> ranks(std::size_t node_count) const;
};

// Largest job count a scenario with dep edges may declare. A DAG source
// materialises every job up front: constructing one peaks at 144 heap
// bytes per job (node record, successor list, rank and topological-order
// scratch; measured at 100k-400k jobs with one edge, g++ 12, x86-64), so
// this bound caps a DAG run near 2.4 GB instead of letting a huge `jobs`
// line end in std::bad_alloc. Independent-job scenarios stream and are
// not bounded.
inline constexpr std::size_t kMaxDagJobs = std::size_t{1} << 24;

// Cumulative DAG release accounting, surfaced in RunReport's "dag"
// section. `releases` counts dependent (non-root) releases only; roots
// are ordinary generated arrivals.
struct DagStats {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t releases = 0;
  std::uint64_t ready_peak = 0;      // eligible-set high-water mark
  std::uint32_t max_rank = 0;        // critical path length in edges
  Cycles release_latency_total = 0;  // sum of release - nominal arrival
  std::uint64_t cp_slack_total = 0;  // sum of max_rank - rank at release
};

// Release-on-completion arrival source: materialises the generated
// arrival stream (bit-identical draws to GeneratedArrivalStream for the
// same options/seed/realtime setup), then feeds the simulator only the
// eligible frontier. Implements ScheduleObserver so completion slices
// from the very simulator it feeds release successors; the simulator's
// lookahead re-polls via the lookahead_stale()/unget() protocol.
// Deliberately O(nodes) memory — DAG scenarios trade the O(1) streaming
// footprint for precedence structure.
class DagArrivalSource final : public ArrivalSource,
                               public ScheduleObserver {
 public:
  // Mirrors GeneratedArrivalStream::set_realtime, taken up front because
  // the constructor performs every arrival draw.
  struct RealtimeSetup {
    std::vector<Cycles> reference_cycles_by_benchmark;
    RealtimeOptions options;
    std::uint64_t seed = 0;
  };

  // `spec` must validate against options.count nodes (checked).
  DagArrivalSource(const DagSpec& spec,
                   std::vector<std::size_t> benchmark_ids,
                   const ArrivalOptions& options, std::uint64_t seed,
                   const std::optional<RealtimeSetup>& realtime);

  // Release events (ready depth, latency, slack) are reported here;
  // null disables reporting. Not part of the arrival stream itself.
  void set_release_observer(ScheduleObserver* observer) {
    release_observer_ = observer;
  }

  // ArrivalSource: emits eligible nodes in (release time, node index)
  // order. Admission order therefore equals emission order, which is how
  // simulator job ids map back to node indices.
  std::optional<JobArrival> next() override;
  bool lookahead_stale() const override { return stale_; }
  void unget(const JobArrival& arrival) override;

  // ScheduleObserver: completed slices retire nodes and release
  // successors. Preempted fragments and watchdog expiries release
  // nothing — only a real retirement satisfies a dependency.
  void on_slice(const ScheduledSlice& slice) override;

  const DagStats& stats() const { return stats_; }

  // Node index of the k-th emitted arrival (== simulator job id k).
  const std::vector<std::size_t>& emission_order() const {
    return emission_log_;
  }

  // The realized arrival sequence so far, suitable for batch replay
  // through MulticoreSimulator::run: sorted by construction, cp_rank
  // attached. Complete once the stream is drained.
  std::vector<JobArrival> realized() const;

  // Checkpoint support: per-node frontier state (in-degrees, release
  // flags/times), the eligible heap in canonical sorted order, the
  // emission log, the stale flag and cumulative stats. Graph structure
  // and ranks are derived from the scenario at reconstruction and only
  // verified by count here. Same contract as GeneratedArrivalStream:
  // construct identically, then restore before the next next().
  void save_state(std::ostream& out) const;
  void restore_state(std::istream& in, const std::string& context);

 private:
  struct Node {
    JobArrival base;  // nominal generated arrival, cp_rank filled in
    std::uint32_t preds_remaining = 0;
    bool released = false;
    SimTime release_time = 0;
    std::vector<std::size_t> successors;
  };

  using HeapEntry = std::pair<SimTime, std::size_t>;  // (release, node)

  void release_node(std::size_t node, SimTime completion_time);

  std::vector<Node> nodes_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      eligible_;
  std::vector<std::size_t> emission_log_;
  bool stale_ = false;
  DagStats stats_;
  ScheduleObserver* release_observer_ = nullptr;
};

}  // namespace hetsched

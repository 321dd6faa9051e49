#include "scenario/dag_arrivals.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/contracts.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {

namespace {

namespace st = snapshot_text;

// Kahn's algorithm over the edge list, successors in CSR form (edge
// order per node); returns the pop order (empty slots absent — size <
// node_count exactly when the graph has a cycle).
std::vector<std::size_t> topological_order(const std::vector<DagEdge>& edges,
                                           std::size_t node_count) {
  std::vector<std::size_t> indegree(node_count, 0);
  std::vector<std::size_t> first(node_count + 1, 0);
  for (const DagEdge& e : edges) {
    ++indegree[e.to];
    ++first[e.from + 1];
  }
  for (std::size_t v = 0; v < node_count; ++v) first[v + 1] += first[v];
  std::vector<std::size_t> successors(edges.size());
  std::vector<std::size_t> next(first.begin(), first.end() - 1);
  for (const DagEdge& e : edges) successors[next[e.from]++] = e.to;

  std::vector<std::size_t> order;
  order.reserve(node_count);
  for (std::size_t v = 0; v < node_count; ++v) {
    if (indegree[v] == 0) order.push_back(v);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::size_t v = order[head];
    for (std::size_t k = first[v]; k < first[v + 1]; ++k) {
      if (--indegree[successors[k]] == 0) order.push_back(successors[k]);
    }
  }
  return order;
}

}  // namespace

std::optional<DagSpec::Issue> DagSpec::validate(
    std::size_t node_count) const {
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const DagEdge& e = edges[i];
    if (e.from >= node_count || e.to >= node_count) {
      return Issue{i, "dep job id out of range (jobs 0.." +
                          std::to_string(node_count == 0 ? 0
                                                         : node_count - 1) +
                          ")"};
    }
    if (e.from == e.to) {
      return Issue{i, "dep repeats job " + std::to_string(e.from) +
                          " (self dependency)"};
    }
  }
  // Duplicate edges: sort (from, to, first index) and compare adjacent.
  std::vector<std::size_t> by_pair(edges.size());
  for (std::size_t i = 0; i < by_pair.size(); ++i) by_pair[i] = i;
  std::sort(by_pair.begin(), by_pair.end(),
            [this](std::size_t a, std::size_t b) {
              const DagEdge& ea = edges[a];
              const DagEdge& eb = edges[b];
              if (ea.from != eb.from) return ea.from < eb.from;
              if (ea.to != eb.to) return ea.to < eb.to;
              return a < b;
            });
  for (std::size_t k = 1; k < by_pair.size(); ++k) {
    const DagEdge& a = edges[by_pair[k - 1]];
    const DagEdge& b = edges[by_pair[k]];
    if (a.from == b.from && a.to == b.to) {
      return Issue{std::max(by_pair[k - 1], by_pair[k]),
                   "duplicate dep " + std::to_string(a.from) + " -> " +
                       std::to_string(a.to)};
    }
  }
  // Cycle check over the nodes that carry an edge. Jobs without edges
  // cannot close a cycle, so when they are most of the jobs the
  // endpoints are renumbered densely first: zero edges cost nothing and
  // a few edges among a million jobs cost O(edges). A denser graph is
  // indexed by job id, which is then O(edges) already.
  const std::vector<DagEdge>* graph = &edges;
  std::size_t graph_nodes = node_count;
  std::vector<DagEdge> dense_edges;
  if (node_count > 2 * edges.size()) {
    std::vector<std::size_t> nodes;  // dense id -> job id
    nodes.reserve(2 * edges.size());
    for (const DagEdge& e : edges) {
      nodes.push_back(e.from);
      nodes.push_back(e.to);
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    const auto dense = [&nodes](std::size_t v) {
      return static_cast<std::size_t>(
          std::lower_bound(nodes.begin(), nodes.end(), v) - nodes.begin());
    };
    dense_edges.reserve(edges.size());
    for (const DagEdge& e : edges) {
      dense_edges.push_back({dense(e.from), dense(e.to)});
    }
    graph = &dense_edges;
    graph_nodes = nodes.size();
  }
  const std::vector<std::size_t> order =
      topological_order(*graph, graph_nodes);
  if (order.size() < graph_nodes) {
    std::vector<char> popped(graph_nodes, 0);
    for (const std::size_t v : order) popped[v] = 1;
    for (std::size_t i = 0; i < graph->size(); ++i) {
      if (!popped[(*graph)[i].from] && !popped[(*graph)[i].to]) {
        return Issue{i, "dep edges form a cycle through job " +
                            std::to_string(edges[i].from)};
      }
    }
    HETSCHED_ASSERT(false && "cyclic graph without a residual edge");
  }
  return std::nullopt;
}

std::vector<std::uint32_t> DagSpec::ranks(std::size_t node_count) const {
  std::vector<std::vector<std::size_t>> successors(node_count);
  for (const DagEdge& e : edges) successors[e.from].push_back(e.to);
  const std::vector<std::size_t> order =
      topological_order(edges, node_count);
  HETSCHED_REQUIRE(order.size() == node_count && "ranks on a cyclic graph");
  std::vector<std::uint32_t> rank(node_count, 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t v = *it;
    for (const std::size_t s : successors[v]) {
      rank[v] = std::max(rank[v], rank[s] + 1);
    }
  }
  return rank;
}

DagArrivalSource::DagArrivalSource(
    const DagSpec& spec, std::vector<std::size_t> benchmark_ids,
    const ArrivalOptions& options, std::uint64_t seed,
    const std::optional<RealtimeSetup>& realtime) {
  const auto issue = spec.validate(options.count);
  HETSCHED_REQUIRE(!issue.has_value() && "DagSpec must validate");

  // Same draws as the plain streaming source: a DAG scenario's nominal
  // arrivals are bit-identical to the independent-job scenario's.
  GeneratedArrivalStream generator(std::move(benchmark_ids), options, seed);
  if (realtime.has_value()) {
    generator.set_realtime(realtime->reference_cycles_by_benchmark,
                           realtime->options, realtime->seed);
  }
  nodes_.resize(options.count);
  for (Node& node : nodes_) {
    const std::optional<JobArrival> arrival = generator.next();
    HETSCHED_ASSERT(arrival.has_value());
    node.base = *arrival;
  }

  const std::vector<std::uint32_t> rank = spec.ranks(nodes_.size());
  stats_.nodes = nodes_.size();
  stats_.edges = spec.edges.size();
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    nodes_[v].base.cp_rank = rank[v];
    stats_.max_rank = std::max(stats_.max_rank, rank[v]);
  }
  for (const DagEdge& e : spec.edges) {
    nodes_[e.from].successors.push_back(e.to);
    ++nodes_[e.to].preds_remaining;
  }
  // Roots enter the frontier at their generated arrival time.
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    if (nodes_[v].preds_remaining == 0) {
      nodes_[v].released = true;
      nodes_[v].release_time = nodes_[v].base.arrival;
      eligible_.push({nodes_[v].release_time, v});
      stats_.ready_peak = std::max<std::uint64_t>(stats_.ready_peak,
                                                  eligible_.size());
    }
  }
}

std::optional<JobArrival> DagArrivalSource::next() {
  stale_ = false;
  if (eligible_.empty()) return std::nullopt;
  const auto [release, node] = eligible_.top();
  eligible_.pop();
  emission_log_.push_back(node);
  JobArrival arrival = nodes_[node].base;
  arrival.arrival = release;
  return arrival;
}

void DagArrivalSource::unget(const JobArrival& arrival) {
  HETSCHED_REQUIRE(!emission_log_.empty() && "unget without an emission");
  const std::size_t node = emission_log_.back();
  emission_log_.pop_back();
  HETSCHED_ASSERT(nodes_[node].release_time == arrival.arrival);
  eligible_.push({arrival.arrival, node});
}

void DagArrivalSource::on_slice(const ScheduledSlice& slice) {
  // Preempted fragments don't retire the job; only completion counts.
  if (!slice.completed) return;
  // Job ids are assigned at admission in emission order, so the log maps
  // them straight back to node indices. An unget'd lookahead was never
  // admitted, so every admitted id stays below the log size.
  HETSCHED_REQUIRE(slice.job_id < emission_log_.size() &&
                   "completion for a job this source never emitted");
  const std::size_t node = emission_log_[slice.job_id];
  for (const std::size_t successor : nodes_[node].successors) {
    HETSCHED_ASSERT(nodes_[successor].preds_remaining > 0);
    if (--nodes_[successor].preds_remaining == 0) {
      release_node(successor, slice.end);
    }
  }
}

void DagArrivalSource::release_node(std::size_t node,
                                    SimTime completion_time) {
  Node& n = nodes_[node];
  HETSCHED_ASSERT(!n.released);
  n.released = true;
  n.release_time = std::max(n.base.arrival, completion_time);
  eligible_.push({n.release_time, node});
  stale_ = true;

  const Cycles latency =
      static_cast<Cycles>(n.release_time - n.base.arrival);
  const std::uint32_t slack = stats_.max_rank - n.base.cp_rank;
  ++stats_.releases;
  stats_.release_latency_total += latency;
  stats_.cp_slack_total += slack;
  stats_.ready_peak =
      std::max<std::uint64_t>(stats_.ready_peak, eligible_.size());

  if (release_observer_ != nullptr) {
    DagReleaseEvent event;
    event.time = completion_time;
    event.node = node;
    event.ready_depth = eligible_.size();
    event.latency = latency;
    event.slack = slack;
    release_observer_->on_dag_release(event);
  }
}

std::vector<JobArrival> DagArrivalSource::realized() const {
  std::vector<JobArrival> arrivals;
  arrivals.reserve(emission_log_.size());
  for (const std::size_t node : emission_log_) {
    JobArrival arrival = nodes_[node].base;
    arrival.arrival = nodes_[node].release_time;
    arrivals.push_back(arrival);
  }
  return arrivals;
}

void DagArrivalSource::save_state(std::ostream& out) const {
  out << "dag-arrivals " << nodes_.size() << ' ' << stats_.edges << "\n";
  out << "stale " << (stale_ ? 1 : 0) << "\n";
  out << "frontier\n";
  for (const Node& node : nodes_) {
    out << node.preds_remaining << ' ' << (node.released ? 1 : 0) << ' '
        << node.release_time << "\n";
  }
  // Drain a copy of the heap: entries come out sorted by (time, node), a
  // canonical order independent of heap layout.
  auto heap = eligible_;
  out << "eligible " << heap.size() << "\n";
  while (!heap.empty()) {
    const auto [release, node] = heap.top();
    heap.pop();
    out << release << ' ' << node << "\n";
  }
  out << "emitted " << emission_log_.size();
  for (const std::size_t node : emission_log_) out << ' ' << node;
  out << "\ndag-stats " << stats_.releases << ' ' << stats_.ready_peak
      << ' ' << stats_.release_latency_total << ' ' << stats_.cp_slack_total
      << "\n";
}

void DagArrivalSource::restore_state(std::istream& in,
                                     const std::string& context) {
  std::string token;
  if (!(in >> token) || token != "dag-arrivals") {
    st::fail(context, "expected 'dag-arrivals'");
  }
  if (st::read_value<std::size_t>(in, "dag node count", context) !=
      nodes_.size()) {
    st::fail(context, "dag node count does not match the scenario");
  }
  if (st::read_value<std::uint64_t>(in, "dag edge count", context) !=
      stats_.edges) {
    st::fail(context, "dag edge count does not match the scenario");
  }
  if (!(in >> token) || token != "stale") st::fail(context, "expected 'stale'");
  stale_ = st::read_value<int>(in, "dag stale flag", context) != 0;
  if (!(in >> token) || token != "frontier") {
    st::fail(context, "expected 'frontier'");
  }
  for (Node& node : nodes_) {
    node.preds_remaining =
        st::read_value<std::uint32_t>(in, "dag preds remaining", context);
    node.released = st::read_value<int>(in, "dag released flag", context) != 0;
    node.release_time =
        st::read_value<SimTime>(in, "dag release time", context);
  }
  if (!(in >> token) || token != "eligible") {
    st::fail(context, "expected 'eligible'");
  }
  const auto eligible =
      st::read_value<std::size_t>(in, "dag eligible count", context);
  while (!eligible_.empty()) eligible_.pop();
  for (std::size_t k = 0; k < eligible; ++k) {
    const auto release = st::read_value<SimTime>(in, "dag release", context);
    const auto node =
        st::read_value<std::size_t>(in, "dag eligible node", context);
    if (node >= nodes_.size()) {
      st::fail(context, "dag eligible node out of range");
    }
    eligible_.push({release, node});
  }
  if (!(in >> token) || token != "emitted") {
    st::fail(context, "expected 'emitted'");
  }
  const auto emitted =
      st::read_value<std::size_t>(in, "dag emitted count", context);
  if (emitted > nodes_.size()) {
    st::fail(context, "dag emitted count exceeds node count");
  }
  emission_log_.clear();
  emission_log_.reserve(emitted);
  for (std::size_t k = 0; k < emitted; ++k) {
    const auto node =
        st::read_value<std::size_t>(in, "dag emitted node", context);
    if (node >= nodes_.size()) {
      st::fail(context, "dag emitted node out of range");
    }
    emission_log_.push_back(node);
  }
  if (!(in >> token) || token != "dag-stats") {
    st::fail(context, "expected 'dag-stats'");
  }
  stats_.releases = st::read_value<std::uint64_t>(in, "dag releases", context);
  stats_.ready_peak =
      st::read_value<std::uint64_t>(in, "dag ready peak", context);
  stats_.release_latency_total =
      st::read_value<Cycles>(in, "dag release latency", context);
  stats_.cp_slack_total =
      st::read_value<std::uint64_t>(in, "dag cp slack", context);
}

}  // namespace hetsched

// Differential fuzzing (ctest label: fuzz).
//
// Randomised (trace, configuration) pairs drive the single-pass
// multi-configuration cache engine against the reference Cache replay,
// and randomised schedules check ScheduleLog's busy-cycle reconstruction
// against a naive recount and the simulator's own accounting. Every
// iteration derives from a printed seed: a failure message carries the
// seed, and HETSCHED_FUZZ_SEED=<seed> re-runs the whole suite from that
// base for deterministic reproduction (CI pins it for the sanitizer
// job).
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/multi_sim.hpp"
#include "core/schedule_log.hpp"
#include "experiment/experiment.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/rng.hpp"

namespace hetsched {
namespace {

std::uint64_t fuzz_base_seed() {
  if (const char* env = std::getenv("HETSCHED_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x5eedf0220ULL;
}

// Kernel-ish trace: mostly short strided runs with occasional random
// jumps, plus unaligned widths so accesses can straddle line boundaries.
MemTrace random_trace(Rng& rng) {
  const std::size_t length = 64 + rng.below(960);
  const std::uint32_t window = 1u << (10 + rng.below(6));  // 1K..32K bytes
  MemTrace trace;
  trace.reserve(length);
  std::uint32_t addr = 0x1000;
  for (std::size_t i = 0; i < length; ++i) {
    if (rng.bernoulli(0.3)) {
      addr = 0x1000 + static_cast<std::uint32_t>(rng.below(window));
    } else {
      addr += static_cast<std::uint32_t>(1u << rng.below(5));  // 1..16 B
    }
    MemRef ref;
    ref.address = addr;
    ref.size = static_cast<std::uint8_t>(1u << rng.below(4));  // 1/2/4/8
    ref.is_write = rng.bernoulli(0.3);
    trace.push_back(ref);
  }
  return trace;
}

// Any valid power-of-two geometry, not just the Table-1 points: size
// 1..16 KB, line 8..128 B, associativity 1..8 bounded so at least one
// set exists.
CacheConfig random_config(Rng& rng) {
  for (;;) {
    CacheConfig config;
    config.size_bytes = 1024u << rng.below(5);
    config.line_bytes = 8u << rng.below(5);
    config.associativity = 1u << rng.below(4);
    if (config.valid()) return config;
  }
}

TEST(FuzzDifferential, MultiSimMatchesReferenceReplay) {
  const std::uint64_t base = fuzz_base_seed();
  const int kPairs = 500;
  for (int pair = 0; pair < kPairs; ++pair) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(pair);
    Rng rng(seed);
    const MemTrace trace = random_trace(rng);
    std::vector<CacheConfig> configs(1 + rng.below(4));
    for (CacheConfig& config : configs) config = random_config(rng);

    const std::vector<CacheSimResult> multi =
        simulate_trace_multi(trace, configs);
    ASSERT_EQ(multi.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const CacheSimResult reference = simulate_trace(trace, configs[i]);
      const CacheStats& a = multi[i].stats;
      const CacheStats& b = reference.stats;
      const std::string where = "seed " + std::to_string(seed) +
                                ", config " + configs[i].name() +
                                " (reproduce with HETSCHED_FUZZ_SEED=" +
                                std::to_string(seed) + ")";
      ASSERT_EQ(multi[i].config, configs[i]) << where;
      EXPECT_EQ(a.accesses, b.accesses) << where;
      EXPECT_EQ(a.hits, b.hits) << where;
      EXPECT_EQ(a.misses, b.misses) << where;
      EXPECT_EQ(a.read_misses, b.read_misses) << where;
      EXPECT_EQ(a.write_misses, b.write_misses) << where;
      EXPECT_EQ(a.compulsory_misses, b.compulsory_misses) << where;
      EXPECT_EQ(a.evictions, b.evictions) << where;
      EXPECT_EQ(a.writebacks, b.writebacks) << where;
      EXPECT_EQ(a.writethroughs, b.writethroughs) << where;
      EXPECT_EQ(a.prefetch_fills, b.prefetch_fills) << where;
      if (::testing::Test::HasFailure()) {
        FAIL() << "first divergence at " << where;
      }
    }
  }
}

// One scaled-down experiment shared by the schedule fuzz cases.
const Experiment& fuzz_experiment() {
  static const Experiment* experiment = [] {
    ExperimentOptions options = ExperimentOptions::quick();
    options.suite.variants_per_kernel = 1;
    options.arrivals.count = 200;
    options.seed = fuzz_base_seed();
    return new Experiment(options);
  }();
  return *experiment;
}

void check_busy_recount(const SystemRun& run, const ScheduleLog& log) {
  EXPECT_TRUE(log.well_formed()) << run.name;

  const std::size_t cores = run.result.per_core.size();
  const std::vector<Cycles> reconstructed = log.busy_cycles(cores);
  std::vector<Cycles> naive(cores, 0);
  for (const ScheduledSlice& slice : log.slices()) {
    ASSERT_LT(slice.core, cores) << run.name;
    ASSERT_LE(slice.start, slice.end) << run.name;
    naive[slice.core] += slice.end - slice.start;
  }
  ASSERT_EQ(reconstructed.size(), cores) << run.name;
  for (std::size_t core = 0; core < cores; ++core) {
    EXPECT_EQ(reconstructed[core], naive[core])
        << run.name << " core " << core;
    EXPECT_EQ(naive[core], run.result.per_core[core].busy_cycles)
        << run.name << " core " << core;
  }
}

TEST(FuzzSchedule, BusyCyclesMatchNaiveRecount) {
  const Experiment& experiment = fuzz_experiment();
  {
    ScheduleLog log;
    check_busy_recount(experiment.run_base(&log), log);
  }
  {
    ScheduleLog log;
    check_busy_recount(experiment.run_optimal(&log), log);
  }
  {
    ScheduleLog log;
    check_busy_recount(experiment.run_proposed(&log), log);
  }
}

// --- Dispatch-index differential ----------------------------------------
//
// The hierarchical dispatch index must be a pure speedup: for ANY
// machine size, policy and fault schedule, the indexed decision paths
// pick the same core as the reference linear scans on every single
// decision. Rather than comparing decisions one at a time, each random
// scenario runs twice — indexed and with set_naive_dispatch(true) — and
// the full outputs must agree byte for byte: one divergent pick anywhere
// would cascade into a different schedule, digest and result.

ScenarioOutcome run_outcome(const Scenario& scenario,
                            const ScenarioContext& context, bool naive) {
  ScenarioRun run(scenario, context);
  run.simulator().set_naive_dispatch(naive);
  return run.execute();
}

std::string result_text(const SimulationResult& result) {
  std::ostringstream out;
  save_simulation_result(out, result);
  return out.str();
}

TEST(FuzzDispatch, IndexedSelectionMatchesNaiveScanBitForBit) {
  const std::uint64_t base = fuzz_base_seed();

  // One context (suite + trained predictor) serves every iteration: the
  // context depends on suite/predictor parameters only, never on the
  // machine shape, policy or fault plan being fuzzed.
  Scenario family;
  family.name = "fuzz-dispatch";
  family.system = Scenario::SystemKind::kScaledHeterogeneous;
  family.policy = "proposed";  // forces predictor training
  family.suite.kernel_scale = 0.25;
  family.suite.variants_per_kernel = 1;
  family.predictor_ensemble = 5;
  family.predictor_max_epochs = 120;
  family.seed = base;
  const ScenarioContext context(family);

  const std::vector<std::string> policies = {
      "base", "optimal", "energy-centric", "proposed", "realtime"};

  const int kIterations = 25;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const std::uint64_t seed = base + 1000 + iteration;
    Rng rng(seed);

    Scenario scenario = family;
    scenario.seed = seed;
    // Random machine: 4..256 cores of the scaled heterogeneous mix.
    scenario.cores = 4 + rng.below(253);
    scenario.policy = policies[rng.below(policies.size())];
    if (scenario.policy == "realtime") {
      scenario.discipline = QueueDiscipline::kEdf;
      RealtimeOptions rt;
      rt.slack_factor = 1.5 + rng.below(3) * 0.5;
      rt.priority_levels = 1 + static_cast<int>(rng.below(3));
      scenario.realtime = rt;
    }
    scenario.arrivals.count = 150 + rng.below(150);
    scenario.arrivals.mean_interarrival_cycles =
        20000.0 * 16.0 / static_cast<double>(scenario.cores);

    // Random fault schedule: every failure gets a recovery, so the
    // stream always drains; rates exercise the degraded-mode paths.
    const std::size_t failures = rng.below(4);
    for (std::size_t f = 0; f < failures; ++f) {
      const std::size_t core = rng.below(scenario.cores);
      const SimTime fail_at = 100'000 + rng.below(4'000'000);
      const SimTime recover_at = fail_at + 200'000 + rng.below(2'000'000);
      scenario.faults.core_events.push_back({fail_at, core, true});
      scenario.faults.core_events.push_back({recover_at, core, false});
    }
    if (failures > 0) {
      scenario.faults.seed = seed;
      scenario.faults.reconfig_failure_rate = rng.below(2) ? 0.05 : 0.0;
      scenario.faults.stuck_job_rate = rng.below(2) ? 0.05 : 0.0;
    }

    const std::string where =
        "seed " + std::to_string(seed) + ", " +
        std::to_string(scenario.cores) + " cores, policy " +
        scenario.policy + ", " + std::to_string(failures) +
        " fault pairs (reproduce with HETSCHED_FUZZ_SEED=" +
        std::to_string(base) + ")";

    const ScenarioOutcome indexed = run_outcome(scenario, context, false);
    const ScenarioOutcome naive = run_outcome(scenario, context, true);

    ASSERT_EQ(indexed.stream.digest(), naive.stream.digest()) << where;
    ASSERT_EQ(result_text(indexed.result), result_text(naive.result))
        << where;
    ASSERT_EQ(indexed.stream.slices(), naive.stream.slices()) << where;
    // Same decision count either way; only the scan mechanics differ.
    ASSERT_EQ(indexed.dispatch.decisions, naive.dispatch.decisions)
        << where;
  }
}

// --- DAG spec differential -----------------------------------------------

// Naive O(V*E) reference for DagSpec::validate: quadratic duplicate
// scan, per-edge range/self checks, and Bellman-style relaxation for
// cycle detection (a cycle exists iff edge relaxation still changes
// anything after V rounds).
bool naive_dag_valid(const std::vector<DagEdge>& edges,
                     std::size_t nodes) {
  for (const DagEdge& e : edges) {
    if (e.from >= nodes || e.to >= nodes || e.from == e.to) return false;
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    for (std::size_t j = i + 1; j < edges.size(); ++j) {
      if (edges[i].from == edges[j].from && edges[i].to == edges[j].to) {
        return false;
      }
    }
  }
  // Longest-path relaxation: acyclic graphs converge within `nodes`
  // rounds; one more productive round means a cycle.
  std::vector<std::uint64_t> dist(nodes, 0);
  for (std::size_t round = 0; round <= nodes; ++round) {
    bool changed = false;
    for (const DagEdge& e : edges) {
      if (dist[e.from] + 1 > dist[e.to]) {
        dist[e.to] = dist[e.from] + 1;
        changed = true;
      }
    }
    if (!changed) return true;
  }
  return false;
}

// Naive longest-path-to-sink ranks by relaxation over the reversed
// edges; requires a valid DAG.
std::vector<std::uint32_t> naive_dag_ranks(
    const std::vector<DagEdge>& edges, std::size_t nodes) {
  std::vector<std::uint32_t> rank(nodes, 0);
  for (std::size_t round = 0; round < nodes; ++round) {
    bool changed = false;
    for (const DagEdge& e : edges) {
      if (rank[e.to] + 1 > rank[e.from]) {
        rank[e.from] = rank[e.to] + 1;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return rank;
}

// Random graphs across three regimes — layered-acyclic, layered plus an
// injected back edge, and unconstrained (range/self/duplicate errors
// included) — must get the same accept/reject verdict from
// DagSpec::validate and the naive validator, and identical ranks when
// accepted.
TEST(FuzzDag, ValidateAndRanksMatchNaiveReference) {
  const std::uint64_t base = fuzz_base_seed();
  const int kGraphs = 400;
  for (int graph = 0; graph < kGraphs; ++graph) {
    const std::uint64_t seed = base + 5000 + graph;
    Rng rng(seed);
    const std::size_t nodes = 2 + rng.below(40);
    const std::size_t layers = 2 + rng.below(5);
    std::vector<std::size_t> layer_of(nodes);
    for (std::size_t v = 0; v < nodes; ++v) layer_of[v] = rng.below(layers);

    DagSpec spec;
    const std::size_t attempts = rng.below(3 * nodes + 1);
    const std::uint64_t regime = rng.below(3);
    for (std::size_t k = 0; k < attempts; ++k) {
      DagEdge e;
      if (regime == 2) {
        // Unconstrained: occasionally out of range, self or duplicate.
        e.from = rng.below(nodes + 2);
        e.to = rng.below(nodes + 2);
      } else {
        // Layered: lower layer -> strictly higher layer, acyclic.
        e.from = rng.below(nodes);
        e.to = rng.below(nodes);
        if (layer_of[e.from] == layer_of[e.to]) continue;
        if (layer_of[e.from] > layer_of[e.to]) std::swap(e.from, e.to);
        bool duplicate = false;
        for (const DagEdge& seen : spec.edges) {
          duplicate |= seen.from == e.from && seen.to == e.to;
        }
        if (duplicate) continue;
      }
      spec.edges.push_back(e);
    }
    if (regime == 1 && !spec.edges.empty()) {
      // Close a random existing edge into a 2-cycle through a fresh
      // reverse edge (guaranteed invalid).
      const DagEdge& forward = spec.edges[rng.below(spec.edges.size())];
      spec.edges.push_back({forward.to, forward.from});
    }

    const std::string where =
        "seed " + std::to_string(seed) + ", " + std::to_string(nodes) +
        " nodes, " + std::to_string(spec.edges.size()) +
        " edges, regime " + std::to_string(regime) +
        " (reproduce with HETSCHED_FUZZ_SEED=" + std::to_string(base) +
        ")";
    const bool naive_ok = naive_dag_valid(spec.edges, nodes);
    const auto issue = spec.validate(nodes);
    ASSERT_EQ(!issue.has_value(), naive_ok)
        << where
        << (issue.has_value() ? "; validate said: " + issue->what
                              : "; validate accepted");
    if (naive_ok) {
      ASSERT_EQ(spec.ranks(nodes), naive_dag_ranks(spec.edges, nodes))
          << where;
    } else {
      ASSERT_LT(issue->edge_index, spec.edges.size()) << where;
    }
  }
}

// Every spelling of a `dep` line keeps the verdict and the exact
// diagnostic of the general .scn tokenizer, whichever path reads it:
// signs, tabs, overflow, a missing or third token, leading blanks and a
// trailing comment, plus the DAG errors parse() attributes to the line.
TEST(FuzzScenario, DepSpellingsKeepTheirDiagnostics) {
  struct Case {
    std::string line;
    std::string error;  // empty: parses, with the edge 1 -> 2
  };
  const std::string expects =
      "'dep' expects two job indices (predecessor successor)";
  const std::string out_of_range =
      "scenario line 5: dep job id out of range (jobs 0..3)";
  const std::vector<Case> cases = {
      {"dep 1", "scenario line 5: " + expects},
      {"dep 1 2 3", "scenario line 5: trailing garbage '3'"},
      {"dep -1 2", out_of_range},  // the stream wraps -1 to SIZE_MAX
      {"dep +1 2", ""},
      {"dep 1\t2", ""},
      {"dep 99999999999999999999 1", "scenario line 5: " + expects},
      {" dep 1 2", ""},
      {"dep 1 2 # c", ""},
      {"dep 1 2", ""},
      {"dep 0 9", out_of_range},
      {"dep 0 3", "scenario line 5: duplicate dep 0 -> 3"},
      {"dep 3 0", "scenario line 4: dep edges form a cycle through job 0"},
  };
  for (const Case& c : cases) {
    std::istringstream in(
        "name dep-spellings\npolicy base\njobs 4\ndep 0 3\n" + c.line +
        "\n");
    std::string error;
    Scenario scenario;
    try {
      scenario = Scenario::parse(in);
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    EXPECT_EQ(error, c.error) << "line '" << c.line << "'";
    if (error.empty()) {
      ASSERT_EQ(scenario.dag.edges.size(), 2u) << c.line;
      EXPECT_EQ(scenario.dag.edges[1].from, 1u) << c.line;
      EXPECT_EQ(scenario.dag.edges[1].to, 2u) << c.line;
    }
  }
}

// A DAG source materialises every job, so a scenario with dep edges has
// a bounded job count: an oversized `jobs` line is a clean error naming
// that line instead of a std::bad_alloc when the run is built.
TEST(FuzzScenario, OversizedDagNamesTheJobsLine) {
  const std::string limit = std::to_string(kMaxDagJobs);
  const auto parse_error = [](const std::string& text) {
    std::istringstream in(text);
    try {
      Scenario::parse(in);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const auto too_many = [&](int line, const std::string& jobs) {
    return "scenario line " + std::to_string(line) + ": jobs " + jobs +
           " exceeds the limit of " + limit +
           " jobs for a scenario with dep edges";
  };
  const std::string over = std::to_string(kMaxDagJobs + 1);
  EXPECT_EQ(parse_error("name big\npolicy base\njobs 1000000000000\n"
                        "dep 0 1\n"),
            too_many(3, "1000000000000"));
  EXPECT_EQ(parse_error("name big\npolicy base\ndep 0 1\njobs " + over +
                        "\n"),
            too_many(4, over));
  EXPECT_EQ(parse_error("name big\npolicy base\njobs " + limit +
                        "\ndep 0 1\n"),
            "");
  // Independent jobs stream in O(cores) memory and stay unbounded.
  EXPECT_EQ(parse_error("name big\npolicy base\njobs 1000000000000\n"), "");

  Scenario scenario;
  scenario.arrivals.count = kMaxDagJobs + 1;
  scenario.dag.edges.push_back({0, 1});
  EXPECT_THROW(scenario.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace hetsched

// DAG task-graph suite (ctest label: dag).
//
// Covers the release-on-completion arrival source end to end: the
// topological-order invariant (no successor is dispatched before its
// last predecessor retires) over hundreds of random seeded DAGs crossed
// with every registered policy, bit-identity between the streaming run
// and a batch replay of the realized arrival order, HETSCHED_THREADS
// invariance, checkpoint kill-and-resume at every stride boundary, the
// cp-aware policy's fall-back contract (identical to `proposed` when
// every rank is zero), and the golden dag_smoke scenario whose
// checked-in window stream and run report pin the release telemetry.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_registry.hpp"
#include "core/simulator.hpp"
#include "obs/latency.hpp"
#include "obs/run_report.hpp"
#include "obs/windowed.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/profile_cache.hpp"

namespace hetsched {
namespace {

// One suite build + one ANN training shared by every test in this file
// (the fixture policy is cp-aware, so the context carries a predictor
// for every predictor-backed contender).
struct World {
  Scenario base;
  ScenarioContext context;
};

// Layered random DAG over `nodes` jobs: every edge points from a lower
// to a strictly higher index, so the graph is acyclic by construction;
// a seen-set keeps edges unique.
DagSpec random_dag(Rng& rng, std::size_t nodes) {
  DagSpec spec;
  if (nodes < 2) return spec;
  std::vector<std::vector<char>> seen(nodes, std::vector<char>(nodes, 0));
  const std::size_t target = nodes / 2 + rng.below(nodes);
  for (std::size_t k = 0; k < target; ++k) {
    const std::size_t to = 1 + rng.below(nodes - 1);
    const std::size_t from = rng.below(to);
    if (seen[from][to]) continue;
    seen[from][to] = 1;
    spec.edges.push_back({from, to});
  }
  return spec;
}

World& world() {
  static World* w = [] {
    Scenario s;
    s.name = "dag-fixture";
    s.system = Scenario::SystemKind::kScaledHeterogeneous;
    s.cores = 4;
    s.policy = "cp-aware";
    s.seed = 42;
    s.arrivals.count = 120;
    s.arrivals.mean_interarrival_cycles = 40000.0;
    s.suite.kernel_scale = 0.25;
    s.suite.variants_per_kernel = 1;
    s.predictor_ensemble = 5;
    s.predictor_max_epochs = 120;
    Rng rng(7);
    s.dag = random_dag(rng, s.arrivals.count);
    return new World{s, ScenarioContext(s)};
  }();
  return *w;
}

std::string result_text(const SimulationResult& result) {
  std::ostringstream out;
  save_simulation_result(out, result);
  return out.str();
}

std::string windows_text(const WindowedCollector& collector) {
  std::ostringstream out;
  collector.write_jsonl(out);
  return out.str();
}

// Records first-dispatch and retirement times per job id — the raw
// material of the topological-order check.
struct PrecedenceRecorder final : public ScheduleObserver {
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  std::vector<SimTime> first_dispatch;
  std::vector<SimTime> completion;

  void grow(std::uint64_t job_id) {
    const std::size_t need = static_cast<std::size_t>(job_id) + 1;
    if (first_dispatch.size() < need) {
      first_dispatch.resize(need, kNever);
      completion.resize(need, kNever);
    }
  }
  void on_dispatch(const DispatchEvent& event) override {
    grow(event.job_id);
    const std::size_t id = static_cast<std::size_t>(event.job_id);
    if (first_dispatch[id] == kNever) first_dispatch[id] = event.time;
  }
  void on_slice(const ScheduledSlice& slice) override {
    if (!slice.completed) return;
    grow(slice.job_id);
    completion[static_cast<std::size_t>(slice.job_id)] = slice.end;
  }
};

// Drives a DAG scenario through ScenarioRun (exposing the source) with a
// precedence recorder attached and checks every edge: the successor's
// first dispatch must not precede the predecessor's retirement.
void check_topological_order(const Scenario& scenario,
                             const ScenarioContext& context,
                             const std::string& where) {
  PrecedenceRecorder recorder;
  ScenarioRun run(scenario, context, &recorder);
  const SimulationResult result = run.execute().result;
  ASSERT_EQ(result.completed_jobs, scenario.arrivals.count) << where;
  ASSERT_NE(run.dag(), nullptr) << where;

  const std::vector<std::size_t>& emitted = run.dag()->emission_order();
  ASSERT_EQ(emitted.size(), scenario.arrivals.count) << where;
  std::vector<std::size_t> job_of(emitted.size(), SIZE_MAX);
  for (std::size_t job = 0; job < emitted.size(); ++job) {
    ASSERT_EQ(job_of[emitted[job]], SIZE_MAX)
        << where << ": node emitted twice";
    job_of[emitted[job]] = job;
  }
  ASSERT_EQ(recorder.completion.size(), emitted.size()) << where;

  for (const DagEdge& edge : scenario.dag.edges) {
    const SimTime retired = recorder.completion[job_of[edge.from]];
    const SimTime started = recorder.first_dispatch[job_of[edge.to]];
    ASSERT_NE(retired, PrecedenceRecorder::kNever) << where;
    ASSERT_NE(started, PrecedenceRecorder::kNever) << where;
    EXPECT_LE(retired, started)
        << where << ": job " << edge.to << " dispatched at " << started
        << " before predecessor " << edge.from << " retired at " << retired;
  }
}

// --- Rank / spec unit checks ---------------------------------------------

TEST(DagSpec, RanksAreLongestPathToSink) {
  // 0 -> 1 -> 3, 0 -> 2 -> 3, 2 -> 4; node 5 independent.
  DagSpec spec;
  spec.edges = {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {2, 4}};
  ASSERT_FALSE(spec.validate(6).has_value());
  const std::vector<std::uint32_t> rank = spec.ranks(6);
  EXPECT_EQ(rank, (std::vector<std::uint32_t>{2, 1, 1, 0, 0, 0}));
}

TEST(DagSpec, ValidateRejectsStructuralErrors) {
  DagSpec out_of_range;
  out_of_range.edges = {{0, 5}};
  auto issue = out_of_range.validate(3);
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->edge_index, 0u);
  EXPECT_NE(issue->what.find("out of range"), std::string::npos);

  DagSpec self_edge;
  self_edge.edges = {{0, 1}, {2, 2}};
  issue = self_edge.validate(3);
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->edge_index, 1u);
  EXPECT_NE(issue->what.find("repeats job 2"), std::string::npos);

  DagSpec duplicate;
  duplicate.edges = {{0, 1}, {1, 2}, {0, 1}};
  issue = duplicate.validate(3);
  ASSERT_TRUE(issue.has_value());
  EXPECT_EQ(issue->edge_index, 2u);  // the later copy is the offender
  EXPECT_NE(issue->what.find("duplicate dep 0 -> 1"), std::string::npos);

  DagSpec cycle;
  cycle.edges = {{0, 1}, {1, 2}, {2, 0}};
  issue = cycle.validate(3);
  ASSERT_TRUE(issue.has_value());
  EXPECT_NE(issue->what.find("cycle"), std::string::npos);
}

// --- Topological order ---------------------------------------------------

// The headline property: over 200 random seeded DAGs, each run under
// every registered policy, no successor ever starts before its last
// predecessor retires. Small graphs keep the 200 x |policies| matrix
// cheap.
TEST(DagDeterminism, TopologicalOrderHoldsAcrossSeedsAndPolicies) {
  World& w = world();
  const std::vector<std::string> policies =
      PolicyRegistry::instance().names();
  ASSERT_GE(policies.size(), 10u);

  const int kDags = 200;
  for (int i = 0; i < kDags; ++i) {
    Scenario s = w.base;
    s.name = "dag-prop";
    s.seed = 1000 + static_cast<std::uint64_t>(i);
    s.arrivals.count = 24;
    s.arrivals.mean_interarrival_cycles = 15000.0;
    Rng rng(s.seed);
    s.dag = random_dag(rng, s.arrivals.count);
    if (s.dag.empty()) s.dag.edges = {{0, 1}};
    for (const std::string& policy : policies) {
      s.policy = policy;
      check_topological_order(
          s, w.context,
          "dag seed " + std::to_string(s.seed) + ", policy " + policy);
      if (::testing::Test::HasFailure()) {
        FAIL() << "first violation at dag seed " << s.seed << ", policy "
               << policy;
      }
    }
  }
}

// --- Stream / batch bit-identity -----------------------------------------

// A streaming DAG run and a batch run() over the realized arrival order
// must produce the same event stream: same digest, same serialized
// result. This is the DAG extension of the repo's core determinism
// contract.
void check_stream_matches_batch(const Scenario& scenario,
                                const ScenarioContext& context,
                                const std::string& where) {
  ScenarioRun run(scenario, context);
  const SimulationResult streamed = run.execute().result;
  ASSERT_NE(run.dag(), nullptr) << where;
  const std::vector<JobArrival> realized = run.dag()->realized();
  ASSERT_EQ(realized.size(), scenario.arrivals.count) << where;
  for (std::size_t k = 1; k < realized.size(); ++k) {
    ASSERT_LE(realized[k - 1].arrival, realized[k].arrival)
        << where << ": realized order not sorted at " << k;
  }

  std::unique_ptr<SchedulerPolicy> policy =
      make_scenario_policy(scenario, context);
  MulticoreSimulator simulator(scenario.make_system(), context.suite(),
                               context.energy(), *policy,
                               scenario.discipline);
  StreamStats batch_stats(scenario.make_system().core_count());
  simulator.set_observer(&batch_stats);
  const SimulationResult batch = simulator.run(realized);

  EXPECT_EQ(run.stats().digest(), batch_stats.digest()) << where;
  EXPECT_EQ(result_text(streamed), result_text(batch)) << where;
}

TEST(DagDeterminism, StreamMatchesBatchReplayOfRealizedArrivals) {
  World& w = world();
  for (const std::string& policy :
       {std::string("optimal"), std::string("sjf"),
        std::string("cp-aware")}) {
    Scenario s = w.base;
    s.policy = policy;
    check_stream_matches_batch(s, w.context, "policy " + policy);
  }
}

TEST(DagDeterminism, StreamMatchesBatchUnderRealtimeAttributes) {
  World& w = world();
  Scenario s = w.base;
  s.policy = "cp-aware";
  RealtimeOptions rt;
  rt.slack_factor = 2.0;
  s.realtime = rt;
  check_stream_matches_batch(s, w.context, "realtime dag");
}

// --- Thread-count invariance ---------------------------------------------

TEST(DagDeterminism, OutputsInvariantAcrossThreadCounts) {
  World& w = world();
  auto run_at = [&](std::size_t threads) {
    ThreadPool::set_global_threads(threads);
    WindowedCollector collector(w.base.make_system().core_count(),
                                WindowedOptions{1'000'000, 0},
                                &w.context.suite());
    ScenarioOutcome outcome = run_scenario(w.base, w.context, &collector);
    collector.finalize();
    EXPECT_TRUE(outcome.dag.has_value());
    return windows_text(collector) + "digest " +
           std::to_string(outcome.stream.digest());
  };
  const std::string at1 = run_at(1);
  const std::string at3 = run_at(3);
  ThreadPool::set_global_threads(ThreadPool::default_threads());
  EXPECT_FALSE(at1.empty());
  EXPECT_EQ(at1, at3);
}

// --- cp-aware contract ---------------------------------------------------

// Without dep edges every cp_rank is zero, the stall-cost boost is the
// identity, and cp-aware must reproduce the proposed policy bit for bit.
TEST(CpAwarePolicy, MatchesProposedWhenEveryRankIsZero) {
  World& w = world();
  Scenario proposed = w.base;
  proposed.dag = DagSpec{};
  proposed.policy = "proposed";
  Scenario cp = proposed;
  cp.policy = "cp-aware";

  const ScenarioOutcome a = run_scenario(proposed, w.context);
  const ScenarioOutcome b = run_scenario(cp, w.context);
  EXPECT_EQ(a.stream.digest(), b.stream.digest());
  EXPECT_EQ(result_text(a.result), result_text(b.result));
  EXPECT_FALSE(a.dag.has_value());
  EXPECT_FALSE(b.dag.has_value());
}

// --- Release accounting --------------------------------------------------

TEST(DagStatsAccounting, FixedDiamondReportsExpectedNumbers) {
  World& w = world();
  Scenario s = w.base;
  s.policy = "optimal";
  s.arrivals.count = 6;
  // Diamond 0 -> {1, 2} -> 3 with a tail 3 -> 4; node 5 independent.
  s.dag.edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}};

  WindowedCollector collector(s.make_system().core_count(),
                              WindowedOptions{1'000'000, 0},
                              &w.context.suite());
  const ScenarioOutcome outcome = run_scenario(s, w.context, &collector);
  collector.finalize();
  ASSERT_TRUE(outcome.dag.has_value());
  const DagStats& stats = *outcome.dag;
  EXPECT_EQ(stats.nodes, 6u);
  EXPECT_EQ(stats.edges, 5u);
  EXPECT_EQ(stats.releases, 4u);  // nodes 1..4; roots 0 and 5 are free
  EXPECT_EQ(stats.max_rank, 3u);  // 0 -> 1/2 -> 3 -> 4
  EXPECT_GE(stats.ready_peak, 1u);
  EXPECT_EQ(outcome.stream.dag_releases(), stats.releases);
  EXPECT_EQ(outcome.result.completed_jobs, 6u);

  // The window stream carries the same release count.
  std::uint64_t windowed_releases = 0;
  for (const WindowRecord& window : collector.windows()) {
    windowed_releases += window.dag_releases;
  }
  EXPECT_EQ(windowed_releases, stats.releases);
  EXPECT_NE(windows_text(collector).find("\"dag_releases\""),
            std::string::npos);
}

// --- Checkpoint kill-and-resume ------------------------------------------

// A DAG run killed at ANY stride boundary and resumed from the snapshot
// must rebuild the exact release frontier: digest, result, window
// stream (including the dag_* columns) and final DagStats all match the
// uninterrupted run.
TEST(DagDeterminism, CheckpointKillAtEveryBoundaryMatches) {
  World& w = world();
  CheckpointRunOptions options;
  options.checkpoint_every = 1;
  std::vector<std::string> checkpoints;
  options.capture_checkpoints = &checkpoints;
  RunCollectors full_collectors(w.base, &w.context.suite(), 1'000'000);
  const CheckpointRunOutcome full = run_scenario_checkpointed(
      w.base, w.context, options, full_collectors);
  ASSERT_FALSE(full.halted);
  ASSERT_TRUE(full.dag.has_value());
  EXPECT_GE(full.dag->releases, 1u);
  ASSERT_GE(checkpoints.size(), 3u);

  const std::string ref_result = result_text(full.result);
  const std::string ref_windows = full_collectors.windows_jsonl();

  const std::string path = testing::TempDir() + "dag_kill_resume.ckpt";
  for (std::size_t k = 0; k < checkpoints.size(); ++k) {
    ASSERT_TRUE(atomic_write_file(path, checkpoints[k]));
    CheckpointRunOptions resume;
    resume.checkpoint_every = options.checkpoint_every;
    resume.resume_from = path;
    RunCollectors collectors(w.base, &w.context.suite(), 1'000'000);
    const CheckpointRunOutcome resumed =
        run_scenario_checkpointed(w.base, w.context, resume, collectors);
    ASSERT_FALSE(resumed.halted);
    EXPECT_EQ(resumed.resumed_from, k + 1);
    EXPECT_EQ(resumed.stream.digest(), full.stream.digest())
        << "boundary " << k + 1;
    EXPECT_EQ(result_text(resumed.result), ref_result)
        << "boundary " << k + 1;
    EXPECT_EQ(collectors.windows_jsonl(), ref_windows)
        << "boundary " << k + 1;
    ASSERT_TRUE(resumed.dag.has_value()) << "boundary " << k + 1;
    EXPECT_EQ(resumed.dag->releases, full.dag->releases)
        << "boundary " << k + 1;
    EXPECT_EQ(resumed.dag->ready_peak, full.dag->ready_peak)
        << "boundary " << k + 1;
    EXPECT_EQ(resumed.dag->release_latency_total,
              full.dag->release_latency_total)
        << "boundary " << k + 1;
    EXPECT_EQ(resumed.dag->cp_slack_total, full.dag->cp_slack_total)
        << "boundary " << k + 1;
  }
}

// A checkpoint from a DAG run must not resume the same scenario with the
// dep edges stripped (and vice versa).
TEST(DagCheckpoint, RejectsDagStateMismatch) {
  World& w = world();
  CheckpointRunOptions options;
  options.checkpoint_every = 1;
  std::vector<std::string> checkpoints;
  options.capture_checkpoints = &checkpoints;
  RunCollectors full_collectors(w.base, &w.context.suite(), 1'000'000);
  const CheckpointRunOutcome full = run_scenario_checkpointed(
      w.base, w.context, options, full_collectors);
  ASSERT_FALSE(full.halted);
  ASSERT_GE(checkpoints.size(), 1u);

  Scenario stripped = w.base;
  stripped.dag = DagSpec{};
  const std::string path = testing::TempDir() + "dag_mismatch.ckpt";
  ASSERT_TRUE(atomic_write_file(path, checkpoints[0]));
  CheckpointRunOptions resume;
  resume.checkpoint_every = options.checkpoint_every;
  resume.resume_from = path;
  RunCollectors collectors(stripped, &w.context.suite(), 1'000'000);
  // The scenario fingerprint covers the dep edges, so the mismatch is
  // caught before the dag-state flag is even reached.
  EXPECT_THROW(
      run_scenario_checkpointed(stripped, w.context, resume, collectors),
      std::runtime_error);
}

// --- Golden scenario -----------------------------------------------------

// dag_smoke.scn runs a fan-out/fan-in pipeline under cp-aware dispatch;
// the checked-in window stream and deterministic run report pin the
// release telemetry (dag_* columns and the report's "dag" section) byte
// for byte.
TEST(DagGolden, SmokeScenarioWindowsAndReport) {
  const std::string dir =
      std::string(HETSCHED_SOURCE_DIR) + "/examples/scenarios/";
  std::ifstream in(dir + "dag_smoke.scn");
  ASSERT_TRUE(in) << "missing " << dir << "dag_smoke.scn";
  const Scenario scenario = Scenario::parse(in);
  ASSERT_FALSE(scenario.dag.empty());

  const ScenarioContext context(scenario);
  // The deterministic report and windows `hetsched_cli scenario
  // --report-deterministic` writes for this run.
  RunCollectors collectors(scenario, &context.suite(), 1'000'000);
  const ScenarioOutcome outcome =
      run_scenario(scenario, context, collectors.observer());
  collectors.finalize();
  EXPECT_EQ(outcome.stream.invariant_violations(), 0u);
  ASSERT_TRUE(outcome.dag.has_value());
  EXPECT_GE(outcome.dag->releases, 1u);

  RunArtifacts artifacts =
      build_run_report("scenario", scenario, context, outcome, collectors);
  artifacts.report.include_phases = false;
  const std::string& windows = artifacts.windows_jsonl;
  const std::string report_json = run_report_to_json(artifacts.report);
  EXPECT_NE(report_json.find("\"dag\": {"), std::string::npos);

  const std::string windows_path = dir + "dag_smoke.windows.jsonl";
  const std::string report_path = dir + "dag_smoke.report.json";
  if (std::getenv("HETSCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream windows_out(windows_path);
    windows_out << windows;
    ASSERT_TRUE(windows_out) << "cannot write " << windows_path;
    std::ofstream report_out(report_path);
    report_out << report_json;
    ASSERT_TRUE(report_out) << "cannot write " << report_path;
    GTEST_SKIP() << "dag goldens regenerated in " << dir;
  }

  auto slurp = [](const std::string& path) {
    std::ifstream golden(path);
    std::stringstream buffer;
    buffer << golden.rdbuf();
    return golden ? buffer.str() : std::string();
  };
  const std::string golden_windows = slurp(windows_path);
  ASSERT_FALSE(golden_windows.empty())
      << "missing golden " << windows_path
      << "; regenerate with HETSCHED_REGEN_GOLDEN=1";
  EXPECT_EQ(windows, golden_windows)
      << "dag window stream diverged; if intended, regenerate with "
         "HETSCHED_REGEN_GOLDEN=1 and commit";
  const std::string golden_report = slurp(report_path);
  ASSERT_FALSE(golden_report.empty())
      << "missing golden " << report_path
      << "; regenerate with HETSCHED_REGEN_GOLDEN=1";
  EXPECT_EQ(report_json, golden_report)
      << "dag run report diverged; if intended, regenerate with "
         "HETSCHED_REGEN_GOLDEN=1 and commit";
}

}  // namespace
}  // namespace hetsched

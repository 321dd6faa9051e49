// Windowed telemetry pipeline: tumbling-window attribution semantics,
// retention caps, anomaly/SLO rules on synthetic drift, the bench-diff
// regression gate, run-report assembly, and the end-to-end determinism
// contract — window JSONL is byte-identical across thread counts and
// between streaming and batch runs (ctest label: integration).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "obs/bench_diff.hpp"
#include "obs/latency.hpp"
#include "obs/event_trace.hpp"
#include "obs/run_report.hpp"
#include "obs/windowed.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/thread_pool.hpp"

namespace hetsched {
namespace {

ScheduledSlice slice(std::uint64_t job, std::size_t core, SimTime start,
                     SimTime end, bool completed = true) {
  ScheduledSlice s;
  s.job_id = job;
  s.benchmark_id = 0;
  s.core = core;
  s.start = start;
  s.end = end;
  s.completed = completed;
  return s;
}

TEST(WindowedCollector, TumblingAttributionOnClosingTimestamp) {
  WindowedCollector collector(2, WindowedOptions{100, 0});
  collector.on_slice(slice(1, 0, 10, 50));     // closes in window 0
  collector.on_slice(slice(2, 1, 60, 100));    // t == end: window 1
  IdleEvent idle;
  idle.core = 0;
  idle.from = 50;
  idle.to = 250;  // interval spans windows; attributed whole to window 2
  collector.on_idle(idle);
  collector.finalize();

  const auto& windows = collector.windows();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].start, 0u);
  EXPECT_EQ(windows[0].end, 100u);
  EXPECT_EQ(windows[0].jobs_completed, 1u);
  EXPECT_EQ(windows[0].busy_cycles[0], 40u);
  EXPECT_EQ(windows[1].index, 1u);
  EXPECT_EQ(windows[1].jobs_completed, 1u);
  EXPECT_EQ(windows[1].busy_cycles[1], 40u);
  EXPECT_EQ(windows[2].idle_cycles[0], 200u);
  EXPECT_EQ(windows[2].jobs_completed, 0u);
  EXPECT_EQ(collector.windows_closed(), 3u);
  EXPECT_EQ(collector.dropped_windows(), 0u);
}

TEST(WindowedCollector, EmptyInterveningWindowsAreEmitted) {
  WindowedCollector collector(1, WindowedOptions{100, 0});
  collector.on_slice(slice(1, 0, 0, 50));
  collector.on_slice(slice(2, 0, 500, 550));  // jumps to window 5
  collector.finalize();
  ASSERT_EQ(collector.windows().size(), 6u);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(collector.windows()[i].index, i);
    EXPECT_EQ(collector.windows()[i].slices, 0u);
    EXPECT_EQ(collector.windows()[i].total_busy_cycles(), 0u);
  }
}

TEST(WindowedCollector, QueuePeakStallsAndMigrations) {
  WindowedCollector collector(3, WindowedOptions{1000, 0});
  collector.on_queue_depth(QueueSample{10, 2});
  collector.on_queue_depth(QueueSample{20, 7});
  collector.on_queue_depth(QueueSample{30, 4});
  collector.on_stall(StallEvent{40, 9, 0});

  // Job 5 is preempted on core 0, then re-dispatched on core 2.
  collector.on_slice(slice(5, 0, 50, 80, /*completed=*/false));
  DispatchEvent migrate;
  migrate.time = 90;
  migrate.core = 2;
  migrate.job_id = 5;
  collector.on_dispatch(migrate);
  // Job 6 is preempted and resumes on the same core: no migration.
  collector.on_slice(slice(6, 1, 100, 120, /*completed=*/false));
  DispatchEvent same_core;
  same_core.time = 130;
  same_core.core = 1;
  same_core.job_id = 6;
  collector.on_dispatch(same_core);
  collector.finalize();

  ASSERT_EQ(collector.windows().size(), 1u);
  const WindowRecord& w = collector.windows()[0];
  EXPECT_EQ(w.queue_peak, 7u);
  EXPECT_EQ(w.stalls, 1u);
  EXPECT_EQ(w.dispatches, 2u);
  EXPECT_EQ(w.migrations, 1u);
  EXPECT_EQ(w.fault_migrations, 0u);  // no faults: policy migrations only
  EXPECT_EQ(w.jobs_completed, 0u);
}

TEST(WindowedCollector, RetentionCapDropsOldestButSinkKeepsAll) {
  std::ostringstream sink;
  WindowedCollector collector(1, WindowedOptions{100, 2});
  collector.set_sink(&sink);
  for (std::uint64_t i = 0; i < 5; ++i) {
    collector.on_slice(slice(i + 1, 0, i * 100, i * 100 + 50));
  }
  collector.finalize();

  EXPECT_EQ(collector.windows_closed(), 5u);
  EXPECT_EQ(collector.dropped_windows(), 3u);
  ASSERT_EQ(collector.windows().size(), 2u);
  EXPECT_EQ(collector.windows()[0].index, 3u);
  EXPECT_EQ(collector.windows()[1].index, 4u);
  // The sink saw every window as it closed, including the dropped ones.
  std::size_t lines = 0;
  std::string line;
  std::istringstream in(sink.str());
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 5u);
  EXPECT_NE(sink.str().find("\"window\":0"), std::string::npos);
}

TEST(WindowedCollector, JsonlLineShapeIsStable) {
  WindowedCollector collector(2, WindowedOptions{100, 0});
  collector.on_slice(slice(1, 0, 0, 60));
  collector.finalize();
  const std::string line = window_to_json(collector.windows()[0]);
  EXPECT_EQ(line,
            "{\"schema\":5,"
            "\"window\":0,\"start\":0,\"end\":100,\"jobs_completed\":1,"
            "\"slices\":1,\"dispatches\":0,\"preemptions\":0,\"stalls\":0,"
            "\"migrations\":0,\"fault_migrations\":0,\"queue_peak\":0,"
            "\"prediction_hits\":0,\"prediction_misses\":0,"
            "\"reconfig_attempts\":0,\"faults\":0,\"dag_releases\":0,"
            "\"dag_ready_peak\":0,\"dag_release_latency\":0,"
            "\"dag_cp_slack\":0,\"lat_jobs\":0,\"lat_p50\":0,"
            "\"lat_p95\":0,\"lat_p99\":0,\"lat_max\":0,\"energy_mj\":0,"
            "\"busy_cycles\":[60,0],\"idle_cycles\":[0,0]}");
}

// --- Anomaly rules -------------------------------------------------------

WindowRecord make_window(std::uint64_t index, std::size_t cores) {
  WindowRecord w;
  w.index = index;
  w.start = index * 1000;
  w.end = (index + 1) * 1000;
  w.busy_cycles.assign(cores, 100);
  w.idle_cycles.assign(cores, 100);
  w.dispatches = 4;
  w.jobs_completed = 4;
  w.energy_mj = 4.0;
  return w;
}

TEST(Anomalies, CoreStarvationFiresOncePerStreak) {
  std::vector<WindowRecord> windows;
  for (std::uint64_t i = 0; i < 6; ++i) {
    WindowRecord w = make_window(i, 2);
    if (i >= 1 && i <= 4) w.busy_cycles[1] = 0;  // 4-window streak
    windows.push_back(w);
  }
  AnomalyConfig config;
  config.starvation_windows = 3;
  config.idle_spike_factor = 0.0;   // isolate the rule under test
  config.energy_drift_factor = 0.0;
  const std::vector<Anomaly> anomalies = detect_anomalies(windows, config);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].rule, Anomaly::Rule::kCoreStarvation);
  EXPECT_EQ(anomalies[0].core, 1u);
  EXPECT_EQ(anomalies[0].window, 3u);  // third consecutive starved window
}

TEST(Anomalies, StarvationNeedsSystemWideDispatches) {
  std::vector<WindowRecord> windows;
  for (std::uint64_t i = 0; i < 5; ++i) {
    WindowRecord w = make_window(i, 2);
    w.busy_cycles[1] = 0;
    w.dispatches = 0;  // whole machine quiet: not starvation
    windows.push_back(w);
  }
  const std::vector<Anomaly> anomalies =
      detect_anomalies(windows, AnomalyConfig{});
  for (const Anomaly& a : anomalies) {
    EXPECT_NE(a.rule, Anomaly::Rule::kCoreStarvation);
  }
}

TEST(Anomalies, IdleSpikeAgainstTrailingMean) {
  std::vector<WindowRecord> windows;
  for (std::uint64_t i = 0; i < 6; ++i) windows.push_back(make_window(i, 2));
  windows[5].idle_cycles.assign(2, 1000);  // 2000 vs trailing mean 200
  AnomalyConfig config;
  config.starvation_windows = 0;
  config.energy_drift_factor = 0.0;
  const std::vector<Anomaly> anomalies = detect_anomalies(windows, config);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].rule, Anomaly::Rule::kIdleSpike);
  EXPECT_EQ(anomalies[0].window, 5u);
  EXPECT_DOUBLE_EQ(anomalies[0].value, 2000.0);
}

TEST(Anomalies, EnergyPerJobDriftSkipsIdleWindows) {
  std::vector<WindowRecord> windows;
  for (std::uint64_t i = 0; i < 8; ++i) {
    WindowRecord w = make_window(i, 2);
    if (i == 4) {  // an idle window must not dilute the trailing mean
      w.jobs_completed = 0;
      w.energy_mj = 0.0;
    }
    if (i == 7) w.energy_mj = 8.0;  // 2 mJ/job vs trailing 1 mJ/job
    windows.push_back(w);
  }
  AnomalyConfig config;
  config.starvation_windows = 0;
  config.idle_spike_factor = 0.0;
  config.energy_drift_factor = 1.5;
  const std::vector<Anomaly> anomalies = detect_anomalies(windows, config);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].rule, Anomaly::Rule::kEnergyDrift);
  EXPECT_EQ(anomalies[0].window, 7u);
  EXPECT_DOUBLE_EQ(anomalies[0].value, 2.0);
}

TEST(Anomalies, EnergyDriftLookbackIgnoresStaleHistoryAcrossIdleGaps) {
  // Sparse arrivals: four productive windows, a long all-idle gap, then a
  // hot window. Compacting to productive windows used to judge the hot
  // window against history from arbitrarily far in the past.
  auto sparse = [](std::uint64_t hot_index) {
    std::vector<WindowRecord> windows;
    for (std::uint64_t i = 0; i < 4; ++i) {
      windows.push_back(make_window(i, 2));
    }
    for (std::uint64_t i = 4; i < hot_index; ++i) {
      WindowRecord w = make_window(i, 2);
      w.jobs_completed = 0;  // idle gap
      w.energy_mj = 0.0;
      w.dispatches = 0;
      windows.push_back(w);
    }
    WindowRecord hot = make_window(hot_index, 2);
    hot.energy_mj = 8.0;  // 2 mJ/job vs the old windows' 1 mJ/job
    windows.push_back(hot);
    return windows;
  };
  AnomalyConfig config;
  config.starvation_windows = 0;
  config.idle_spike_factor = 0.0;
  config.energy_drift_factor = 1.5;
  config.trailing_windows = 4;
  config.drift_lookback_windows = 16;

  // History within the lookback bound: the rule fires on the hot window.
  const std::vector<Anomaly> near = detect_anomalies(sparse(10), config);
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0].rule, Anomaly::Rule::kEnergyDrift);
  EXPECT_EQ(near[0].window, 10u);
  // The same shape across a gap beyond the bound: stale evidence, silent.
  EXPECT_TRUE(detect_anomalies(sparse(100), config).empty());
  // 0 restores the unbounded pre-fix behaviour.
  config.drift_lookback_windows = 0;
  EXPECT_EQ(detect_anomalies(sparse(100), config).size(), 1u);
}

TEST(Anomalies, ReportCapAndOrdering) {
  // Starvation streaks of length 2 separated by healthy windows: every
  // streak fires once per core, 16 anomalies total against a cap of 5.
  std::vector<WindowRecord> windows;
  for (std::uint64_t i = 0; i < 12; ++i) {
    WindowRecord w = make_window(i, 4);
    if (i % 3 != 2) {
      for (auto& busy : w.busy_cycles) busy = 0;
    }
    windows.push_back(w);
  }
  AnomalyConfig config;
  config.starvation_windows = 2;
  config.idle_spike_factor = 0.0;
  config.energy_drift_factor = 0.0;
  config.max_anomalies = 5;
  const std::vector<Anomaly> anomalies = detect_anomalies(windows, config);
  EXPECT_EQ(anomalies.size(), 5u);
  for (std::size_t i = 1; i < anomalies.size(); ++i) {
    EXPECT_LE(anomalies[i - 1].window, anomalies[i].window);
  }
  EXPECT_EQ(anomalies.front().window, 1u);  // earliest firings survive
}

// --- bench-diff ----------------------------------------------------------

TEST(BenchDiff, FlattensNestedJsonWithPaths) {
  const auto leaves = flatten_json_numbers(
      R"({"a": 1, "runs": [{"wall_ms": 2.5}, {"wall_ms": 3}], "s": "x"})");
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_EQ(leaves[0].first, "a");
  EXPECT_EQ(leaves[1].first, "runs[0].wall_ms");
  EXPECT_DOUBLE_EQ(leaves[1].second, 2.5);
  EXPECT_EQ(leaves[2].first, "runs[1].wall_ms");
}

TEST(BenchDiff, MalformedJsonThrows) {
  EXPECT_THROW(flatten_json_numbers("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(flatten_json_numbers("{\"a\": 1"), std::runtime_error);
  EXPECT_THROW(flatten_json_numbers("[1, 2] trailing"), std::runtime_error);
}

TEST(BenchDiff, DirectionClassification) {
  EXPECT_EQ(classify_metric("disabled_ms"), MetricDirection::kLowerIsBetter);
  EXPECT_EQ(classify_metric("runs[3].wall_ms"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(classify_metric("full_overhead"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(classify_metric("rss_growth_10k_to_1m"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(classify_metric("runs[0].jobs_per_sec"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(classify_metric("pooled_speedup"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(classify_metric("test_accuracy"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(classify_metric("cores"), MetricDirection::kIgnored);
  EXPECT_EQ(classify_metric("runs[0].stream_digest"),
            MetricDirection::kIgnored);
}

TEST(BenchDiff, RegressionDirectionsAndTolerance) {
  const std::string baseline =
      R"({"wall_ms": 100, "jobs_per_sec": 1000, "seed": 42})";
  // Within tolerance both ways: pass.
  EXPECT_FALSE(bench_diff(baseline,
                          R"({"wall_ms": 140, "jobs_per_sec": 700,
                              "seed": 43})",
                          0.5)
                   .regressed());
  // Slower beyond tolerance: fail.
  EXPECT_TRUE(bench_diff(baseline, R"({"wall_ms": 151, "jobs_per_sec": 1000})",
                         0.5)
                  .regressed());
  // Throughput collapse: fail.
  EXPECT_TRUE(bench_diff(baseline, R"({"wall_ms": 100, "jobs_per_sec": 600})",
                         0.5)
                  .regressed());
  // Ignored keys (seed) never regress no matter how they change.
  EXPECT_FALSE(bench_diff(R"({"seed": 1})", R"({"seed": 999})", 0.0)
                   .regressed());
}

TEST(BenchDiff, MissingBaselineMetricIsARegression) {
  const BenchDiffResult diff =
      bench_diff(R"({"wall_ms": 100})", R"({"other_ms": 100})", 10.0);
  EXPECT_TRUE(diff.regressed());
  ASSERT_EQ(diff.missing_in_current.size(), 1u);
  EXPECT_EQ(diff.missing_in_current[0], "wall_ms");
  EXPECT_NE(diff.summary(10.0).find("MISSING"), std::string::npos);
}

TEST(BenchDiff, NewMetricInCurrentIsSurfacedButNeverGates) {
  const BenchDiffResult diff =
      bench_diff(R"({"wall_ms": 100})",
                 R"({"wall_ms": 100, "resume_ms": 5, "seed": 1})", 0.5);
  EXPECT_FALSE(diff.regressed());
  ASSERT_EQ(diff.new_in_current.size(), 2u);
  EXPECT_EQ(diff.new_in_current[0], "resume_ms");
  EXPECT_EQ(diff.new_in_current[1], "seed");
  EXPECT_NE(diff.summary(0.5).find("new-metric resume_ms"),
            std::string::npos);
  // The reverse direction stays a hard gate failure, and the vanished key
  // must not be misreported as new.
  const BenchDiffResult reverse =
      bench_diff(R"({"wall_ms": 100, "resume_ms": 5})",
                 R"({"wall_ms": 100})", 0.5);
  EXPECT_TRUE(reverse.regressed());
  EXPECT_TRUE(reverse.new_in_current.empty());
  EXPECT_EQ(reverse.summary(0.5).find("new-metric"), std::string::npos);
}

// --- Interval validation -------------------------------------------------

TEST(WindowIntervalError, RejectsZeroAndOverflowingIntervals) {
  EXPECT_EQ(window_interval_error(1'000'000, 1), "");
  EXPECT_NE(window_interval_error(0, 1), "");
  EXPECT_NE(window_interval_error(1'000'000, 0), "");
  // A window width beyond the simulated-clock headroom is rejected even
  // with stride 1...
  EXPECT_NE(window_interval_error(std::uint64_t{1} << 62, 1), "");
  // ...and a window * stride product that would wrap the clock is caught
  // even though both factors are individually fine.
  EXPECT_NE(
      window_interval_error(std::uint64_t{1} << 40, std::uint64_t{1} << 40),
      "");
  // Large but safe combinations pass.
  EXPECT_EQ(window_interval_error(std::uint64_t{1} << 40, 4), "");
}

// --- EventTracer retention cap -------------------------------------------

TEST(EventTracerCap, DropsBeyondMaxAndCountsDrops) {
  MetricsRegistry metrics;
  EventTracer tracer(&metrics, "sim.");
  tracer.set_max_events(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    tracer.add_instant("e" + std::to_string(i), i, 0);
  }
  EXPECT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.events().front().name, "e0");  // prefix retained
  EXPECT_EQ(tracer.dropped_events(), 2u);
  EXPECT_EQ(metrics.counter("sim.dropped_trace_events").value(), 2u);

  // Metric counters keep updating for dropped simulator events.
  DispatchEvent d;
  tracer.on_dispatch(d);
  EXPECT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(metrics.counter("sim.dispatches").value(), 1u);
}

TEST(EventTracerCap, ZeroMeansUnlimited) {
  EventTracer tracer;
  tracer.set_max_events(0);
  for (std::uint64_t i = 0; i < 10; ++i) tracer.add_instant("e", i, 0);
  EXPECT_EQ(tracer.events().size(), 10u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

// --- RunReport -----------------------------------------------------------

TEST(RunReport, JsonContainsEverySectionAndAnomalies) {
  WindowedCollector collector(1, WindowedOptions{100, 0});
  collector.on_slice(slice(1, 0, 0, 60));
  collector.finalize();

  RunReport report;
  report.command = "run";
  report.name = "smoke";
  report.policy = "proposed";
  report.cores = 4;
  report.suite_key = 12345;
  attach_window_summary(report, collector, AnomalyConfig{});
  PhaseTimers timers;
  timers.record("run", 12.5);
  report.phases_ms = timers.entries();

  report.failed_cells.push_back({"c4.g0.base", 2, true, "timed out"});

  const std::string json = run_report_to_json(report);
  EXPECT_NE(json.find("\"schema\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"command\": \"run\""), std::string::npos);
  EXPECT_NE(json.find("\"suite_key\": 12345"), std::string::npos);
  EXPECT_NE(json.find("\"windows\""), std::string::npos);
  EXPECT_NE(json.find("\"closed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"anomalies\": []"), std::string::npos);
  EXPECT_NE(json.find("\"run\": 12.5"), std::string::npos);
  EXPECT_NE(json.find("\"failed_cells\": [{\"label\": \"c4.g0.base\", "
                      "\"attempts\": 2, \"timed_out\": true, "
                      "\"reason\": \"timed out\"}]"),
            std::string::npos);
  EXPECT_EQ(report.window_jobs_completed, 1u);

  // Deterministic-report mode: phase timers stay out of the document so
  // identical runs render byte-identical JSON.
  report.include_phases = false;
  const std::string stripped = run_report_to_json(report);
  EXPECT_NE(stripped.find("\"phases_ms\": {}"), std::string::npos);
  EXPECT_EQ(stripped.find("12.5"), std::string::npos);

  Anomaly anomaly;
  anomaly.rule = Anomaly::Rule::kIdleSpike;
  anomaly.window = 3;
  anomaly.value = 2.0;
  anomaly.reference = 1.0;
  anomaly.message = "idle \"spike\"";
  const std::string rendered = anomaly_to_json(anomaly);
  EXPECT_NE(rendered.find("\"rule\":\"idle-spike\""), std::string::npos);
  EXPECT_NE(rendered.find("\\\"spike\\\""), std::string::npos);
}

TEST(RunReport, PortfolioSectionRendersWinRatesAndSwitches) {
  RunReport report;
  const std::string without = run_report_to_json(report);
  EXPECT_EQ(without.find("\"portfolio\""), std::string::npos);

  report.policy_win_rates.push_back({"optimal", 3, 0.75});
  report.policy_win_rates.push_back({"sjf", 1, 0.25});
  report.policy_switches.push_back({2, 2000000, "optimal", "sjf"});
  const std::string json = run_report_to_json(report);
  EXPECT_NE(json.find("\"portfolio\": {\"win_rates\": [{\"policy\": "
                      "\"optimal\", \"windows_won\": 3, \"win_rate\": "
                      "0.75}"),
            std::string::npos);
  EXPECT_NE(json.find("\"switches\": [{\"window\": 2, \"time\": 2000000, "
                      "\"from\": \"optimal\", \"to\": \"sjf\"}]"),
            std::string::npos);
}

TEST(RunReport, DagSectionRendersOnlyWhenPresent) {
  RunReport report;
  const std::string without = run_report_to_json(report);
  EXPECT_EQ(without.find("\"dag\""), std::string::npos);

  RunReport::DagSummary dag;
  dag.nodes = 6;
  dag.edges = 7;
  dag.releases = 5;
  dag.ready_peak = 3;
  dag.max_rank = 2;
  dag.release_latency_cycles = 12345;
  dag.cp_slack_total = 4;
  report.dag = dag;
  const std::string json = run_report_to_json(report);
  EXPECT_NE(json.find("\"dag\": {\"nodes\": 6, \"edges\": 7, "
                      "\"releases\": 5, \"ready_peak\": 3, \"max_rank\": 2, "
                      "\"release_latency_cycles\": 12345, "
                      "\"cp_slack_total\": 4}"),
            std::string::npos);
}

// --- End-to-end determinism ----------------------------------------------

// One suite build shared by the integration tests below; the optimal
// policy needs no predictor training, keeping the fixture cheap.
struct World {
  Scenario base;
  ScenarioContext context;
};

World& world() {
  static World* w = [] {
    Scenario s;
    s.name = "windowed-fixture";
    s.system = Scenario::SystemKind::kScaledHeterogeneous;
    s.cores = 4;
    s.policy = "optimal";
    s.seed = 42;
    s.arrivals.count = 250;
    s.arrivals.mean_interarrival_cycles = 40000.0;
    s.suite.kernel_scale = 0.25;
    s.suite.variants_per_kernel = 1;
    return new World{s, ScenarioContext(s)};
  }();
  return *w;
}

std::string windows_jsonl_for_run(std::size_t threads) {
  World& w = world();
  ThreadPool::set_global_threads(threads);
  WindowedCollector collector(w.base.cores, WindowedOptions{1'000'000, 0},
                              &w.context.suite());
  const ScenarioOutcome outcome =
      run_scenario(w.base, w.context, &collector);
  collector.finalize();
  EXPECT_EQ(outcome.stream.invariant_violations(), 0u);
  std::ostringstream out;
  collector.write_jsonl(out);
  return out.str();
}

TEST(WindowedDeterminism, JsonlByteIdenticalAcrossThreadCounts) {
  const std::string jsonl1 = windows_jsonl_for_run(1);
  const std::string jsonl3 = windows_jsonl_for_run(3);
  const std::string jsonl4 = windows_jsonl_for_run(4);
  ThreadPool::set_global_threads(ThreadPool::default_threads());
  EXPECT_FALSE(jsonl1.empty());
  EXPECT_EQ(jsonl1, jsonl3);
  EXPECT_EQ(jsonl1, jsonl4);
}

TEST(WindowedDeterminism, StreamAndBatchWindowsAreByteIdentical) {
  World& w = world();
  const Scenario& s = w.base;

  // Batch: materialise the arrivals, run via run(vector).
  OptimalPolicy policy;
  MulticoreSimulator simulator(s.make_system(), w.context.suite(),
                               w.context.energy(), policy, s.discipline);
  WindowedCollector batch_collector(s.cores, WindowedOptions{1'000'000, 0},
                                    &w.context.suite());
  simulator.set_observer(&batch_collector);
  Rng rng(s.seed ^ 0xa5a5a5a5ULL);
  const std::vector<JobArrival> arrivals =
      generate_arrivals(w.context.scheduling_ids(), s.arrivals, rng);
  const SimulationResult batch = simulator.run(arrivals);
  batch_collector.finalize();

  WindowedCollector stream_collector(s.cores, WindowedOptions{1'000'000, 0},
                                     &w.context.suite());
  const ScenarioOutcome streamed =
      run_scenario(s, w.context, &stream_collector);
  stream_collector.finalize();

  EXPECT_EQ(batch.completed_jobs, streamed.result.completed_jobs);
  std::ostringstream batch_jsonl;
  batch_collector.write_jsonl(batch_jsonl);
  std::ostringstream stream_jsonl;
  stream_collector.write_jsonl(stream_jsonl);
  EXPECT_FALSE(batch_jsonl.str().empty());
  EXPECT_EQ(batch_jsonl.str(), stream_jsonl.str());

  // The window stream accounts for every completed job exactly once.
  std::uint64_t window_jobs = 0;
  for (const WindowRecord& window : stream_collector.windows()) {
    window_jobs += window.jobs_completed;
  }
  EXPECT_EQ(window_jobs, streamed.result.completed_jobs);
}

TEST(WindowedDeterminism, GoldenStreamingSmokeWindows) {
  const std::string dir =
      std::string(HETSCHED_SOURCE_DIR) + "/examples/scenarios/";
  std::ifstream in(dir + "streaming_smoke.scn");
  ASSERT_TRUE(in) << "missing " << dir << "streaming_smoke.scn";
  const Scenario scenario = Scenario::parse(in);

  const ScenarioContext context(scenario);
  // The CLI scenario path's collectors, so the golden pins real lat_*
  // percentile columns.
  RunCollectors collectors(scenario, &context.suite(), 1'000'000);
  const ScenarioOutcome outcome =
      run_scenario(scenario, context, collectors.observer());
  collectors.finalize();
  EXPECT_EQ(outcome.stream.invariant_violations(), 0u);
  EXPECT_EQ(collectors.spans()->jobs_completed(),
            outcome.result.completed_jobs);
  const std::string jsonl = collectors.windows_jsonl();

  const std::string golden_path = dir + "streaming_smoke.windows.jsonl";
  if (std::getenv("HETSCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    out << jsonl;
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    GTEST_SKIP() << "golden windows regenerated at " << golden_path;
  }
  std::ifstream golden_in(golden_path);
  ASSERT_TRUE(golden_in) << "missing golden windows " << golden_path
                         << "; regenerate with HETSCHED_REGEN_GOLDEN=1";
  std::stringstream golden;
  golden << golden_in.rdbuf();
  EXPECT_EQ(jsonl, golden.str())
      << "window stream diverged from the checked-in golden; if the "
         "change is intended, regenerate with HETSCHED_REGEN_GOLDEN=1 "
         "and commit the new file";
}

}  // namespace
}  // namespace hetsched

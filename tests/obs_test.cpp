// Tests for the observability layer (src/obs): metrics-registry
// semantics and JSON snapshots, tracer/simulator consistency, and the
// headline determinism contract — trace and metrics output is
// byte-identical for every HETSCHED_THREADS value.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/experiment.hpp"
#include "obs/observability.hpp"
#include "obs/sim_counters.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/thread_pool.hpp"
#include "workload/profile_cache.hpp"

namespace hetsched {
namespace {

TEST(MetricsRegistryTest, JsonKeysFollowRegistrationOrder) {
  MetricsRegistry registry;
  registry.counter("zeta").add(3);
  registry.counter("alpha");
  registry.gauge("mid").set(1.5);
  const std::string json = registry.to_json();
  // "zeta" registered first must precede "alpha" despite sorting last.
  EXPECT_LT(json.find("\"zeta\""), json.find("\"alpha\""));
  EXPECT_EQ(json, registry.to_json());  // snapshots are stable
}

TEST(MetricsRegistryTest, ReRegistrationReturnsSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.counter("hits");
  a.add(2);
  Counter& b = registry.counter("hits");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 2u);
  Gauge& g = registry.gauge("level");
  g.set(4.25);
  EXPECT_EQ(&registry.gauge("level"), &g);
  FixedHistogram& h = registry.histogram("lat", 0.0, 10.0, 5);
  EXPECT_EQ(&registry.histogram("lat", 0.0, 10.0, 5), &h);
}

TEST(MetricsRegistryTest, KindMismatchDies) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_DEATH(registry.gauge("x"), "precondition");
  registry.histogram("h", 0.0, 1.0, 4);
  EXPECT_DEATH(registry.histogram("h", 0.0, 2.0, 4), "precondition");
}

TEST(MetricsRegistryTest, SnapshotValues) {
  MetricsRegistry registry;
  registry.counter("jobs").add(7);
  registry.gauge("energy_mj").set(2.5);
  FixedHistogram& h = registry.histogram("cycles", 0.0, 100.0, 4);
  h.record(-1.0);   // underflow
  h.record(10.0);   // bucket 0
  h.record(99.0);   // bucket 3
  h.record(100.0);  // overflow (range is [lo, hi))
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);

  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"jobs\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"energy_mj\": 2.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"underflow\": 1"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(EventTracerTest, CountersMatchSimulationResult) {
  Scenario setup = quick_scenario();
  setup.arrivals.count = 200;
  Experiment experiment(setup);

  MetricsRegistry metrics;
  EventTracer tracer(&metrics);
  const SystemRun run = experiment.run("proposed", &tracer);

  EXPECT_EQ(metrics.counter("sim.dispatches").value(),
            run.result.completed_jobs);
  EXPECT_EQ(metrics.counter("sim.completed_slices").value(),
            run.result.completed_jobs);
  EXPECT_EQ(metrics.counter("sim.preemptions").value(),
            run.result.preemptions);
  EXPECT_EQ(metrics.counter("sim.reconfig_attempts").value(),
            run.result.reconfigurations);
  EXPECT_EQ(metrics.counter("sim.reconfig_failures").value(), 0u);
  EXPECT_FALSE(tracer.events().empty());
  // Every slice span stays within the makespan.
  for (const TraceEvent& e : tracer.events()) {
    EXPECT_LE(e.ts + e.dur, run.result.makespan);
  }
}

TEST(EventTracerTest, ObserverDoesNotPerturbSimulation) {
  Scenario setup = quick_scenario();
  setup.arrivals.count = 150;
  Experiment experiment(setup);

  const SystemRun bare = experiment.run("proposed");
  MetricsRegistry metrics;
  EventTracer tracer(&metrics);
  const SystemRun traced = experiment.run("proposed", &tracer);

  EXPECT_EQ(bare.result.makespan, traced.result.makespan);
  EXPECT_EQ(bare.result.completed_jobs, traced.result.completed_jobs);
  EXPECT_EQ(bare.result.total_energy().value(),
            traced.result.total_energy().value());
}

// SimCounters is the counting half of EventTracer: on the same run both
// leave byte-identical registries. The run injects reconfiguration
// failures and stuck jobs and preempts under EDF, so every counter the
// two share is exercised, not just the happy-path ones.
TEST(SimCountersTest, RegistryMatchesTracerCountersByteForByte) {
  Scenario scenario;
  scenario.name = "counters";
  scenario.policy = "realtime";
  scenario.discipline = QueueDiscipline::kEdf;
  scenario.realtime = RealtimeOptions{};
  scenario.realtime->slack_factor = 1.5;
  scenario.arrivals.count = 400;
  scenario.arrivals.mean_interarrival_cycles = 8000.0;
  scenario.suite.kernel_scale = 0.25;
  scenario.suite.variants_per_kernel = 1;
  scenario.predictor_ensemble = 1;
  scenario.predictor_max_epochs = 20;
  scenario.faults.reconfig_failure_rate = 0.2;
  scenario.faults.stuck_job_rate = 0.05;
  const ScenarioContext context(scenario);

  MetricsRegistry counted;
  SimCounters counters(counted);
  const ScenarioOutcome plain = run_scenario(scenario, context, &counters);
  MetricsRegistry traced;
  EventTracer tracer(&traced);
  const ScenarioOutcome with_trace =
      run_scenario(scenario, context, &tracer);

  EXPECT_EQ(plain.stream.digest(), with_trace.stream.digest());
  EXPECT_EQ(counted.to_json(), traced.to_json());
  EXPECT_EQ(tracer.dropped_events(), 0u);
  EXPECT_GT(counted.counter("sim.preemptions").value(), 0u);
  EXPECT_GT(counted.counter("sim.reconfig_failures").value(), 0u);
  EXPECT_GT(counted.counter("sim.watchdog_fires").value(), 0u);
  EXPECT_EQ(counted.counter("sim.preemptions").value(),
            plain.result.preemptions);
  EXPECT_EQ(counted.counter("sim.watchdog_fires").value(),
            plain.result.faults.watchdog_fires);
}

// The headline contract: one full observed run — profile-cache path,
// suite build over the pool, four simulated systems, merged trace and
// metrics snapshot — produces byte-identical JSON for every thread
// count.
std::pair<std::string, std::string> observed_run(std::size_t threads) {
  ThreadPool::set_global_threads(threads);

  const std::string cache_path =
      "obs_determinism_" + std::to_string(threads) + ".profile";
  std::remove(cache_path.c_str());

  MetricsRegistry metrics;
  EventTracer runtime;
  ProbeRecorder recorder(metrics, &runtime);
  ScopedProbe probe(&recorder);

  Scenario setup = quick_scenario();
  setup.arrivals.count = 120;
  Experiment experiment(setup, cache_path);

  // Four per-system tracers, registered serially before the fan-out.
  const std::vector<Scenario> systems = paper_systems(setup);
  std::vector<EventTracer> tracers;
  tracers.reserve(systems.size());
  for (const Scenario& system : systems) {
    tracers.emplace_back(&metrics, system.name + ".sim.");
  }
  std::vector<ScheduleObserver*> observers;
  for (EventTracer& tracer : tracers) observers.push_back(&tracer);
  const std::vector<SystemRun> runs = experiment.run_paper_systems(observers);

  std::vector<std::pair<std::string, const EventTracer*>> processes;
  processes.emplace_back("runtime", &runtime);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    record_result_metrics(metrics, runs[i].name + ".", runs[i].result);
    processes.emplace_back(runs[i].name, &tracers[i]);
  }
  std::ostringstream trace;
  write_chrome_trace(trace, processes);

  std::remove(cache_path.c_str());
  return {trace.str(), metrics.to_json()};
}

TEST(ObsDeterminismTest, TraceAndMetricsIdenticalAcrossThreadCounts) {
  const auto [trace1, metrics1] = observed_run(1);
  const auto [trace3, metrics3] = observed_run(3);
  const auto [trace4, metrics4] = observed_run(4);
  ThreadPool::set_global_threads(ThreadPool::default_threads());

  EXPECT_EQ(trace1, trace3);
  EXPECT_EQ(trace1, trace4);
  EXPECT_EQ(metrics1, metrics3);
  EXPECT_EQ(metrics1, metrics4);
  // And the trace is non-trivial: it holds events from all five
  // processes (runtime + four systems).
  EXPECT_NE(trace1.find("\"runtime\""), std::string::npos);
  EXPECT_NE(trace1.find("\"energy-centric\""), std::string::npos);
  EXPECT_NE(trace1.find("pool_job"), std::string::npos);
  EXPECT_NE(trace1.find("profile_cache:miss"), std::string::npos);
}

}  // namespace
}  // namespace hetsched

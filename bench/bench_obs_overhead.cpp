// Performance: observability overhead.
//
// The observability layer must be zero-cost when disabled (no observer,
// no probe — the hot paths see one null check) and cheap when enabled.
// This bench times the proposed system over the quick-scale stream in
// the modes the CLI flags attach:
//
//   disabled : no observer, no probe (the default production path)
//   metrics  : SimCounters attached, counters/histogram maintained
//              (what --metrics-out attaches; nothing is retained)
//   trace    : EventTracer with a registry: every event retained plus
//              the same counters (what --trace-out attaches)
//   full     : tracer + metrics + global ProbeRecorder installed
//   windowed : WindowedCollector attached (per-window telemetry)
//   all      : tracer (job spans on) + span collector + windowed
//              collector fanned out together (the everything-on path)
//
// and verifies that enabling observability does not change a single
// simulation output (energy, makespan, completions are compared against
// the disabled run) — including the windowed path, whose collector is
// checked to see the full stream without perturbing it. Results go to
// BENCH_obs_overhead.json.
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>

#include "experiment/experiment.hpp"
#include "obs/latency.hpp"
#include "obs/observability.hpp"
#include "obs/sim_counters.hpp"
#include "obs/windowed.hpp"
#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/table_printer.hpp"

namespace {

double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main() {
  using namespace hetsched;

  Scenario setup = quick_scenario();
  setup.arrivals.count = 1000;
  Experiment experiment(setup);

  const int kRepeats = 5;
  // The bare simulator plus `observer` (no stream digest), so each
  // overhead below is the observer's alone.
  auto simulate = [&](ScheduleObserver* observer) {
    ProposedPolicy policy(experiment.predictor());
    return experiment.run_with(policy, "proposed", observer);
  };

  // Reference outputs + disabled-path timing.
  SystemRun reference;
  const double disabled_ms = time_ms([&] {
    for (int i = 0; i < kRepeats; ++i) reference = simulate(nullptr);
  });

  // Counters only, as --metrics-out attaches them.
  SystemRun counted;
  const double metrics_ms = time_ms([&] {
    for (int i = 0; i < kRepeats; ++i) {
      MetricsRegistry metrics;
      SimCounters counters(metrics);
      counted = simulate(&counters);
    }
  });

  // The retaining tracer with its counters, as --trace-out attaches it.
  SystemRun traced;
  std::size_t trace_events = 0;
  const double trace_ms = time_ms([&] {
    for (int i = 0; i < kRepeats; ++i) {
      MetricsRegistry metrics;
      EventTracer tracer(&metrics);
      traced = simulate(&tracer);
      trace_events = tracer.events().size();
    }
  });

  // Tracer + metrics + the global runtime probe installed.
  SystemRun full;
  const double full_ms = time_ms([&] {
    for (int i = 0; i < kRepeats; ++i) {
      MetricsRegistry metrics;
      EventTracer tracer(&metrics);
      EventTracer runtime;
      ProbeRecorder recorder(metrics, &runtime);
      ScopedProbe probe(&recorder);
      full = simulate(&tracer);
      record_result_metrics(metrics, "proposed.", full.result);
    }
  });

  // WindowedCollector attached to the simulator (the streaming
  // telemetry path).
  SystemRun windowed_run;
  std::uint64_t windows_closed = 0;
  std::uint64_t window_jobs = 0;
  const double windowed_ms = time_ms([&] {
    for (int i = 0; i < kRepeats; ++i) {
      WindowedCollector collector(setup.cores,
                                  WindowedOptions{1'000'000, 0},
                                  &experiment.suite());
      windowed_run = simulate(&collector);
      collector.finalize();
      windows_closed = collector.windows_closed();
      window_jobs = 0;
      for (const WindowRecord& w : collector.windows()) {
        window_jobs += w.jobs_completed;
      }
    }
  });

  // Everything at once: tracer with job spans enabled, the span
  // collector, and the windowed collector sharing one fanout — the
  // most expensive supported configuration.
  SystemRun all_run;
  std::uint64_t span_jobs = 0;
  const double all_ms = time_ms([&] {
    for (int i = 0; i < kRepeats; ++i) {
      MetricsRegistry metrics;
      EventTracer tracer(&metrics);
      tracer.set_job_spans(true);
      JobSpanCollector spans("proposed", 1'000'000);
      WindowedCollector collector(setup.cores,
                                  WindowedOptions{1'000'000, 0},
                                  &experiment.suite());
      collector.set_span_source(&spans);
      FanoutObserver fanout({&tracer, &spans, &collector});
      all_run = simulate(&fanout);
      spans.finalize();
      collector.finalize();
      span_jobs = spans.jobs_completed();
    }
  });

  // Observability must not perturb the simulation.
  auto same = [&](const SystemRun& run) {
    HETSCHED_REQUIRE(run.result.total_energy().value() ==
                     reference.result.total_energy().value());
    HETSCHED_REQUIRE(run.result.makespan == reference.result.makespan);
    HETSCHED_REQUIRE(run.result.completed_jobs ==
                     reference.result.completed_jobs);
  };
  same(counted);
  same(traced);
  same(full);
  same(windowed_run);
  same(all_run);
  // The window stream must account for every completed job exactly once,
  // and the span collector must retire exactly the completed jobs.
  HETSCHED_REQUIRE(window_jobs == reference.result.completed_jobs);
  HETSCHED_REQUIRE(span_jobs == reference.result.completed_jobs);

  std::cout << "=== Observability overhead (proposed system, "
            << setup.arrivals.count << " arrivals, " << kRepeats
            << " repeats) ===\n\n";
  TablePrinter table({"mode", "wall ms", "vs disabled"});
  auto add = [&](const std::string& name, double ms) {
    table.add_row({name, TablePrinter::num(ms, 1),
                   TablePrinter::num(ms / disabled_ms, 3) + "x"});
  };
  add("disabled", disabled_ms);
  add("metrics (counters)", metrics_ms);
  add("tracer + metrics", trace_ms);
  add("tracer + metrics + probe", full_ms);
  add("windowed collector", windowed_ms);
  add("tracer + spans + windowed", all_ms);
  table.print(std::cout);
  std::cout << "\nTrace events per run: " << trace_events
            << "\nWindows closed per run: " << windows_closed
            << "\nSimulation outputs identical across all modes.\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"obs_overhead\",\n"
       << "  \"arrivals\": " << setup.arrivals.count << ",\n"
       << "  \"repeats\": " << kRepeats << ",\n"
       << "  \"trace_events_per_run\": " << trace_events << ",\n"
       << "  \"windows_closed_per_run\": " << windows_closed << ",\n"
       << "  \"disabled_ms\": " << disabled_ms << ",\n"
       << "  \"metrics_ms\": " << metrics_ms << ",\n"
       << "  \"trace_ms\": " << trace_ms << ",\n"
       << "  \"full_ms\": " << full_ms << ",\n"
       << "  \"windowed_ms\": " << windowed_ms << ",\n"
       << "  \"all_ms\": " << all_ms << ",\n"
       << "  \"metrics_overhead\": " << metrics_ms / disabled_ms << ",\n"
       << "  \"trace_overhead\": " << trace_ms / disabled_ms << ",\n"
       << "  \"full_overhead\": " << full_ms / disabled_ms << ",\n"
       << "  \"windowed_overhead\": " << windowed_ms / disabled_ms << ",\n"
       << "  \"all_overhead\": " << all_ms / disabled_ms << "\n"
       << "}\n";
  atomic_write_file("BENCH_obs_overhead.json", json.str());
  std::cout << "Results written to BENCH_obs_overhead.json\n";
  return 0;
}

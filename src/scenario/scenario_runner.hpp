// Scenario execution: shared heavyweight state (characterised suite,
// energy model, trained predictor) built once per scenario family, and a
// streaming driver that runs one scenario end-to-end in memory bounded
// by the machine size — the arrival stream is generated on demand and
// the schedule is compacted into StreamStats as it happens, so a
// million-job scenario costs no more RAM than a thousand-job one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/portfolio_policy.hpp"
#include "core/predictor.hpp"
#include "core/simulator.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/windowed.hpp"
#include "scenario/dag_arrivals.hpp"
#include "scenario/scenario.hpp"
#include "scenario/stream_stats.hpp"

namespace hetsched {

// Everything expensive a scenario needs, reusable across runs whose
// suite/predictor parameters agree (a sweep varies cores/arrivals/policy
// but shares one context). Read-only after construction, so concurrent
// run_scenario calls may share it.
class ScenarioContext {
 public:
  // Builds the characterised suite (served from `profile_cache_path`
  // when non-empty) and, when the scenario's policy needs one, the ANN
  // predictor: `loaded` (e.g. a PredictorSnapshot) when given, otherwise
  // one trained on the suite.
  explicit ScenarioContext(const Scenario& scenario,
                           const std::string& profile_cache_path = "",
                           std::unique_ptr<const SizePredictor> loaded = {});

  const EnergyModel& energy() const { return energy_; }
  const CharacterizedSuite& suite() const { return suite_; }
  const std::vector<std::size_t>& scheduling_ids() const {
    return scheduling_ids_;
  }
  // Base-configuration execution cycles per benchmark id (deadline
  // references).
  const std::vector<Cycles>& base_reference_cycles() const {
    return base_reference_cycles_;
  }
  // Null when the scenario's policy does not consult a predictor.
  const SizePredictor* predictor() const { return predictor_.get(); }

 private:
  EnergyModel energy_;
  CharacterizedSuite suite_;
  std::vector<std::size_t> scheduling_ids_;
  std::vector<Cycles> base_reference_cycles_;
  std::unique_ptr<const SizePredictor> predictor_;
};

struct ScenarioOutcome {
  SimulationResult result;
  StreamStats stream;  // compacted schedule + event-stream digest
  // Dispatch-path scan counters (decisions, bitmap words scanned, clamp
  // cache hits); purely observational, never part of the result digest.
  DispatchTelemetry dispatch;
  // Selector outcome when the scenario ran a portfolio policy (win
  // counts, switch events); nullopt otherwise.
  std::optional<PortfolioStats> portfolio;
  // Release accounting when the scenario declared a job DAG (node/edge
  // counts, dependent releases, ready-set peak, critical-path numbers);
  // nullopt for independent-job scenarios.
  std::optional<DagStats> dag;
};

// Instantiates the scheduler policy a scenario names, wired to the
// context's predictor when the policy consults one.
std::unique_ptr<SchedulerPolicy> make_scenario_policy(
    const Scenario& scenario, const ScenarioContext& context);

// One scenario execution: owns the policy, simulator, arrival stream,
// StreamStats and optional fault injector, and holds the only loop that
// steps a scenario. execute() runs the stream to its end, optionally
// pausing at fixed simulated-time boundaries for a hook — the substrate
// of checkpointed runs and deadline-guarded sweep cells. The scenario
// and context must outlive the run.
class ScenarioRun {
 public:
  // kObserved folds every event into the internal StreamStats (the
  // digest-bearing default); kRaw attaches no observer at all, which is
  // the simulator's pure dispatch throughput — observers never feed back
  // into simulation state, so the SimulationResult is identical either
  // way (the outcome's stream is simply empty).
  enum class ObserverMode { kObserved, kRaw };

  // Called each time the run pauses at stride boundary k (simulated
  // time k * stride) with k; returning false halts the run there.
  using BoundaryHook = std::function<bool(std::uint64_t boundary)>;

  // `extra` (optional) receives every observer callback alongside the
  // internal StreamStats and must outlive the run.
  ScenarioRun(const Scenario& scenario, const ScenarioContext& context,
              ScheduleObserver* extra = nullptr,
              ObserverMode mode = ObserverMode::kObserved);

  // Runs the stream to its end and returns the outcome, portfolio and
  // DAG stats included; call it once. With `stride` > 0 and a hook the
  // run pauses every `stride` simulated cycles and calls the hook, which
  // may halt it: a halted run is never finished, so its result stays
  // default-initialized and its stats are those at the halt. Pausing
  // never changes the run. `dispatch` counts this process's decisions
  // only (scan counters are not resumable state). A DAG scenario is
  // driven from its release-on-completion source; otherwise the plain
  // generated stream feeds the simulator directly.
  ScenarioOutcome execute(SimTime stride = 0,
                          const BoundaryHook& on_boundary = {});

  // Marks the run as restored from a snapshot taken at stride boundary
  // `boundary` (> 0): execute() continues from there instead of
  // starting the stream.
  void resume_at(std::uint64_t boundary);

  MulticoreSimulator& simulator() { return simulator_; }
  StreamStats& stats() { return stats_; }
  GeneratedArrivalStream& arrivals() { return stream_; }
  // The scenario's scheduler (checkpointing serialises its state).
  SchedulerPolicy& policy() { return *policy_; }
  // Null when the scenario has no fault plan.
  FaultInjector* injector() {
    return injector_.has_value() ? &*injector_ : nullptr;
  }
  // Null when the scenario declared no job DAG (checkpointing serialises
  // its frontier; tests replay its realized arrival order).
  DagArrivalSource* dag() { return dag_.has_value() ? &*dag_ : nullptr; }

 private:
  ArrivalSource& source() {
    return dag_.has_value() ? static_cast<ArrivalSource&>(*dag_) : stream_;
  }

  SystemConfig system_;
  std::unique_ptr<SchedulerPolicy> policy_;
  MulticoreSimulator simulator_;
  StreamStats stats_;
  FanoutObserver fanout_;
  std::optional<FaultInjector> injector_;
  GeneratedArrivalStream stream_;
  std::optional<DagArrivalSource> dag_;
  // Stride boundary the run last paused at or was resumed from; 0 =
  // execute() starts the stream.
  std::uint64_t boundary_ = 0;
};

// Runs `scenario` straight through: ScenarioRun::execute with no
// boundaries. Deterministic: the same scenario and context produce
// bit-identical outcomes at every thread count. The context must have
// been built for a scenario with the same suite/predictor parameters.
// `extra` (optional) receives every observer callback alongside the
// internal StreamStats — e.g. an EventTracer or WindowedCollector —
// without perturbing the run.
ScenarioOutcome run_scenario(const Scenario& scenario,
                             const ScenarioContext& context,
                             ScheduleObserver* extra = nullptr);

// The telemetry collectors of one run, wired in the one order that
// works: the session observer (an EventTracer or SimCounters), then the
// job span collector, then the windowed collector, which pulls each
// closed window's latency digest from the span collector when it closes
// the window itself. The simulator holds the bundle's address, so it
// neither copies nor moves.
class RunCollectors {
 public:
  // `window_cycles` == 0 attaches no span or windowed collector.
  // `suite` (optional) fills the energy and prediction columns; it and
  // `session` (optional) must outlive the bundle.
  RunCollectors(const Scenario& scenario, const CharacterizedSuite* suite,
                SimTime window_cycles, ScheduleObserver* session = nullptr);
  RunCollectors(const RunCollectors&) = delete;
  RunCollectors& operator=(const RunCollectors&) = delete;

  // What to hand run_scenario or ScenarioRun: null when nothing is
  // attached, the session observer itself when there are no windows.
  ScheduleObserver* observer();
  // Closes the last windows, span collector first. Idempotent.
  void finalize();

  // Null when the bundle was built with window_cycles == 0.
  const JobSpanCollector* spans() const {
    return spans_.has_value() ? &*spans_ : nullptr;
  }
  const WindowedCollector* windows() const {
    return windowed_.has_value() ? &*windowed_ : nullptr;
  }
  // The windows as JSONL; empty without windows.
  std::string windows_jsonl() const;

  // Checkpoint support: the span then the windowed collector's state
  // (nothing without windows); restore_state needs a bundle built with
  // the same scenario shape and window width.
  void save_state(std::ostream& out) const;
  void restore_state(std::istream& in, const std::string& context);

 private:
  ScheduleObserver* session_;
  std::optional<JobSpanCollector> spans_;
  std::optional<WindowedCollector> windowed_;
  FanoutObserver fanout_;
};

// A run's report and its windows JSONL (portfolio switch events
// appended), as --report-out and --windows-out write them.
struct RunArtifacts {
  RunReport report;
  std::string windows_jsonl;
};

// Builds the report of one finished scenario run from its finalized
// collectors. Deterministic: the metrics block is the run's own
// record_scenario_metrics registry and no phase timers are set, so two
// identical runs give the same bytes. `command` labels the report.
RunArtifacts build_run_report(const std::string& command,
                              const Scenario& scenario,
                              const ScenarioContext& context,
                              const ScenarioOutcome& outcome,
                              const RunCollectors& collectors);

// Deposits an outcome into the registry under `prefix` (result buckets
// via record_result_metrics plus the stream aggregates and digest).
void record_scenario_metrics(MetricsRegistry& metrics,
                             const std::string& prefix,
                             const ScenarioOutcome& outcome);

// Copies a portfolio selector's outcome into the report: one win-rate
// row per contender (windows it was the active policy, over all closed
// selector windows) plus the switch-event list. The obs layer holds only
// plain data, so the conversion from core PortfolioStats lives here.
void attach_portfolio_summary(RunReport& report,
                              const PortfolioStats& stats);

// Copies a DAG run's release accounting into the report's "dag" section
// (same obs-layer-stays-plain-data split as attach_portfolio_summary).
void attach_dag_summary(RunReport& report, const DagStats& stats);

// Deposits the dispatch-index telemetry under `prefix` (e.g.
// "scale64.dispatch."). Deliberately separate from
// record_scenario_metrics, whose output is golden-pinned byte-for-byte.
void record_dispatch_metrics(MetricsRegistry& metrics,
                             const std::string& prefix,
                             const DispatchTelemetry& dispatch);

}  // namespace hetsched

#include "scenario/scenario_runner.hpp"

#include <limits>
#include <optional>
#include <sstream>

#include "cache/cache_config.hpp"
#include "core/policy_registry.hpp"
#include "fault/fault_injector.hpp"
#include "obs/observability.hpp"
#include "util/contracts.hpp"
#include "workload/profile_cache.hpp"

namespace hetsched {
std::unique_ptr<SchedulerPolicy> make_scenario_policy(
    const Scenario& scenario, const ScenarioContext& context) {
  PolicyContext ctx;
  ctx.predictor = context.predictor();
  ctx.suite = &context.suite();
  ctx.seed = scenario.seed;
  return PolicyRegistry::instance().make(scenario.policy, ctx);
}

ScenarioContext::ScenarioContext(const Scenario& scenario,
                                 const std::string& profile_cache_path,
                                 std::unique_ptr<const SizePredictor> loaded)
    : energy_(CactiModel{}, EnergyModelParams{}),
      suite_(load_or_build_suite(profile_cache_path, energy_,
                                 scenario.suite)) {
  scenario.validate();
  scheduling_ids_ = suite_.scheduling_ids();
  HETSCHED_ASSERT(!scheduling_ids_.empty());

  base_reference_cycles_.resize(suite_.size(), 0);
  for (std::size_t id = 0; id < suite_.size(); ++id) {
    base_reference_cycles_[id] = suite_.benchmark(id)
                                     .profile_for(DesignSpace::base_config())
                                     .energy.total_cycles;
  }

  if (loaded != nullptr) {
    predictor_ = std::move(loaded);
  } else if (scenario.needs_predictor()) {
    PredictorConfig config;
    config.ensemble_size = scenario.predictor_ensemble;
    if (scenario.predictor_max_epochs > 0) {
      config.trainer.max_epochs = scenario.predictor_max_epochs;
    }
    predictor_ = train_size_predictor(suite_, config, scenario.seed);
  }
}

ScenarioRun::ScenarioRun(const Scenario& scenario,
                         const ScenarioContext& context,
                         ScheduleObserver* extra, ObserverMode mode)
    : system_((scenario.validate(), scenario.make_system())),
      policy_(make_scenario_policy(scenario, context)),
      simulator_(system_, context.suite(), context.energy(), *policy_,
                 scenario.discipline),
      stats_(system_.core_count()),
      fanout_({&stats_, extra}),
      // Seed derivations match Experiment's batch arrivals and
      // assign_realtime_attributes, so a scenario reproduces those
      // streams exactly.
      stream_(context.scheduling_ids(), scenario.arrivals,
              scenario.seed ^ 0xa5a5a5a5ULL) {
  std::optional<DagArrivalSource::RealtimeSetup> dag_realtime;
  if (scenario.realtime.has_value()) {
    stream_.set_realtime(context.base_reference_cycles(), *scenario.realtime,
                         scenario.seed ^ 0x5151ULL);
    dag_realtime.emplace(DagArrivalSource::RealtimeSetup{
        context.base_reference_cycles(), *scenario.realtime,
        scenario.seed ^ 0x5151ULL});
  }
  if (!scenario.dag.empty()) {
    // Same ids/options/seeds as stream_, so the nominal arrival draws are
    // bit-identical to the independent-job run of this scenario.
    dag_.emplace(scenario.dag, context.scheduling_ids(), scenario.arrivals,
                 scenario.seed ^ 0xa5a5a5a5ULL, dag_realtime);
    // The DAG source must observe every completion in every mode —
    // releases are simulation state, not telemetry — so it heads the
    // fanout chain; release events go back through the chain only when
    // the run is observed.
    const bool observed = mode == ObserverMode::kObserved;
    fanout_ = FanoutObserver({&*dag_, observed ? &stats_ : nullptr,
                              observed ? extra : nullptr});
    simulator_.set_observer(&fanout_);
    if (observed) dag_->set_release_observer(&fanout_);
  } else if (mode == ObserverMode::kObserved) {
    // Without an extra observer, attach the stats sink directly: the
    // fanout hop costs an indirect call per event on the hot path.
    simulator_.set_observer(
        extra == nullptr ? static_cast<ScheduleObserver*>(&stats_)
                         : &fanout_);
  }
  if (!scenario.faults.empty()) {
    injector_.emplace(scenario.faults);
    simulator_.set_fault_injector(&*injector_);
  }
}

ScenarioOutcome ScenarioRun::execute(SimTime stride,
                                     const BoundaryHook& on_boundary) {
  if (boundary_ == 0) simulator_.start_stream(source());
  bool halted = false;
  if (stride == 0 || !on_boundary) {
    simulator_.advance_stream_until(source(),
                                    std::numeric_limits<SimTime>::max());
  } else {
    while (simulator_.advance_stream_until(source(), ++boundary_ * stride)) {
      if (!on_boundary(boundary_)) {
        halted = true;
        break;
      }
    }
  }
  ScenarioOutcome outcome{
      halted ? SimulationResult{} : simulator_.finish_stream(),
      std::move(stats_), simulator_.dispatch_telemetry(), std::nullopt,
      std::nullopt};
  if (const auto* portfolio =
          dynamic_cast<const PortfolioPolicy*>(policy_.get())) {
    outcome.portfolio = portfolio->stats();
  }
  if (dag_.has_value()) outcome.dag = dag_->stats();
  return outcome;
}

void ScenarioRun::resume_at(std::uint64_t boundary) {
  HETSCHED_REQUIRE(boundary > 0 && boundary_ == 0);
  boundary_ = boundary;
}

ScenarioOutcome run_scenario(const Scenario& scenario,
                             const ScenarioContext& context,
                             ScheduleObserver* extra) {
  return ScenarioRun(scenario, context, extra).execute();
}

RunCollectors::RunCollectors(const Scenario& scenario,
                             const CharacterizedSuite* suite,
                             SimTime window_cycles,
                             ScheduleObserver* session)
    : session_(session), fanout_({}) {
  if (window_cycles > 0) {
    spans_.emplace(scenario.policy, window_cycles);
    windowed_.emplace(scenario.make_system().core_count(),
                      WindowedOptions{window_cycles, 0}, suite);
    windowed_->set_span_source(&*spans_);
  }
  fanout_ = FanoutObserver({session_, spans_.has_value() ? &*spans_ : nullptr,
                            windowed_.has_value() ? &*windowed_ : nullptr});
}

ScheduleObserver* RunCollectors::observer() {
  if (windowed_.has_value()) return &fanout_;
  return session_;
}

void RunCollectors::finalize() {
  if (spans_.has_value()) spans_->finalize();
  if (windowed_.has_value()) windowed_->finalize();
}

std::string RunCollectors::windows_jsonl() const {
  if (!windowed_.has_value()) return {};
  std::ostringstream out;
  windowed_->write_jsonl(out);
  return out.str();
}

void RunCollectors::save_state(std::ostream& out) const {
  if (spans_.has_value()) spans_->save_state(out);
  if (windowed_.has_value()) windowed_->save_state(out);
}

void RunCollectors::restore_state(std::istream& in,
                                  const std::string& context) {
  if (spans_.has_value()) spans_->restore_state(in, context);
  if (windowed_.has_value()) windowed_->restore_state(in, context);
}

RunArtifacts build_run_report(const std::string& command,
                              const Scenario& scenario,
                              const ScenarioContext& context,
                              const ScenarioOutcome& outcome,
                              const RunCollectors& collectors) {
  RunArtifacts out;
  RunReport& report = out.report;
  report.command = command;
  report.name = scenario.name;
  report.policy = scenario.policy;
  report.system = std::string(to_string(scenario.system));
  report.discipline = std::string(to_string(scenario.discipline));
  report.cores = scenario.make_system().core_count();
  report.seed = scenario.seed;
  report.jobs = scenario.arrivals.count;
  report.suite_key = suite_cache_key(scenario.suite, context.energy());
  report.completed_jobs = outcome.result.completed_jobs;
  report.makespan = outcome.result.makespan;
  report.total_energy_mj = outcome.result.total_energy().millijoules();
  report.stream_digest = outcome.stream.digest();
  MetricsRegistry metrics;
  record_scenario_metrics(metrics, scenario.name + ".", outcome);
  report.metrics_json = metrics.to_json();
  if (const WindowedCollector* windows = collectors.windows()) {
    attach_window_summary(report, *windows, AnomalyConfig{});
    attach_latency_summary(report, {collectors.spans()});
    out.windows_jsonl = collectors.windows_jsonl();
  }
  if (outcome.portfolio.has_value()) {
    attach_portfolio_summary(report, *outcome.portfolio);
    if (collectors.windows() != nullptr) {
      out.windows_jsonl += portfolio_switch_jsonl(*outcome.portfolio);
    }
  }
  if (outcome.dag.has_value()) attach_dag_summary(report, *outcome.dag);
  return out;
}

void record_scenario_metrics(MetricsRegistry& metrics,
                             const std::string& prefix,
                             const ScenarioOutcome& outcome) {
  record_result_metrics(metrics, prefix, outcome.result);
  const StreamStats& s = outcome.stream;
  metrics.counter(prefix + "stream.slices").add(s.slices());
  metrics.counter(prefix + "stream.completed_slices")
      .add(s.completed_slices());
  metrics.counter(prefix + "stream.busy_cycles").add(s.busy_cycles());
  metrics.counter(prefix + "stream.idle_cycles").add(s.idle_cycles());
  metrics.counter(prefix + "stream.longest_slice_cycles")
      .add(s.longest_slice());
  metrics.counter(prefix + "stream.dispatches").add(s.dispatches());
  metrics.counter(prefix + "stream.idle_intervals").add(s.idle_intervals());
  metrics.counter(prefix + "stream.reconfig_attempts")
      .add(s.reconfig_attempts());
  metrics.counter(prefix + "stream.reconfig_failures")
      .add(s.reconfig_failures());
  metrics.counter(prefix + "stream.invariant_violations")
      .add(s.invariant_violations());
  metrics.counter(prefix + "stream.digest").add(s.digest());
}

void attach_portfolio_summary(RunReport& report,
                              const PortfolioStats& stats) {
  report.policy_win_rates.clear();
  report.policy_switches.clear();
  for (std::size_t i = 0; i < stats.contenders.size(); ++i) {
    RunReport::PolicyWinRate row;
    row.name = stats.contenders[i];
    row.windows_won = stats.windows_active[i];
    row.win_rate =
        stats.windows_closed == 0
            ? 0.0
            : static_cast<double>(stats.windows_active[i]) /
                  static_cast<double>(stats.windows_closed);
    report.policy_win_rates.push_back(std::move(row));
  }
  for (const PortfolioStats::Switch& s : stats.switches) {
    report.policy_switches.push_back({s.window, s.time, s.from, s.to});
  }
}

void attach_dag_summary(RunReport& report, const DagStats& stats) {
  RunReport::DagSummary summary;
  summary.nodes = stats.nodes;
  summary.edges = stats.edges;
  summary.releases = stats.releases;
  summary.ready_peak = stats.ready_peak;
  summary.max_rank = stats.max_rank;
  summary.release_latency_cycles = stats.release_latency_total;
  summary.cp_slack_total = stats.cp_slack_total;
  report.dag = summary;
}

void record_dispatch_metrics(MetricsRegistry& metrics,
                             const std::string& prefix,
                             const DispatchTelemetry& dispatch) {
  metrics.counter(prefix + "decisions").add(dispatch.decisions);
  metrics.counter(prefix + "idle_queries").add(dispatch.idle_queries);
  metrics.counter(prefix + "words_scanned").add(dispatch.words_scanned);
  metrics.counter(prefix + "clamp_lookups").add(dispatch.clamp_lookups);
  metrics.counter(prefix + "clamp_hits").add(dispatch.clamp_hits);
  metrics.counter(prefix + "rebuilds").add(dispatch.rebuilds);
}

}  // namespace hetsched

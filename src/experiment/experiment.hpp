// Section V harness: the paper's four systems (paper_systems) over one
// arrival stream. The set-up is a ScenarioContext built for the proposed
// system, exactly as `hetsched compare` builds it, so the suite, energy
// model and trained predictor are the CLI's. A registry policy runs
// through ScenarioRun, as every CLI run does; a custom policy runs through
// MulticoreSimulator::run over the same stream held as a batch. Every
// bench binary and example builds on this class.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/policies.hpp"
#include "core/simulator.hpp"
#include "scenario/scenario_runner.hpp"

namespace hetsched {

// Scaled-down set-up for unit/integration tests: smaller kernels, fewer
// arrivals, lighter ANN training.
Scenario quick_scenario();

// Oracle predictor for ablations: answers with the characterised best
// size (what a perfect ANN would say).
class OracleSizePredictor final : public SizePredictor {
 public:
  explicit OracleSizePredictor(const CharacterizedSuite& suite)
      : suite_(&suite) {}

  std::uint32_t predict(std::size_t benchmark_id,
                        const ExecutionStatistics& stats) const override {
    (void)stats;
    return suite_->benchmark(benchmark_id).oracle_best_size();
  }

 private:
  const CharacterizedSuite* suite_;
};

struct SystemRun {
  std::string name;
  SimulationResult result;
  // Per scheduled benchmark: configurations observed by the end of the run
  // (the tuning-footprint data behind the Figure-5 discussion).
  std::vector<std::size_t> explored_configs;
};

// Ratios relative to a reference system (Figures 6 and 7 are built from
// these).
struct NormalizedEnergy {
  double idle = 1.0;
  double dynamic = 1.0;
  double total = 1.0;
  double cycles = 1.0;    // total execution cycles (work)
  double makespan = 1.0;  // completion time of the last job
};

NormalizedEnergy normalize(const SimulationResult& system,
                           const SimulationResult& reference);

class Experiment {
 public:
  // `setup` gives the suite, arrivals, seed, cores and predictor budget;
  // each run replaces its name, policy and machine (named_system). Its
  // fault plan, real-time options, DAG and queue discipline reach run()
  // only (they are ScenarioRun features), so leave them at their
  // defaults when comparing run() with run_with().
  // `profile_cache_path` and `energy_params` go to the ScenarioContext.
  explicit Experiment(const Scenario& setup = {},
                      const std::string& profile_cache_path = "",
                      const EnergyModelParams& energy_params = {});

  // The proposed system's scenario, which the context was built for.
  const Scenario& scenario() const { return scenario_; }
  const ScenarioContext& context() const { return context_; }
  const EnergyModel& energy() const { return context_.energy(); }
  const CharacterizedSuite& suite() const { return context_.suite(); }
  const BestSizePredictor& predictor() const {
    return *context_.trained_predictor();
  }
  const std::vector<JobArrival>& arrivals() const { return arrivals_; }
  const std::vector<std::size_t>& scheduling_ids() const {
    return context_.scheduling_ids();
  }

  // The registry policy `policy` on its default machine, as a ScenarioRun
  // of the set-up. An optional observer (ScheduleLog, EventTracer)
  // receives that run's schedule events.
  SystemRun run(std::string_view policy,
                ScheduleObserver* observer = nullptr) const;
  // A custom (or custom-wired, e.g. oracle-backed) policy on the proposed
  // system's machine, over arrivals().
  SystemRun run_with(SchedulerPolicy& policy, std::string name,
                     ScheduleObserver* observer = nullptr) const;
  // run() of every paper_systems() policy, in that order, fanned out over
  // the shared thread pool. observers[i] (optional; empty = none)
  // receives only system i's events on that run's thread, so per-run
  // recorders need no synchronisation and stay thread-count independent.
  std::vector<SystemRun> run_paper_systems(
      std::span<ScheduleObserver* const> observers = {}) const;

 private:
  SystemRun finish(std::string name, SimulationResult result,
                   const ProfilingTable& table) const;

  Scenario scenario_;
  ScenarioContext context_;
  std::vector<JobArrival> arrivals_;
};

}  // namespace hetsched

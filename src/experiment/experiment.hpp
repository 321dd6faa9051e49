// End-to-end experiment harness (Section V): builds the characterised
// suite, trains the ANN predictor, generates the 5000-job arrival stream,
// and runs the four evaluated systems over the *same* stream. Every bench
// binary and example builds on this class.
#pragma once

#include <memory>
#include <string>

#include "core/policies.hpp"
#include "core/simulator.hpp"
#include "workload/dataset_builder.hpp"

namespace hetsched {

struct ExperimentOptions {
  SuiteOptions suite{};
  ArrivalOptions arrivals{};
  PredictorConfig predictor{};
  EnergyModelParams energy_params{};
  std::uint64_t seed = 42;
  // Number of cores in every evaluated system. 4 (the default) reproduces
  // the paper machines exactly; other values use the scaled heterogeneous
  // layout (system_config.hpp) for the reconfigurable systems and a
  // same-sized fixed-base machine for the baseline.
  std::size_t core_count = 4;
  // When non-empty, characterisation is served from this snapshot file
  // when it is present and keyed to (suite, energy_params); otherwise it
  // is built and the file refreshed (workload/profile_cache.hpp).
  std::string profile_cache_path;

  // Scaled-down preset for unit/integration tests: smaller kernels, fewer
  // arrivals, lighter ANN training.
  static ExperimentOptions quick();
};

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
  explicit Experiment(const ExperimentOptions& options = {});

  const ExperimentOptions& options() const { return options_; }
  const EnergyModel& energy() const { return energy_; }
  const CharacterizedSuite& suite() const { return suite_; }
  const BestSizePredictor& predictor() const { return *predictor_; }
  const std::vector<JobArrival>& arrivals() const { return arrivals_; }
  const std::vector<std::size_t>& scheduling_ids() const {
    return scheduling_ids_;
  }

  // The four systems of Section V. Each runs the identical arrival stream
  // on a fresh machine. An optional observer (ScheduleLog, EventTracer)
  // receives that run's schedule events.
  SystemRun run_base(ScheduleObserver* observer = nullptr) const;
  SystemRun run_optimal(ScheduleObserver* observer = nullptr) const;
  SystemRun run_energy_centric(ScheduleObserver* observer = nullptr) const;
  SystemRun run_proposed(ScheduleObserver* observer = nullptr) const;

  // All four Section-V systems, fanned out over the shared thread pool.
  // The runs are independent (fresh simulator and policy each, read-only
  // suite/energy/predictor), so the results are identical to calling the
  // four run_*() methods serially.
  struct StandardRuns {
    SystemRun base;
    SystemRun optimal;
    SystemRun energy_centric;
    SystemRun proposed;
  };
  // One optional observer per system; each receives only its own run's
  // events (on that run's simulation thread), so per-run recorders need
  // no synchronisation and their contents are thread-count independent.
  struct StandardObservers {
    ScheduleObserver* base = nullptr;
    ScheduleObserver* optimal = nullptr;
    ScheduleObserver* energy_centric = nullptr;
    ScheduleObserver* proposed = nullptr;
  };
  StandardRuns run_standard_systems() const;
  StandardRuns run_standard_systems(const StandardObservers& observers) const;

  // Ablation entry point: the proposed/energy-centric systems with an
  // arbitrary predictor (e.g. OracleSizePredictor).
  SystemRun run_proposed_with(const SizePredictor& predictor,
                              std::string name) const;
  SystemRun run_energy_centric_with(const SizePredictor& predictor,
                                    std::string name) const;

 private:
  SystemRun run_policy(const SystemConfig& system, SchedulerPolicy& policy,
                       std::string name,
                       ScheduleObserver* observer = nullptr) const;
  // The machine `policy` runs on (default_machine at core_count).
  SystemConfig system_for(std::string_view policy) const;

  ExperimentOptions options_;
  EnergyModel energy_;
  CharacterizedSuite suite_;
  std::unique_ptr<BestSizePredictor> predictor_;
  std::vector<std::size_t> scheduling_ids_;
  std::vector<JobArrival> arrivals_;
};

}  // namespace hetsched

#include "experiment/experiment.hpp"

#include "scenario/scenario.hpp"
#include "util/contracts.hpp"
#include "util/thread_pool.hpp"
#include "workload/profile_cache.hpp"

namespace hetsched {
ExperimentOptions ExperimentOptions::quick() {
  ExperimentOptions opts;
  opts.suite.kernel_scale = 0.25;
  opts.suite.variants_per_kernel = 2;
  opts.arrivals.count = 300;
  opts.arrivals.mean_interarrival_cycles = 60000.0;
  opts.predictor.ensemble_size = 5;
  opts.predictor.trainer.max_epochs = 120;
  return opts;
}

NormalizedEnergy normalize(const SimulationResult& system,
                           const SimulationResult& reference) {
  NormalizedEnergy n;
  auto ratio = [](NanoJoules a, NanoJoules b) {
    return b.value() > 0.0 ? a / b : 1.0;
  };
  n.idle = ratio(system.idle_energy, reference.idle_energy);
  n.dynamic = ratio(system.dynamic_energy, reference.dynamic_energy);
  n.total = ratio(system.total_energy(), reference.total_energy());
  n.cycles =
      reference.total_execution_cycles > 0
          ? static_cast<double>(system.total_execution_cycles) /
                static_cast<double>(reference.total_execution_cycles)
          : 1.0;
  n.makespan = reference.makespan > 0
                   ? static_cast<double>(system.makespan) /
                         static_cast<double>(reference.makespan)
                   : 1.0;
  return n;
}

Experiment::Experiment(const ExperimentOptions& options)
    : options_(options),
      energy_(CactiModel{}, options.energy_params),
      suite_(load_or_build_suite(options.profile_cache_path, energy_,
                                 options.suite)),
      predictor_(train_size_predictor(suite_, options.predictor,
                                      options.seed)) {
  scheduling_ids_ = suite_.scheduling_ids();
  HETSCHED_ASSERT(!scheduling_ids_.empty());
  Rng arrival_rng(options_.seed ^ 0xa5a5a5a5ULL);
  arrivals_ =
      generate_arrivals(scheduling_ids_, options_.arrivals, arrival_rng);
}

SystemRun Experiment::run_policy(const SystemConfig& system,
                                 SchedulerPolicy& policy, std::string name,
                                 ScheduleObserver* observer) const {
  MulticoreSimulator simulator(system, suite_, energy_, policy);
  if (observer != nullptr) simulator.set_observer(observer);
  SystemRun run;
  run.name = std::move(name);
  run.result = simulator.run(arrivals_);
  run.explored_configs.reserve(scheduling_ids_.size());
  for (std::size_t id : scheduling_ids_) {
    run.explored_configs.push_back(
        simulator.table().entry(id).observed_count());
  }
  return run;
}

SystemConfig Experiment::system_for(std::string_view policy) const {
  Scenario machine;
  machine.cores = options_.core_count;
  machine.system = default_machine(policy, machine.cores);
  return machine.make_system();
}

SystemRun Experiment::run_base(ScheduleObserver* observer) const {
  BasePolicy policy;
  return run_policy(system_for("base"), policy, "base", observer);
}

SystemRun Experiment::run_optimal(ScheduleObserver* observer) const {
  OptimalPolicy policy;
  return run_policy(system_for("optimal"), policy, "optimal", observer);
}

SystemRun Experiment::run_energy_centric(ScheduleObserver* observer) const {
  EnergyCentricPolicy policy(*predictor_);
  return run_policy(system_for("energy-centric"), policy, "energy-centric",
                    observer);
}

SystemRun Experiment::run_proposed(ScheduleObserver* observer) const {
  ProposedPolicy policy(*predictor_);
  return run_policy(system_for("proposed"), policy, "proposed", observer);
}

Experiment::StandardRuns Experiment::run_standard_systems() const {
  return run_standard_systems(StandardObservers{});
}

Experiment::StandardRuns Experiment::run_standard_systems(
    const StandardObservers& observers) const {
  StandardRuns runs;
  SystemRun* const slots[4] = {&runs.base, &runs.optimal,
                               &runs.energy_centric, &runs.proposed};
  ThreadPool::global().parallel_for(4, [&](std::size_t i) {
    switch (i) {
      case 0: *slots[0] = run_base(observers.base); break;
      case 1: *slots[1] = run_optimal(observers.optimal); break;
      case 2:
        *slots[2] = run_energy_centric(observers.energy_centric);
        break;
      default: *slots[3] = run_proposed(observers.proposed); break;
    }
  });
  return runs;
}

SystemRun Experiment::run_proposed_with(const SizePredictor& predictor,
                                        std::string name) const {
  ProposedPolicy policy(predictor);
  return run_policy(system_for("proposed"), policy, std::move(name));
}

SystemRun Experiment::run_energy_centric_with(const SizePredictor& predictor,
                                              std::string name) const {
  EnergyCentricPolicy policy(predictor);
  return run_policy(system_for("proposed"), policy, std::move(name));
}

}  // namespace hetsched

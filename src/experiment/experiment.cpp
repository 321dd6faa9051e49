#include "experiment/experiment.hpp"

#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace hetsched {
Scenario quick_scenario() {
  Scenario setup;
  setup.suite.kernel_scale = 0.25;
  setup.suite.variants_per_kernel = 2;
  setup.arrivals.count = 300;
  setup.arrivals.mean_interarrival_cycles = 60000.0;
  setup.predictor_ensemble = 5;
  setup.predictor_max_epochs = 120;
  return setup;
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

Experiment::Experiment(const Scenario& setup,
                       const std::string& profile_cache_path,
                       const EnergyModelParams& energy_params)
    : scenario_(named_system(setup, "proposed")),
      context_(scenario_, profile_cache_path, {}, energy_params) {
  // The batch form of the stream every ScenarioRun generates (same ids,
  // options and seed derivation), for run_with.
  Rng arrival_rng(scenario_.seed ^ 0xa5a5a5a5ULL);
  arrivals_ = generate_arrivals(scheduling_ids(), scenario_.arrivals,
                                arrival_rng);
}

SystemRun Experiment::finish(std::string name, SimulationResult result,
                             const ProfilingTable& table) const {
  SystemRun run{std::move(name), std::move(result), {}};
  run.explored_configs.reserve(scheduling_ids().size());
  for (std::size_t id : scheduling_ids()) {
    run.explored_configs.push_back(table.entry(id).observed_count());
  }
  return run;
}

SystemRun Experiment::run(std::string_view policy,
                          ScheduleObserver* observer) const {
  const Scenario system = named_system(scenario_, policy);
  ScenarioRun run(system, context_, observer);
  SimulationResult result = run.execute().result;
  return finish(system.name, std::move(result), run.simulator().table());
}

SystemRun Experiment::run_with(SchedulerPolicy& policy, std::string name,
                               ScheduleObserver* observer) const {
  MulticoreSimulator simulator(scenario_.make_system(), suite(), energy(),
                               policy);
  if (observer != nullptr) simulator.set_observer(observer);
  SimulationResult result = simulator.run(arrivals_);
  return finish(std::move(name), std::move(result), simulator.table());
}

std::vector<SystemRun> Experiment::run_paper_systems(
    std::span<ScheduleObserver* const> observers) const {
  const std::vector<Scenario> systems = paper_systems(scenario_);
  HETSCHED_REQUIRE(observers.empty() || observers.size() == systems.size());
  std::vector<SystemRun> runs(systems.size());
  ThreadPool::global().parallel_for(systems.size(), [&](std::size_t i) {
    runs[i] = run(systems[i].policy,
                  observers.empty() ? nullptr : observers[i]);
  });
  return runs;
}

}  // namespace hetsched

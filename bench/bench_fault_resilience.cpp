// Fault-resilience sweep — how the four Section-V systems degrade as the
// injected fault rate grows. A uniform rate drives reconfiguration
// failures, stuck-job hangs and counter corruption simultaneously; every
// system runs the identical arrival stream at every rate.
//
// The robustness claim under test: the proposed system keeps completing
// (effectively) every job under faults — watchdog re-dispatch recovers
// stuck jobs, failed reconfigurations degrade to the stale configuration,
// and the prediction sanity guard absorbs corrupted counters — while its
// energy advantage over the base system erodes only gradually.
#include <iostream>
#include <vector>

#include "core/policies.hpp"
#include "core/simulator.hpp"
#include "experiment/experiment.hpp"
#include "fault/fault_injector.hpp"
#include "util/csv.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  Scenario setup;
  setup.arrivals.count = 2000;
  Experiment experiment(setup);
  const OracleSizePredictor oracle(experiment.suite());

  const std::vector<double> rates = {0.0,  0.001, 0.005, 0.01,
                                     0.02, 0.05,  0.1};
  const std::vector<std::string> systems = {"base", "optimal",
                                            "energy-centric", "proposed"};

  auto run_system = [&](const std::string& name,
                        double rate) -> SimulationResult {
    const FaultPlan plan = FaultPlan::uniform(rate, 1017);
    auto simulate = [&](SchedulerPolicy& policy,
                        const SystemConfig& system) {
      MulticoreSimulator sim(system, experiment.suite(),
                             experiment.energy(), policy);
      FaultInjector injector(plan);
      sim.set_fault_injector(&injector);
      return sim.run(experiment.arrivals());
    };
    if (name == "base") {
      BasePolicy policy;
      return simulate(policy, SystemConfig::fixed_base(4));
    }
    if (name == "optimal") {
      OptimalPolicy policy;
      return simulate(policy, SystemConfig::paper_quadcore());
    }
    if (name == "energy-centric") {
      EnergyCentricPolicy policy(oracle);
      return simulate(policy, SystemConfig::paper_quadcore());
    }
    ProposedPolicy policy(oracle);
    return simulate(policy, SystemConfig::paper_quadcore());
  };

  std::cout << "=== Fault resilience: uniform fault rate sweep ===\n"
            << "(" << experiment.arrivals().size()
            << " arrivals; rate applies to reconfig failures, stuck jobs "
               "and counter corruption)\n\n";

  CsvWriter csv("fault_resilience.csv",
                {"rate", "system", "completed", "completed_fraction",
                 "total_mJ", "makespan", "injected_faults",
                 "watchdog_fires", "degraded_executions",
                 "prediction_fallbacks"});

  TablePrinter table({"rate", "system", "completed", "total mJ",
                      "makespan", "faults", "watchdog", "degraded",
                      "fallbacks"});
  double proposed_completion_at_1pct = 0.0;
  for (const double rate : rates) {
    for (const std::string& name : systems) {
      const SimulationResult r = run_system(name, rate);
      const double fraction =
          static_cast<double>(r.completed_jobs) /
          static_cast<double>(experiment.arrivals().size());
      if (name == "proposed" && rate == 0.01) {
        proposed_completion_at_1pct = fraction;
      }
      table.add_row({TablePrinter::num(rate, 3), name,
                     std::to_string(r.completed_jobs),
                     TablePrinter::num(r.total_energy().millijoules(), 1),
                     std::to_string(r.makespan),
                     std::to_string(r.faults.injected),
                     std::to_string(r.faults.watchdog_fires),
                     std::to_string(r.faults.degraded_executions),
                     std::to_string(r.faults.prediction_fallbacks)});
      // CSVs are machine-read: full round-trippable precision, not the
      // rounded console-table values.
      csv.add_row({CsvWriter::number(rate), name,
                   std::to_string(r.completed_jobs),
                   CsvWriter::number(fraction),
                   CsvWriter::number(r.total_energy().millijoules()),
                   std::to_string(r.makespan),
                   std::to_string(r.faults.injected),
                   std::to_string(r.faults.watchdog_fires),
                   std::to_string(r.faults.degraded_executions),
                   std::to_string(r.faults.prediction_fallbacks)});
    }
  }
  table.print(std::cout);

  std::cout << "\nProposed-system completion at 1% fault rate: "
            << TablePrinter::pct(proposed_completion_at_1pct - 1.0)
            << " vs fault-free (target: >= 99% of jobs complete)\n"
            << "Series written to fault_resilience.csv\n";
  return proposed_completion_at_1pct >= 0.99 ? 0 : 1;
}

// Ablation: offered load.
//
// Sweeps the mean inter-arrival gap of the 5000-job stream and reports
// every system's total energy (relative to the base system at the same
// load) plus makespan and base-system core utilisation. Shows where the
// scheduling decisions actually matter: under light load every policy
// degenerates to "best core is idle"; under heavy load the
// energy-advantageous decision separates the proposed system from the
// always-stall energy-centric one.
#include <iostream>

#include "experiment/experiment.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  const double gaps[] = {40000, 60000, 80000, 120000, 160000, 240000};

  TablePrinter table({"interarrival", "base util", "optimal", "energy-centric",
                      "proposed", "opt cyc", "ec cyc", "prop cyc"});

  for (double gap : gaps) {
    Scenario setup;
    setup.arrivals.mean_interarrival_cycles = gap;
    Experiment experiment(setup);

    const std::vector<SystemRun> runs = experiment.run_paper_systems();
    const SystemRun& base = runs[0];
    const SystemRun& optimal = runs[1];
    const SystemRun& ec = runs[2];
    const SystemRun& proposed = runs[3];

    double util = 0.0;
    for (const CoreUsage& core : base.result.per_core) {
      util += core.utilization;
    }
    util /= static_cast<double>(base.result.per_core.size());

    const NormalizedEnergy n_opt = normalize(optimal.result, base.result);
    const NormalizedEnergy n_ec = normalize(ec.result, base.result);
    const NormalizedEnergy n_prop = normalize(proposed.result, base.result);

    table.add_row({TablePrinter::num(gap, 0),
                   TablePrinter::num(util * 100.0, 1) + "%",
                   TablePrinter::pct(n_opt.total - 1.0),
                   TablePrinter::pct(n_ec.total - 1.0),
                   TablePrinter::pct(n_prop.total - 1.0),
                   TablePrinter::pct(n_opt.cycles - 1.0),
                   TablePrinter::pct(n_ec.cycles - 1.0),
                   TablePrinter::pct(n_prop.cycles - 1.0)});
  }

  std::cout << "=== Ablation: offered load (energy/cycles vs base at the "
               "same load) ===\n\n";
  table.print(std::cout);
  return 0;
}

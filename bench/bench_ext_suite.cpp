// Extension bench: suite-size robustness.
//
// Re-runs the Figure-6 comparison with the extended kernel pack enabled
// (27 kernels instead of 19), checking that the headline result — the
// proposed scheduler's large total-energy win over the fixed base system
// — is not an artifact of the calibrated 19-kernel suite.
#include <iostream>

#include "experiment/experiment.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  std::cout << "=== Extension: 27-kernel suite (standard + extended) ===\n\n";

  TablePrinter table({"suite", "kernels", "ANN hits", "optimal",
                      "energy-centric", "proposed"});
  for (const bool extended : {false, true}) {
    Scenario setup;
    setup.suite.include_extended = extended;
    Experiment experiment(setup);

    std::size_t hits = 0;
    for (std::size_t id : experiment.scheduling_ids()) {
      const BenchmarkProfile& b = experiment.suite().benchmark(id);
      if (experiment.predictor().predict_size_bytes(b.base_statistics) ==
          b.oracle_best_size()) {
        ++hits;
      }
    }

    const SystemRun base = experiment.run("base");
    const double opt =
        normalize(experiment.run("optimal").result, base.result).total;
    const double ec = normalize(experiment.run("energy-centric").result,
                                base.result)
                          .total;
    const double prop =
        normalize(experiment.run("proposed").result, base.result).total;

    table.add_row({extended ? "standard+extended" : "standard",
                   std::to_string(experiment.scheduling_ids().size()),
                   std::to_string(hits) + "/" +
                       std::to_string(experiment.scheduling_ids().size()),
                   TablePrinter::num(opt, 3), TablePrinter::num(ec, 3),
                   TablePrinter::num(prop, 3)});
  }
  table.print(std::cout);
  std::cout << "\nTotal energy normalised to the base system at the same "
               "load. The proposed system's reduction must survive the "
               "suite change.\n";
  return 0;
}

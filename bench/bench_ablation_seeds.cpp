// Ablation: robustness across random seeds.
//
// The headline numbers must not be an artifact of one arrival stream or
// one ANN initialisation. Re-runs the full pipeline across seeds and
// reports the distribution of the Figure-6 total-energy ratios.
#include <iostream>

#include "experiment/experiment.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  std::cout << "=== Ablation: seed robustness (Figure 6 totals) ===\n\n";

  RunningStats opt, ec, prop, ann_hits;
  TablePrinter table({"seed", "optimal", "energy-centric", "proposed",
                      "ANN hits"});
  for (std::uint64_t seed : {42ull, 7ull, 1234ull, 9001ull, 31415ull}) {
    Scenario setup;
    setup.seed = seed;
    Experiment experiment(setup);
    const SystemRun base = experiment.run("base");
    const double n_opt =
        normalize(experiment.run("optimal").result, base.result).total;
    const double n_ec =
        normalize(experiment.run("energy-centric").result, base.result).total;
    const double n_prop =
        normalize(experiment.run("proposed").result, base.result).total;

    std::size_t hits = 0;
    for (std::size_t id : experiment.scheduling_ids()) {
      const BenchmarkProfile& b = experiment.suite().benchmark(id);
      if (experiment.predictor().predict_size_bytes(b.base_statistics) ==
          b.oracle_best_size()) {
        ++hits;
      }
    }
    opt.add(n_opt);
    ec.add(n_ec);
    prop.add(n_prop);
    ann_hits.add(static_cast<double>(hits));
    table.add_row({std::to_string(seed), TablePrinter::num(n_opt, 3),
                   TablePrinter::num(n_ec, 3), TablePrinter::num(n_prop, 3),
                   std::to_string(hits) + "/" +
                       std::to_string(experiment.scheduling_ids().size())});
  }
  table.print(std::cout);

  std::cout << "\nMean total-energy ratio vs base: optimal "
            << TablePrinter::num(opt.mean(), 3) << " (s.d. "
            << TablePrinter::num(opt.stddev(), 3) << "), energy-centric "
            << TablePrinter::num(ec.mean(), 3) << " (s.d. "
            << TablePrinter::num(ec.stddev(), 3) << "), proposed "
            << TablePrinter::num(prop.mean(), 3) << " (s.d. "
            << TablePrinter::num(prop.stddev(), 3) << ")\n"
            << "Mean exact ANN best-size hits: "
            << TablePrinter::num(ann_hits.mean(), 1) << "/"
            << "19\n";
  return 0;
}

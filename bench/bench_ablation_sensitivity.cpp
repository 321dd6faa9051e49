// Ablation: energy-model sensitivity.
//
// The absolute constants of the Figure-4 model (off-chip energy, static
// fraction, CPU idle/active power) come from CACTI/datasheet calibration
// the paper does not publish. This bench perturbs each constant across a
// wide range and reports the proposed system's total-energy ratio vs
// base, plus the oracle best-size distribution — showing which
// conclusions depend on calibration and which do not.
#include <iostream>
#include <map>

#include "experiment/experiment.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace hetsched;

struct Row {
  std::string label;
  EnergyModelParams params;
};

std::string size_histogram(const Experiment& experiment) {
  std::map<std::uint32_t, int> sizes;
  for (std::size_t id : experiment.scheduling_ids()) {
    ++sizes[experiment.suite().benchmark(id).oracle_best_size()];
  }
  std::string out;
  for (const auto& [size, count] : sizes) {
    out += std::to_string(size / 1024) + "K=" + std::to_string(count) + " ";
  }
  if (!out.empty()) out.pop_back();
  return out;
}

}  // namespace

int main() {
  using namespace hetsched;

  std::vector<Row> rows;
  rows.push_back({"defaults", {}});
  {
    EnergyModelParams p;
    p.offchip_access = NanoJoules(3.0);
    p.offchip_per_beat = NanoJoules(0.75);
    rows.push_back({"off-chip energy x0.5", p});
  }
  {
    EnergyModelParams p;
    p.offchip_access = NanoJoules(12.0);
    p.offchip_per_beat = NanoJoules(3.0);
    rows.push_back({"off-chip energy x2", p});
  }
  {
    EnergyModelParams p;
    p.static_fraction = 0.05;
    rows.push_back({"leakage fraction 5%", p});
  }
  {
    EnergyModelParams p;
    p.static_fraction = 0.20;
    rows.push_back({"leakage fraction 20%", p});
  }
  {
    EnergyModelParams p;
    p.core_idle_per_cycle = NanoJoules(0.05);
    rows.push_back({"idle power x1/6", p});
  }
  {
    EnergyModelParams p;
    p.core_active_per_cycle = NanoJoules(0.40);
    rows.push_back({"active power x2", p});
  }
  {
    EnergyModelParams p;
    p.miss_latency = 80;
    p.bandwidth_cycles_per_beat = 40;
    rows.push_back({"miss penalty x2", p});
  }

  std::cout << "=== Ablation: energy-model sensitivity ===\n\n";

  TablePrinter table({"perturbation", "proposed/base total",
                      "optimal/base total", "oracle sizes"});
  for (const Row& row : rows) {
    Scenario setup;
    setup.arrivals.count = 2500;  // keep the sweep quick
    Experiment experiment(setup, "", row.params);
    const SystemRun base = experiment.run("base");
    const double prop =
        normalize(experiment.run("proposed").result, base.result).total;
    const double opt =
        normalize(experiment.run("optimal").result, base.result).total;
    table.add_row({row.label, TablePrinter::num(prop, 3),
                   TablePrinter::num(opt, 3),
                   size_histogram(experiment)});
  }
  table.print(std::cout);

  std::cout << "\nThe proposed system's total-energy reduction must hold "
               "across every perturbation (the headline is not a "
               "calibration artifact), while the best-size mix is allowed "
               "to shift with the constants.\n";
  return 0;
}

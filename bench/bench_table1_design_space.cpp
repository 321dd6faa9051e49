// Table 1 — the cache configuration design space.
//
// Prints the 18 Table-1 configurations with the per-access energy model
// values (Figure 4 pieces) and the suite-averaged characterisation:
// mean miss rate, mean execution cycles and mean total energy across the
// scheduling benchmarks, each normalised to the base configuration
// 8KB_4W_64B. Also prints the per-benchmark oracle best configuration —
// the ground truth behind every scheduling experiment.
#include <iostream>
#include <map>

#include "experiment/experiment.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  Experiment experiment;
  const CharacterizedSuite& suite = experiment.suite();
  const EnergyModel& model = experiment.energy();
  const auto ids = experiment.scheduling_ids();

  std::cout << "=== Table 1: cache configuration design space ===\n\n";

  const auto base_index =
      *DesignSpace::index_of(DesignSpace::base_config());

  TablePrinter table({"config", "E(hit) nJ", "E(miss) nJ", "E(sta)/cyc nJ",
                      "stall cyc/miss", "miss rate", "cycles vs base",
                      "energy vs base"});
  for (const CacheConfig& config : DesignSpace::all()) {
    const auto idx = *DesignSpace::index_of(config);
    RunningStats miss_rate, rel_cycles, rel_energy;
    for (std::size_t id : ids) {
      const BenchmarkProfile& b = suite.benchmark(id);
      const ConfigProfile& cp = b.per_config[idx];
      const ConfigProfile& bp = b.per_config[base_index];
      miss_rate.add(cp.cache.miss_rate());
      rel_cycles.add(static_cast<double>(cp.energy.total_cycles) /
                     static_cast<double>(bp.energy.total_cycles));
      rel_energy.add(cp.energy.total() / bp.energy.total());
    }
    table.add_row(
        {config.name(), TablePrinter::num(model.hit_energy(config).value()),
         TablePrinter::num(model.miss_energy(config).value(), 2),
         TablePrinter::num(model.static_per_cycle(config).value(), 4),
         std::to_string(model.stall_cycles_per_miss(config)),
         TablePrinter::num(miss_rate.mean(), 4),
         TablePrinter::num(rel_cycles.mean(), 3),
         TablePrinter::num(rel_energy.mean(), 3)});
  }
  table.print(std::cout);

  std::cout << "\n=== Oracle best configuration per benchmark ===\n\n";
  TablePrinter best({"benchmark", "domain", "footprint B", "refs",
                     "best config", "best/base energy", "best/base cycles"});
  std::map<std::uint32_t, int> size_histogram;
  for (std::size_t id : ids) {
    const BenchmarkProfile& b = suite.benchmark(id);
    const ConfigProfile& opt = b.best_overall();
    const ConfigProfile& bp = b.per_config[base_index];
    ++size_histogram[opt.config.size_bytes];
    best.add_row({b.instance.name, std::string(to_string(b.instance.domain)),
                  std::to_string(b.footprint_bytes),
                  std::to_string(b.counters.memory_refs()),
                  opt.config.name(),
                  TablePrinter::num(opt.energy.total() / bp.energy.total(), 3),
                  TablePrinter::num(
                      static_cast<double>(opt.energy.total_cycles) /
                          static_cast<double>(bp.energy.total_cycles),
                      3)});
  }
  best.print(std::cout);

  std::cout << "\nOracle best-size distribution: ";
  for (const auto& [size, count] : size_histogram) {
    std::cout << size / 1024 << "KB=" << count << "  ";
  }
  std::cout << "\n";
  return 0;
}

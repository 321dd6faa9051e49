// Extension bench (paper future work, §VIII): additional cache levels.
//
// Re-characterises every scheduling benchmark across the 18 L1
// configurations with the private 32 KB L2 of Figure 1 in the loop,
// priced by the TwoLevelEnergyModel, and reports how the picture changes
// relative to the paper's Figure-4 (L1-miss-equals-off-chip) model:
// global miss rates, per-benchmark best configurations, and the value of
// the L2 itself.
#include <iostream>
#include <map>

#include "energy/two_level_model.hpp"
#include "experiment/experiment.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  Experiment experiment;
  const CharacterizedSuite& suite = experiment.suite();
  const TwoLevelEnergyModel two_level{CactiModel{}, EnergyModelParams{}};

  std::cout << "=== Extension: private L2 in the energy loop ===\n\n";

  const auto kernels = make_suite_kernels(experiment.scenario().suite);

  TablePrinter table({"benchmark", "L1-only best", "two-level best",
                      "global miss rate", "energy vs L1-only model"});
  std::map<std::uint32_t, int> l1_only_sizes, two_level_sizes;
  RunningStats energy_ratio;

  for (std::size_t id : experiment.scheduling_ids()) {
    const BenchmarkProfile& b = suite.benchmark(id);
    const KernelExecution exec =
        execute(*kernels[b.instance.kernel_index], b.instance.data_seed);

    const CacheConfig l1_best = b.best_overall().config;

    CacheConfig best_config = DesignSpace::all().front();
    EnergyBreakdown best_energy;
    double best_total = 0.0;
    double global_miss_at_best = 0.0;
    bool first = true;
    for (const CacheConfig& config : DesignSpace::all()) {
      const HierarchyStats stats = simulate_hierarchy(exec.trace, config);
      const EnergyBreakdown energy =
          two_level.evaluate(exec.counters, stats, config);
      if (first || energy.total().value() < best_total) {
        first = false;
        best_config = config;
        best_energy = energy;
        best_total = energy.total().value();
        global_miss_at_best = stats.global_miss_rate();
      }
    }

    ++l1_only_sizes[l1_best.size_bytes];
    ++two_level_sizes[best_config.size_bytes];
    const double ratio =
        best_total / b.best_overall().energy.total().value();
    energy_ratio.add(ratio);

    table.add_row({b.instance.name, l1_best.name(), best_config.name(),
                   TablePrinter::num(global_miss_at_best, 4),
                   TablePrinter::num(ratio, 3)});
  }
  table.print(std::cout);

  auto histogram = [](const std::map<std::uint32_t, int>& sizes) {
    std::string out;
    for (const auto& [size, count] : sizes) {
      out += std::to_string(size / 1024) + "KB=" + std::to_string(count) +
             " ";
    }
    return out;
  };
  std::cout << "\nBest-L1-size distribution:  L1-only model: "
            << histogram(l1_only_sizes)
            << " | two-level model: " << histogram(two_level_sizes)
            << "\nMean best-config energy vs the L1-only model: "
            << TablePrinter::num(energy_ratio.mean(), 3)
            << "x (the L2 absorbs most off-chip traffic, so the optimal "
               "L1 can shrink)\n";
  return 0;
}

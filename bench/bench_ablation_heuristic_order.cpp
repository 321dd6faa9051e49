// Ablation: tuning-heuristic parameter order.
//
// The paper explores associativity before line size "since the
// associativity has the second largest impact on energy after the size".
// This bench replays both orders offline against the characterised ground
// truth and compares executions-to-convergence and converged-configuration
// quality, validating the design choice.
#include <iostream>
#include <optional>

#include "core/tuning_heuristic.hpp"
#include "experiment/experiment.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace hetsched;

struct WalkOutcome {
  std::size_t executions = 0;
  CacheConfig converged;
};

// Generic greedy two-phase walk over (primary, secondary) parameter lists.
WalkOutcome greedy_walk(const BenchmarkProfile& profile, std::uint32_t size,
                        const std::vector<std::uint32_t>& primary,
                        const std::vector<std::uint32_t>& secondary,
                        bool assoc_first) {
  auto energy_of = [&](std::uint32_t p, std::uint32_t s) {
    const CacheConfig config = assoc_first ? CacheConfig{size, p, s}
                                           : CacheConfig{size, s, p};
    return profile.profile_for(config).energy.total();
  };
  WalkOutcome out;
  std::uint32_t best_p = primary.front();
  NanoJoules best = energy_of(best_p, secondary.front());
  ++out.executions;
  for (std::size_t i = 1; i < primary.size(); ++i) {
    const NanoJoules candidate = energy_of(primary[i], secondary.front());
    ++out.executions;
    if (candidate < best) {
      best = candidate;
      best_p = primary[i];
    } else {
      break;
    }
  }
  std::uint32_t best_s = secondary.front();
  for (std::size_t j = 1; j < secondary.size(); ++j) {
    const NanoJoules candidate = energy_of(best_p, secondary[j]);
    ++out.executions;
    if (candidate < best) {
      best = candidate;
      best_s = secondary[j];
    } else {
      break;
    }
  }
  out.converged = assoc_first ? CacheConfig{size, best_p, best_s}
                              : CacheConfig{size, best_s, best_p};
  return out;
}

}  // namespace

int main() {
  using namespace hetsched;

  Experiment experiment;
  const CharacterizedSuite& suite = experiment.suite();

  std::cout << "=== Ablation: heuristic exploration order ===\n\n";

  RunningStats af_runs, lf_runs, af_gap, lf_gap;
  for (std::size_t id : experiment.scheduling_ids()) {
    const BenchmarkProfile& b = suite.benchmark(id);
    for (std::uint32_t size : DesignSpace::sizes()) {
      const auto assocs = DesignSpace::associativities_for(size);
      const auto lines = DesignSpace::line_sizes();
      const NanoJoules optimum = b.best_for_size(size).energy.total();

      const WalkOutcome af = greedy_walk(b, size, assocs, lines, true);
      const WalkOutcome lf = greedy_walk(b, size, lines, assocs, false);
      af_runs.add(static_cast<double>(af.executions));
      lf_runs.add(static_cast<double>(lf.executions));
      af_gap.add(b.profile_for(af.converged).energy.total() / optimum - 1.0);
      lf_gap.add(b.profile_for(lf.converged).energy.total() / optimum - 1.0);
    }
  }

  TablePrinter table({"order", "mean executions", "max executions",
                      "mean gap vs optimum", "worst gap"});
  table.add_row({"associativity first (paper)",
                 TablePrinter::num(af_runs.mean(), 2),
                 TablePrinter::num(af_runs.max(), 0),
                 TablePrinter::pct(af_gap.mean()),
                 TablePrinter::pct(af_gap.max())});
  table.add_row({"line size first", TablePrinter::num(lf_runs.mean(), 2),
                 TablePrinter::num(lf_runs.max(), 0),
                 TablePrinter::pct(lf_gap.mean()),
                 TablePrinter::pct(lf_gap.max())});
  table.print(std::cout);

  std::cout << "\nGaps are the converged configuration's total energy vs "
               "the exhaustive per-size optimum, averaged over every "
               "(benchmark, core size) pair.\n";
  return 0;
}

// Ablation: the Section IV.E energy-advantageous decision.
//
// Compares four scheduling disciplines on the identical arrival stream:
//   always-stall   (energy-centric: fixed "stall" answer)
//   never-stall    (fixed "run on an idle non-best core" answer)
//   decision       (the proposed scheduler)
//   decision+oracle(proposed with a perfect size predictor)
// This isolates the paper's core observation: neither fixed decision
// dominates; the energy evaluation is what wins.
#include <iostream>

#include "core/tuning_heuristic.hpp"
#include "experiment/experiment.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace hetsched;

// Proposed-system flow with the stall-vs-run question hardwired to "run":
// if the best core is busy, take the first idle core (tuning it if its
// best configuration is unknown). Never stalls after profiling.
class NeverStallPolicy final : public SchedulerPolicy {
 public:
  explicit NeverStallPolicy(const SizePredictor& predictor)
      : predictor_(&predictor) {}

  std::string_view name() const override { return "never-stall"; }

  void on_profiled(std::size_t benchmark_id, SystemView& view) override {
    ProfilingTable::Entry& entry = view.table().entry(benchmark_id);
    entry.predicted_best_size_bytes =
        predictor_->predict(benchmark_id, entry.statistics);
  }

  Decision decide(const Job& job, SystemView& view) override {
    if (const auto profiling =
            policy_detail::profiling_decision(job, view)) {
      return *profiling;
    }
    const ProfilingTable::Entry& entry =
        view.table().entry(job.benchmark_id);
    const std::uint32_t best_size = *entry.predicted_best_size_bytes;
    for (std::size_t core : view.system().cores_with_size(best_size)) {
      if (!view.core(core).busy) {
        return policy_detail::run_with_heuristic(core, best_size, entry);
      }
    }
    const std::vector<std::size_t> idle = view.idle_cores();
    const std::size_t core = idle.front();
    return policy_detail::run_with_heuristic(
        core, view.core(core).spec.cache_size_bytes, entry);
  }

 private:
  const SizePredictor* predictor_;
};

}  // namespace

int main() {
  using namespace hetsched;

  Experiment experiment;
  const SystemRun base = experiment.run("base");

  std::cout << "=== Ablation: stall-vs-run decision ===\n\n";

  TablePrinter table({"discipline", "idle", "dynamic", "total", "cycles",
                      "stalls"});
  auto add = [&](const SystemRun& run) {
    const NormalizedEnergy n = normalize(run.result, base.result);
    table.add_row({run.name, TablePrinter::num(n.idle, 2),
                   TablePrinter::num(n.dynamic, 2),
                   TablePrinter::num(n.total, 2),
                   TablePrinter::num(n.cycles, 2),
                   std::to_string(run.result.stall_events)});
  };

  {
    EnergyCentricPolicy policy(experiment.predictor());
    add(experiment.run_with(policy, "always-stall (EC)"));
  }
  {
    NeverStallPolicy policy(experiment.predictor());
    add(experiment.run_with(policy, "never-stall"));
  }
  add(experiment.run("proposed"));
  {
    OracleSizePredictor oracle(experiment.suite());
    ProposedPolicy policy(oracle);
    add(experiment.run_with(policy, "decision + oracle ANN"));
  }
  table.print(std::cout);

  std::cout << "\nAll values normalised to the base system. The paper's "
               "Section VI observation: neither fixed decision (never "
               "stall / always stall) achieves the best total energy; the "
               "energy-advantageous evaluation is required.\n";
  return 0;
}

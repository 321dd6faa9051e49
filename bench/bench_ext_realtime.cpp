// Extension bench (paper future work, §VIII): preemption, priority and
// deadlines.
//
// Assigns every job a deadline of arrival + slack × (base-configuration
// execution time) and sweeps the slack factor from tight to loose,
// comparing four disciplines on deadline-miss rate, mean response time
// and total energy:
//   proposed/FIFO        — the paper's scheduler, deadline-oblivious
//   proposed/EDF queue   — same policy, most-urgent-first ready queue
//   realtime-EDF         — EDF queue + idle-capacity-first placement
//   realtime-EDF+preempt — additionally evicts later-deadline jobs
#include <iostream>

#include "core/realtime_policy.hpp"
#include "experiment/experiment.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  Scenario setup;
  setup.arrivals.count = 3000;
  Experiment experiment(setup);
  const CharacterizedSuite& suite = experiment.suite();

  std::cout << "=== Extension: deadlines, EDF and preemption ===\n\n";

  TablePrinter table({"slack", "discipline", "miss rate", "mean response",
                      "preemptions", "total energy mJ"});

  for (double slack : {2.0, 4.0, 8.0}) {
    std::vector<JobArrival> arrivals = experiment.arrivals();
    Rng rt_rng(123);
    RealtimeOptions rt;
    rt.slack_factor = slack;
    rt.priority_levels = 3;
    assign_realtime_attributes(arrivals,
                               experiment.context().base_reference_cycles(),
                               rt, rt_rng);

    struct Variant {
      std::string label;
      QueueDiscipline discipline;
      bool realtime_policy;
      bool preempt;
    };
    const Variant variants[] = {
        {"proposed/FIFO", QueueDiscipline::kFifo, false, false},
        {"proposed/EDF", QueueDiscipline::kEdf, false, false},
        {"realtime-EDF", QueueDiscipline::kEdf, true, false},
        {"realtime-EDF+preempt", QueueDiscipline::kEdf, true, true},
    };
    for (const Variant& v : variants) {
      SimulationResult result;
      if (v.realtime_policy) {
        RealtimeEdfPolicy policy(experiment.predictor(), v.preempt);
        MulticoreSimulator sim(SystemConfig::paper_quadcore(), suite,
                               experiment.energy(), policy, v.discipline);
        result = sim.run(arrivals);
      } else {
        ProposedPolicy policy(experiment.predictor());
        MulticoreSimulator sim(SystemConfig::paper_quadcore(), suite,
                               experiment.energy(), policy, v.discipline);
        result = sim.run(arrivals);
      }
      table.add_row(
          {TablePrinter::num(slack, 1) + "x", v.label,
           TablePrinter::num(result.deadline_miss_rate() * 100.0, 1) + "%",
           TablePrinter::num(result.mean_response_cycles() / 1000.0, 0) +
               " kcyc",
           std::to_string(result.preemptions),
           TablePrinter::num(result.total_energy().millijoules(), 1)});
    }
  }
  table.print(std::cout);
  std::cout << "\nDeadline = arrival + slack x base-configuration "
               "execution time; 3 priority levels assigned uniformly.\n";
  return 0;
}

// Section IV.D claim — the bagged ANN's best-cache-size predictions
// "only degraded the average energy consumption by less than 2% over all
// the benchmarks as compared to the optimal cache size".
//
// For every scheduling benchmark we compare the energy of the best
// configuration at the ANN-predicted size against the best configuration
// at the oracle size (both from the characterisation ground truth — this
// isolates prediction quality from scheduling effects).
#include <iostream>

#include "experiment/experiment.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

int main() {
  using namespace hetsched;

  Experiment experiment;
  const CharacterizedSuite& suite = experiment.suite();
  const BestSizePredictor& predictor = experiment.predictor();

  std::cout << "=== ANN best-size prediction quality (Section IV.D) ===\n\n";

  const PredictorReport& report = predictor.report();
  std::cout << "Training set: " << report.dataset_rows << " rows ("
            << report.train_rows << " train / " << report.validation_rows
            << " validation / " << report.test_rows << " test)\n"
            << "Selected features (" << report.selected_features << "): ";
  for (std::size_t idx : predictor.selected_features().indices) {
    std::cout << ExecutionStatistics::name(idx) << " ";
  }
  std::cout << "\nHeld-out test MSE: " << TablePrinter::num(report.test_mse)
            << ", snapped accuracy: "
            << TablePrinter::num(report.test_accuracy * 100.0, 1) << "%\n\n";

  TablePrinter table({"benchmark", "oracle size", "predicted", "raw output",
                      "energy degradation"});
  RunningStats degradation;
  std::size_t correct = 0;
  for (std::size_t id : experiment.scheduling_ids()) {
    const BenchmarkProfile& b = suite.benchmark(id);
    const std::uint32_t oracle = b.oracle_best_size();
    const std::uint32_t predicted =
        predictor.predict_size_bytes(b.base_statistics);
    const double raw = predictor.predict_raw(b.base_statistics);
    const double degrade = b.best_for_size(predicted).energy.total() /
                               b.best_for_size(oracle).energy.total() -
                           1.0;
    degradation.add(degrade);
    if (predicted == oracle) ++correct;
    table.add_row({b.instance.name, std::to_string(oracle / 1024) + "KB",
                   std::to_string(predicted / 1024) + "KB",
                   TablePrinter::num(raw, 2), TablePrinter::pct(degrade)});
  }
  table.print(std::cout);

  const double n = static_cast<double>(experiment.scheduling_ids().size());
  std::cout << "\nExact best-size predictions: " << correct << "/"
            << experiment.scheduling_ids().size() << " ("
            << TablePrinter::num(100.0 * static_cast<double>(correct) / n, 1)
            << "%)\n"
            << "Average energy degradation vs oracle size: "
            << TablePrinter::pct(degradation.mean())
            << "  (paper: < +2%)\n"
            << "Worst-case degradation: "
            << TablePrinter::pct(degradation.max()) << "\n";
  return 0;
}

// End-to-end integration tests: the full Experiment pipeline at reduced
// scale — characterisation → ANN training → four-system simulation —
// checking the cross-module contracts the benches rely on.
#include <gtest/gtest.h>

#include <set>

#include "experiment/experiment.hpp"

namespace hetsched {
namespace {

const Experiment& quick_experiment() {
  static const Experiment experiment{quick_scenario()};
  return experiment;
}

TEST(ExperimentTest, PipelineProducesTrainedPredictor) {
  const Experiment& e = quick_experiment();
  const PredictorReport& report = e.predictor().report();
  EXPECT_GT(report.dataset_rows, 0u);
  EXPECT_EQ(report.selected_features, 10u);
  EXPECT_GT(report.train_rows, report.validation_rows);
  // A usable predictor: comfortably better than the 1/3 random baseline
  // even at quick-test scale.
  EXPECT_GT(report.train_accuracy, 0.7);
}

TEST(ExperimentTest, ArrivalStreamUsesSchedulingIdsOnly) {
  const Experiment& e = quick_experiment();
  std::set<std::size_t> ids(e.scheduling_ids().begin(),
                            e.scheduling_ids().end());
  for (const JobArrival& a : e.arrivals()) {
    EXPECT_TRUE(ids.count(a.benchmark_id));
  }
  EXPECT_EQ(e.arrivals().size(), e.scenario().arrivals.count);
}

TEST(ExperimentTest, AllFourSystemsCompleteTheStream) {
  const Experiment& e = quick_experiment();
  for (const SystemRun& run :
       {e.run("base"), e.run("optimal"), e.run("energy-centric"),
        e.run("proposed")}) {
    EXPECT_EQ(run.result.completed_jobs, e.arrivals().size()) << run.name;
    EXPECT_GT(run.result.total_energy().value(), 0.0) << run.name;
    EXPECT_GT(run.result.makespan, 0u) << run.name;
  }
}

TEST(ExperimentTest, SystemCharacters) {
  const Experiment& e = quick_experiment();
  const SystemRun base = e.run("base");
  const SystemRun optimal = e.run("optimal");
  const SystemRun ec = e.run("energy-centric");
  const SystemRun proposed = e.run("proposed");

  // Base: homogeneous, no learning machinery.
  EXPECT_EQ(base.result.profiling_runs, 0u);
  EXPECT_EQ(base.result.tuning_runs, 0u);
  // Optimal: exhaustive exploration, never stalls after profiling...
  EXPECT_GT(optimal.result.tuning_runs, ec.result.tuning_runs);
  // ...while the energy-centric system stalls the most.
  EXPECT_GT(ec.result.stall_events, proposed.result.stall_events);
  // Proposed explores fewer configurations than optimal.
  for (std::size_t i = 0; i < proposed.explored_configs.size(); ++i) {
    EXPECT_LE(proposed.explored_configs[i], optimal.explored_configs[i]);
  }
  // Heterogeneous predictive scheduling beats the fixed base system.
  EXPECT_LT(proposed.result.total_energy().value(),
            base.result.total_energy().value());
}

TEST(ExperimentTest, NormalizeComputesRatios) {
  const Experiment& e = quick_experiment();
  const SystemRun base = e.run("base");
  const NormalizedEnergy self = normalize(base.result, base.result);
  EXPECT_DOUBLE_EQ(self.idle, 1.0);
  EXPECT_DOUBLE_EQ(self.dynamic, 1.0);
  EXPECT_DOUBLE_EQ(self.total, 1.0);
  EXPECT_DOUBLE_EQ(self.cycles, 1.0);
  EXPECT_DOUBLE_EQ(self.makespan, 1.0);
}

TEST(ExperimentTest, IdenticalOptionsReproduceBitIdenticalResults) {
  const Experiment a(quick_scenario());
  const Experiment b(quick_scenario());
  const SimulationResult ra = a.run("proposed").result;
  const SimulationResult rb = b.run("proposed").result;
  EXPECT_DOUBLE_EQ(ra.total_energy().value(), rb.total_energy().value());
  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.stall_events, rb.stall_events);
  EXPECT_EQ(ra.total_execution_cycles, rb.total_execution_cycles);
}

TEST(ExperimentTest, DifferentSeedsChangeTheStream) {
  Scenario setup = quick_scenario();
  const Experiment a(setup);
  setup.seed = 777;
  const Experiment b(setup);
  EXPECT_NE(a.arrivals().front().arrival, b.arrivals().front().arrival);
}

TEST(ExperimentTest, OraclePredictorMatchesCharacterisation) {
  const Experiment& e = quick_experiment();
  const OracleSizePredictor oracle(e.suite());
  for (std::size_t id : e.scheduling_ids()) {
    const BenchmarkProfile& b = e.suite().benchmark(id);
    EXPECT_EQ(oracle.predict(id, b.base_statistics),
              b.oracle_best_size());
  }
}

TEST(ExperimentTest, RunWithCustomPredictorUsesGivenName) {
  const Experiment& e = quick_experiment();
  const OracleSizePredictor oracle(e.suite());
  ProposedPolicy proposed(oracle);
  const SystemRun run = e.run_with(proposed, "proposed+oracle");
  EXPECT_EQ(run.name, "proposed+oracle");
  EXPECT_EQ(run.result.completed_jobs, e.arrivals().size());
  EnergyCentricPolicy energy_centric(oracle);
  const SystemRun ec = e.run_with(energy_centric, "ec+oracle");
  EXPECT_EQ(ec.name, "ec+oracle");
}

TEST(ExperimentTest, ProfilingOverheadStaysSmall) {
  const Experiment& e = quick_experiment();
  const SystemRun proposed = e.run("proposed");
  const double share = proposed.result.profiling_energy.value() /
                       proposed.result.total_energy().value();
  EXPECT_LT(share, 0.05) << "profiling overhead must stay marginal";
}

TEST(ExperimentTest, ExploredConfigsNeverExceedDesignSpace) {
  const Experiment& e = quick_experiment();
  for (const SystemRun& run : {e.run("optimal"), e.run("proposed")}) {
    for (std::size_t count : run.explored_configs) {
      EXPECT_LE(count, 18u);
    }
  }
}

}  // namespace
}  // namespace hetsched

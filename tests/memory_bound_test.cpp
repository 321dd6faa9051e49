// Resource bounds asserted instead of read off a bench row: building a
// streaming run allocates the same heap high-water mark whatever the job
// count, training an ANN makes the same number of heap allocations
// whatever the epoch count, and a bagged prediction on a reused workspace
// makes none. The binary replaces the global operator new/delete with a
// counting hook, so these tests live apart from every other suite
// (ctest label: unit).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "ann/bagging.hpp"
#include "ann/trainer.hpp"
#include "obs/sim_counters.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/thread_pool.hpp"

namespace {

// Requested bytes, not the allocator's usable size: how much slack
// malloc hands back depends on the heap's layout, which differs between
// otherwise identical runs.
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};
std::atomic<std::size_t> g_allocations{0};

// Each block carries its requested size in a header that keeps the
// returned pointer maximally aligned.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t bytes) {
  void* block = std::malloc(bytes + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = bytes;
  ++g_allocations;
  const std::size_t live = g_live_bytes += bytes;
  std::size_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(block) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes -= *static_cast<std::size_t*>(block);
  std::free(block);
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace hetsched {
namespace {

// Heap bytes held at the peak of constructing (and destroying) a
// ScenarioRun for `jobs` independent jobs, above what was live before.
std::size_t construction_peak(const ScenarioContext& context,
                              Scenario scenario, std::size_t jobs) {
  scenario.arrivals.count = jobs;
  const std::size_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  { const ScenarioRun run(scenario, context); }
  return g_peak_bytes.load() - before;
}

// Heap bytes held at the peak of a whole run of `jobs` independent jobs
// observed by `observer`, above what was live before.
std::size_t run_peak(const ScenarioContext& context, Scenario scenario,
                     std::size_t jobs, ScheduleObserver* observer) {
  scenario.arrivals.count = jobs;
  const std::size_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  { const ScenarioOutcome outcome = run_scenario(scenario, context, observer); }
  return g_peak_bytes.load() - before;
}

TEST(BoundedMemory, ScenarioRunConstructionIsFlatInTheJobCount) {
  // No pool workers: the hook counts every thread, so only this one may
  // allocate while a peak is measured.
  ThreadPool::set_global_threads(1);
  Scenario scenario;
  scenario.name = "memory-bound";
  scenario.cores = 4;
  scenario.policy = "optimal";
  scenario.suite.kernel_scale = 0.25;
  scenario.suite.variants_per_kernel = 1;
  const ScenarioContext context(scenario);

  const std::size_t small = construction_peak(context, scenario, 10);
  const std::size_t large = construction_peak(context, scenario, 1'000'000);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(large, small)
      << "constructing a 1M-job run peaked " << large - small
      << " heap bytes above a 10-job one";
}

// --metrics-out wants the run's `sim.*` counters, nothing more, so the
// CLI attaches SimCounters for it and creates an EventTracer only for
// --trace-out: a tracer retains every event (up to a million, each with
// heap strings), which made a metrics snapshot cost memory in proportion
// to the run. The counters must stay flat in the job count.
TEST(BoundedMemory, CountedRunIsFlatInTheJobCount) {
  ThreadPool::set_global_threads(1);
  Scenario scenario;
  scenario.name = "memory-bound";
  scenario.cores = 4;
  scenario.policy = "optimal";
  scenario.suite.kernel_scale = 0.25;
  scenario.suite.variants_per_kernel = 1;
  const ScenarioContext context(scenario);

  MetricsRegistry metrics;
  SimCounters counters(metrics);
  const std::size_t small = run_peak(context, scenario, 20'000, &counters);
  const std::size_t large = run_peak(context, scenario, 200'000, &counters);
  EXPECT_EQ(metrics.counter("sim.completed_slices").value(), 220'000u);
  // Slack for the ready queue, whose high-water mark follows the deepest
  // burst the longer stream happens to reach (equal on this scenario
  // today); a per-job cost would exceed it by megabytes.
  constexpr std::size_t kSlackBytes = 16 * 1024;
  EXPECT_LE(large, small + kSlackBytes)
      << "a 200k-job counted run peaked " << large - small
      << " heap bytes above a 20k-job one";
}

// Heap allocations made by one Trainer::fit of the paper topology over
// `epochs` epochs of a 37-row set (four full batches of 8 and a short
// one), optionally watching a validation set for early stopping.
std::size_t fit_allocations(std::size_t epochs, bool validate) {
  Rng rng(5);
  auto rows = [&](std::size_t n) {
    Dataset data;
    data.features = Matrix(n, 10);
    data.targets = Matrix(n, 1);
    for (double& v : data.features.flat()) v = rng.uniform(-1.0, 1.0);
    for (double& v : data.targets.flat()) v = rng.uniform(0.0, 3.0);
    return data;
  };
  const Dataset train = rows(37);
  const Dataset validation = validate ? rows(11) : Dataset{};
  TrainerConfig config;
  config.max_epochs = epochs;
  // Never runs out of patience, so every epoch is trained.
  config.patience = validate ? epochs + 1 : 0;
  const Trainer trainer(config);
  Mlp net(MlpConfig{{10, 18, 5, 1}}, rng);
  const std::size_t before = g_allocations.load();
  const TrainingReport report = trainer.fit(net, train, validation, rng);
  const std::size_t made = g_allocations.load() - before;
  EXPECT_EQ(report.epochs_run, epochs);
  return made;
}

// Bagging trains 30 nets for 1200 epochs each, tens of thousands of
// mini-batches per net: fit gathers every batch into the same buffers and
// trains on one workspace, so no allocation is made per batch or epoch.
TEST(BoundedMemory, TrainerFitAllocationsAreFlatInTheEpochCount) {
  for (const bool validate : {false, true}) {
    const std::size_t few = fit_allocations(5, validate);
    const std::size_t many = fit_allocations(200, validate);
    EXPECT_GT(few, 0u);
    EXPECT_EQ(many, few) << (validate ? "with" : "without")
                         << " validation: 200 epochs made " << many
                         << " heap allocations, 5 epochs " << few;
  }
}

// Every on_profiled decision of a predicted policy asks the bagged
// ensemble for one prediction. With a caller-owned workspace, the loop
// over its members allocates nothing, and each result is the allocating
// form's, bit for bit.
TEST(BoundedMemory, EnsemblePredictionMakesNoAllocation) {
  Rng rng(9);
  Dataset train;
  train.features = Matrix(23, 10);
  train.targets = Matrix(23, 1);
  for (double& v : train.features.flat()) v = rng.uniform(-1.0, 1.0);
  for (double& v : train.targets.flat()) v = rng.uniform(0.0, 3.0);
  BaggingConfig config;
  config.ensemble_size = 7;
  config.net.layer_sizes = {10, 18, 5, 1};
  config.trainer.max_epochs = 3;
  const BaggedEnsemble ensemble(config, train, Dataset{}, rng);

  constexpr std::size_t kRows = 23;
  std::vector<double> predicted(kRows);
  Mlp::Workspace workspace;
  ensemble.predict_one(train.features.row(0), {&predicted[0], 1},
                       workspace);  // shapes the workspace
  const std::size_t before = g_allocations.load();
  for (std::size_t r = 0; r < kRows; ++r) {
    ensemble.predict_one(train.features.row(r), {&predicted[r], 1},
                         workspace);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << kRows << " predictions of a " << config.ensemble_size
      << "-net ensemble";
  for (std::size_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(predicted[r], ensemble.predict_one(train.features.row(r))[0])
        << "row " << r;
  }
}

}  // namespace
}  // namespace hetsched

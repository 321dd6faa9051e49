// Micro-benchmarks (google-benchmark): throughput/latency of the
// simulator's hot components — cache access simulation, Figure-4 energy
// evaluation, ANN inference and training steps, heuristic stepping, the
// StreamStats fold of one job's events, and the end-to-end event-driven
// scheduling loop.
#include <benchmark/benchmark.h>

#include "ann/mlp.hpp"
#include "core/tuning_heuristic.hpp"
#include "experiment/experiment.hpp"
#include "scenario/stream_stats.hpp"

namespace {

using namespace hetsched;

const Experiment& shared_experiment() {
  static const Experiment experiment{[] {
    Scenario setup = quick_scenario();
    setup.arrivals.count = 1000;
    return setup;
  }()};
  return experiment;
}

void BM_CacheAccess(benchmark::State& state) {
  const CacheConfig config =
      DesignSpace::all()[static_cast<std::size_t>(state.range(0))];
  Rng rng(1);
  MemTrace trace;
  trace.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    trace.push_back(MemRef{
        static_cast<std::uint32_t>(rng.below(16384)), 4,
        rng.bernoulli(0.3)});
  }
  Cache cache(config);
  for (auto _ : state) {
    for (const MemRef& ref : trace) {
      benchmark::DoNotOptimize(cache.access(ref));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.SetLabel(config.name());
}
BENCHMARK(BM_CacheAccess)->Arg(0)->Arg(8)->Arg(17);

void BM_EnergyModelEvaluate(benchmark::State& state) {
  const EnergyModel model{CactiModel{}};
  RawCounters counters;
  counters.loads = 50000;
  counters.stores = 20000;
  counters.int_ops = 100000;
  CacheSimResult sim;
  sim.config = DesignSpace::base_config();
  sim.stats.accesses = 70000;
  sim.stats.hits = 69000;
  sim.stats.misses = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(counters, sim));
  }
}
BENCHMARK(BM_EnergyModelEvaluate);

void BM_AnnInference(benchmark::State& state) {
  const Experiment& experiment = shared_experiment();
  const BenchmarkProfile& b =
      experiment.suite().benchmark(experiment.scheduling_ids().front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        experiment.predictor().predict_size_bytes(b.base_statistics));
  }
}
BENCHMARK(BM_AnnInference);

// One mini-batch SGD step of the paper's {10,18,5,1} net on a batch of 8,
// on the reused buffers Trainer::fit gives it: the unit of ANN training
// (bagging runs tens of thousands of them per member).
void BM_AnnTrainBatch(benchmark::State& state) {
  Rng rng(3);
  Mlp net(MlpConfig{{10, 18, 5, 1}}, rng);
  Matrix inputs(8, 10);
  Matrix targets(8, 1);
  for (double& v : inputs.flat()) v = rng.uniform(-1.5, 1.5);
  for (double& v : targets.flat()) v = rng.uniform(0.0, 3.0);
  Mlp::Workspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net.train_batch(inputs, targets, 0.05, 0.9, workspace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AnnTrainBatch);

void BM_TuningHeuristicStep(benchmark::State& state) {
  ProfilingTable table(1);
  ProfilingTable::Entry& entry = table.entry(0);
  // Partially explored 8KB walk: next_config must reconstruct the path.
  table.record(0, CacheConfig{8192, 1, 16}, Observation{NanoJoules(100), NanoJoules(60), 1000});
  table.record(0, CacheConfig{8192, 2, 16}, Observation{NanoJoules(90), NanoJoules(55), 950});
  for (auto _ : state) {
    benchmark::DoNotOptimize(TuningHeuristic::next_config(entry, 8192));
  }
}
BENCHMARK(BM_TuningHeuristicStep);

// The StreamStats share of one streamed job: the reconfig, dispatch, idle
// and slice events a 16-core run observes per job, each folded into the
// running aggregates and the stream digest. One item is one job.
void BM_StreamStatsJob(benchmark::State& state) {
  constexpr std::size_t kCores = 16;
  StreamStats stats(kCores);
  ReconfigEvent reconfig;
  DispatchEvent dispatch;
  IdleEvent idle;
  ScheduledSlice slice;
  slice.config = CacheConfig{4096, 2, 32};
  SimTime now = 0;
  std::uint64_t job = 0;
  for (auto _ : state) {
    const std::size_t core = job % kCores;
    reconfig.time = dispatch.time = now;
    reconfig.core = dispatch.core = idle.core = slice.core = core;
    reconfig.job_id = dispatch.job_id = slice.job_id = job;
    dispatch.benchmark_id = slice.benchmark_id = job % 23;
    dispatch.duration = 24'000;
    idle.from = now - 700;
    idle.to = now;
    slice.start = now;
    slice.end = now + 24'000;
    stats.on_reconfig(reconfig);
    stats.on_dispatch(dispatch);
    stats.on_idle(idle);
    stats.on_slice(slice);
    now += 1'500;
    ++job;
  }
  benchmark::DoNotOptimize(stats.digest());
  if (stats.invariant_violations() != 0) state.SkipWithError("overlap");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamStatsJob);

void BM_KernelExecution(benchmark::State& state) {
  const auto kernels = make_standard_kernels(0.25);
  const Kernel& kernel = *kernels[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(execute(kernel, 99));
  }
  state.SetLabel(kernel.name());
}
BENCHMARK(BM_KernelExecution)->Arg(0)->Arg(3)->Arg(12);

void BM_FullSchedulingRun(benchmark::State& state) {
  const Experiment& experiment = shared_experiment();
  for (auto _ : state) {
    SystemRun run = experiment.run("proposed");
    benchmark::DoNotOptimize(run.result.total_energy());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(experiment.arrivals().size()));
}
BENCHMARK(BM_FullSchedulingRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

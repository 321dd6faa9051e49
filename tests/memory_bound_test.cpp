// Resource bounds asserted instead of read off a bench row: building a
// streaming run allocates the same heap high-water mark whatever the job
// count. The binary replaces the global operator new/delete with a
// counting hook, so these tests live apart from every other suite
// (ctest label: unit).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "scenario/scenario_runner.hpp"
#include "util/thread_pool.hpp"

namespace {

// Requested bytes, not the allocator's usable size: how much slack
// malloc hands back depends on the heap's layout, which differs between
// otherwise identical runs.
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};

// Each block carries its requested size in a header that keeps the
// returned pointer maximally aligned.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t bytes) {
  void* block = std::malloc(bytes + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = bytes;
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

}  // namespace
}  // namespace hetsched

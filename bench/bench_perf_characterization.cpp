// Performance: suite characterisation fast path.
//
// Times the four ways of obtaining the characterised suite at paper
// scale (19 kernels x 8 variants x 18 Table-1 configurations):
//
//   serial-reference : the original path — one full Cache replay per
//                      configuration, one benchmark at a time.
//   single-pass      : one thread, but each trace decides all 18
//                      configurations in one stack-distance sweep.
//   pooled           : single-pass fanned out over the shared pool
//                      (HETSCHED_THREADS or hardware concurrency).
//   snapshot         : reload from the persistent profile cache.
//
// It then times the next set-up step, training the paper's bagged ANN
// predictor on the suite (one thread: the per-net cost).
//
// All four produce bit-identical suites (verified by fastpath_test and
// re-checked cheaply here). Results go to BENCH_characterization.json.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "core/predictor.hpp"
#include "energy/energy_model.hpp"
#include "util/atomic_file.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"
#include "workload/characterization.hpp"
#include "workload/profile_cache.hpp"

namespace {

double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main() {
  using namespace hetsched;

  const EnergyModel model{CactiModel{}, EnergyModelParams{}};
  const SuiteOptions options;  // paper scale
  const std::size_t threads = ThreadPool::default_threads();

  std::cout << "=== Characterisation fast path (paper-scale suite, "
            << threads << " thread" << (threads == 1 ? "" : "s")
            << " available) ===\n\n";

  std::size_t suite_size = 0;
  const double serial_ms = time_ms([&] {
    const CharacterizedSuite suite =
        CharacterizedSuite::build_reference(model, options);
    suite_size = suite.size();
  });

  ThreadPool one(1);
  const double single_pass_ms = time_ms(
      [&] { CharacterizedSuite::build(model, options, one); });

  std::optional<CharacterizedSuite> pooled_suite;
  const double pooled_ms = time_ms(
      [&] { pooled_suite.emplace(CharacterizedSuite::build(model, options)); });

  // Snapshot: first call populates the cache file, second call times the
  // pure reload.
  const std::string cache_path = "BENCH_characterization.profile";
  std::remove(cache_path.c_str());
  load_or_build_suite(cache_path, model, options);
  const double snapshot_ms =
      time_ms([&] { load_or_build_suite(cache_path, model, options); });
  std::remove(cache_path.c_str());

  TablePrinter table({"path", "wall ms", "speedup vs serial"});
  auto add = [&](const std::string& name, double ms) {
    table.add_row({name, TablePrinter::num(ms, 1),
                   TablePrinter::num(serial_ms / ms, 1) + "x"});
  };
  add("serial-reference", serial_ms);
  add("single-pass (1 thread)", single_pass_ms);
  add("pooled (" + std::to_string(threads) + " threads)", pooled_ms);
  add("snapshot reload", snapshot_ms);
  table.print(std::cout);
  std::cout << "\nSuite: " << suite_size
            << " benchmark instances x 18 configurations\n";

  // What every compare and `ensemble` scenario pays next: training the
  // paper's 30-net bagged predictor on this suite, here on one thread.
  ThreadPool::set_global_threads(1);
  const double ann_train_ms = time_ms([&] {
    train_size_predictor(*pooled_suite, PredictorConfig{}, 42);
  });
  ThreadPool::set_global_threads(threads);
  std::cout << "ANN training (paper predictor, 1 thread): "
            << TablePrinter::num(ann_train_ms, 1) << " ms\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"characterization\",\n"
       << "  \"suite_size\": " << suite_size << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"serial_reference_ms\": " << serial_ms << ",\n"
       << "  \"single_pass_ms\": " << single_pass_ms << ",\n"
       << "  \"pooled_ms\": " << pooled_ms << ",\n"
       << "  \"snapshot_ms\": " << snapshot_ms << ",\n"
       << "  \"single_pass_speedup\": " << serial_ms / single_pass_ms << ",\n"
       << "  \"pooled_speedup\": " << serial_ms / pooled_ms << ",\n"
       << "  \"snapshot_speedup\": " << serial_ms / snapshot_ms << ",\n"
       << "  \"ann_train_ms\": " << ann_train_ms << "\n"
       << "}\n";
  hetsched::atomic_write_file("BENCH_characterization.json", json.str());
  std::cout << "Results written to BENCH_characterization.json\n";
  return 0;
}

// Scale: the streaming scenario driver at 16 and 64-256 cores.
//
// Runs the same proposed-policy scenario at 10k, 100k and 1M jobs under
// the streaming driver (arrivals generated on demand, schedule compacted
// into StreamStats as it happens) and records wall time, throughput,
// peak RSS and the dispatch-index scan counters. Two claims are under
// test: time grows linearly with the job count while peak memory stays
// flat (streaming), and the per-decision scan cost stays a few bitmap
// words as the machine grows 16 -> 256 cores (hierarchical dispatch).
//
// The 16- and 64-core rows go to BENCH_scenario.json (gated by the CI
// bench-diff job against bench/baselines); the 128/256-core rows go to
// BENCH_scenario_large.json, uploaded as an informational artifact only.
// The inter-arrival gap scales inversely with the core count so every
// machine size runs under the same per-core load.
//
// Rows come in two flavours. "Observed" rows run with the StreamStats
// observer attached, as every real driver does; their wall time includes
// folding each job's events into the stream digest, a word at a time
// (stream digest v2, about 50 ns/job at -O3 by BM_StreamStatsJob in
// bench_micro_components). "Raw" rows attach no observer — observers
// never feed back into simulation state, so the SimulationResult is
// identical — and measure the dispatch+simulation engine proper.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "scenario/scenario_runner.hpp"
#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/table_printer.hpp"

namespace {

// Peak RSS of the whole process so far, in KiB (0 where unsupported).
// Monotone by definition, so running the job counts in increasing order
// makes the delta between rows the honest "extra memory the bigger run
// needed" figure.
long peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
#if defined(__APPLE__)
  return usage.ru_maxrss / 1024;  // ru_maxrss is bytes on macOS
#else
  return usage.ru_maxrss;
#endif
#else
  return 0;
#endif
}

struct Row {
  std::size_t cores;
  std::size_t jobs;
  double wall_ms;
  double jobs_per_sec;
  long peak_rss_kib;
  std::uint64_t digest;
  double words_per_decision;  // bitmap words scanned per decide() call
  double clamp_hit_rate;      // clamp lookups served from the epoch cache
};

std::vector<Row> run_rows(hetsched::Scenario scenario,
                          const hetsched::ScenarioContext& context,
                          std::size_t cores,
                          const std::vector<std::size_t>& job_counts,
                          bool raw = false) {
  using namespace hetsched;
  scenario.cores = cores;
  // Same per-core offered load at every machine size: the 16-core
  // baseline gap is 20000 cycles, so gap(n) = 20000 * 16 / n.
  scenario.arrivals.mean_interarrival_cycles =
      20000.0 * 16.0 / static_cast<double>(cores);

  std::vector<Row> rows;
  for (const std::size_t jobs : job_counts) {
    scenario.arrivals.count = jobs;
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t digest = 0;
    std::uint64_t completed = 0;
    DispatchTelemetry d;
    if (raw) {
      const ScenarioOutcome outcome =
          ScenarioRun(scenario, context, nullptr,
                      ScenarioRun::ObserverMode::kRaw)
              .execute();
      completed = outcome.result.completed_jobs;
      d = outcome.dispatch;
    } else {
      const ScenarioOutcome outcome = run_scenario(scenario, context);
      HETSCHED_ASSERT(outcome.stream.invariant_violations() == 0);
      completed = outcome.result.completed_jobs;
      digest = outcome.stream.digest();
      d = outcome.dispatch;
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    HETSCHED_ASSERT(completed == jobs);
    rows.push_back(
        {cores, jobs, wall_ms, jobs / (wall_ms / 1000.0), peak_rss_kib(),
         digest,
         d.decisions == 0 ? 0.0
                          : static_cast<double>(d.words_scanned) /
                                static_cast<double>(d.decisions),
         d.clamp_lookups == 0 ? 0.0
                              : static_cast<double>(d.clamp_hits) /
                                    static_cast<double>(d.clamp_lookups)});
  }
  return rows;
}

void print_rows(const std::vector<Row>& rows, const char* label = "") {
  using hetsched::TablePrinter;
  if (*label != '\0') std::cout << label << "\n";
  TablePrinter table({"cores", "jobs", "wall ms", "jobs/sec",
                      "peak RSS KiB", "words/decision", "clamp hit"});
  for (const Row& row : rows) {
    table.add_row({std::to_string(row.cores), std::to_string(row.jobs),
                   TablePrinter::num(row.wall_ms, 1),
                   TablePrinter::num(row.jobs_per_sec, 0),
                   std::to_string(row.peak_rss_kib),
                   TablePrinter::num(row.words_per_decision, 2),
                   TablePrinter::num(row.clamp_hit_rate, 3)});
  }
  table.print(std::cout);
}

double rss_growth(const std::vector<Row>& rows) {
  return rows.front().peak_rss_kib > 0
             ? static_cast<double>(rows.back().peak_rss_kib) /
                   static_cast<double>(rows.front().peak_rss_kib)
             : 0.0;
}

void append_rows_json(std::ostringstream& json, const std::string& key,
                      const std::vector<Row>& rows, bool trailing_comma,
                      bool with_digest = true) {
  json << "  \"" << key << "\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {\"jobs\": " << row.jobs << ", \"wall_ms\": " << row.wall_ms
         << ", \"jobs_per_sec\": " << row.jobs_per_sec
         << ", \"peak_rss_kib\": " << row.peak_rss_kib;
    if (with_digest) json << ", \"stream_digest\": " << row.digest;
    json << ", \"words_per_decision\": " << row.words_per_decision
         << ", \"clamp_hit_rate\": " << row.clamp_hit_rate << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]" << (trailing_comma ? "," : "") << "\n";
}

}  // namespace

int main() {
  using namespace hetsched;

  Scenario scenario;
  scenario.name = "scale";
  scenario.system = Scenario::SystemKind::kScaledHeterogeneous;
  scenario.cores = 16;
  scenario.policy = "proposed";
  scenario.arrivals.mean_interarrival_cycles = 20000.0;
  // Light suite/training so the benchmark measures the streaming driver,
  // not characterisation or ANN training.
  scenario.suite.kernel_scale = 0.25;
  scenario.suite.variants_per_kernel = 1;
  scenario.predictor_ensemble = 5;
  scenario.predictor_max_epochs = 120;

  std::cout << "=== Streaming scenario scale (scaled heterogeneous "
               "system, proposed policy) ===\n\n";

  // One context serves every core count: the suite and predictor depend
  // only on the kernel/training parameters, not the machine shape.
  const auto setup_start = std::chrono::steady_clock::now();
  const ScenarioContext context(scenario);
  const double setup_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - setup_start)
                              .count();

  const std::vector<std::size_t> job_counts{10'000, 100'000, 1'000'000};
  const std::vector<Row> rows16 = run_rows(scenario, context, 16, job_counts);
  const std::vector<Row> rows64 = run_rows(scenario, context, 64, job_counts);
  const std::vector<Row> raw16 =
      run_rows(scenario, context, 16, job_counts, /*raw=*/true);
  const std::vector<Row> raw64 =
      run_rows(scenario, context, 64, job_counts, /*raw=*/true);

  print_rows(rows16, "observed (StreamStats digest attached):");
  std::cout << "\n";
  print_rows(rows64);
  std::cout << "\n";
  print_rows(raw16, "raw (no observer; engine throughput):");
  std::cout << "\n";
  print_rows(raw64);
  std::cout << "\nSetup (suite + predictor): "
            << TablePrinter::num(setup_ms, 1) << " ms\n"
            << "Peak RSS growth 10k -> 1M jobs @16: "
            << TablePrinter::num(rss_growth(rows16), 2) << "x, @64: "
            << TablePrinter::num(rss_growth(rows64), 2)
            << "x (streaming keeps memory bounded by the machine, not "
               "the stream)\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"scenario_scale\",\n"
       << "  \"cores\": 16,\n"
       << "  \"policy\": \"" << scenario.policy << "\",\n"
       << "  \"setup_ms\": " << setup_ms << ",\n"
       << "  \"rss_growth_10k_to_1m\": " << rss_growth(rows16) << ",\n"
       << "  \"rss_growth_64_10k_to_1m\": " << rss_growth(rows64) << ",\n";
  append_rows_json(json, "runs", rows16, /*trailing_comma=*/true);
  append_rows_json(json, "runs_64", rows64, /*trailing_comma=*/true);
  append_rows_json(json, "runs_raw", raw16, /*trailing_comma=*/true,
                   /*with_digest=*/false);
  append_rows_json(json, "runs_64_raw", raw64, /*trailing_comma=*/false,
                   /*with_digest=*/false);
  json << "}\n";
  atomic_write_file("BENCH_scenario.json", json.str());
  std::cout << "Results written to BENCH_scenario.json\n";

  // 128/256-core rows: informational only (CI uploads the file as an
  // artifact, no gate) — big-machine wall times are too sensitive to
  // runner weather to hard-gate, and they would double the bench job's
  // runtime budget.
  const std::vector<Row> rows128 =
      run_rows(scenario, context, 128, job_counts);
  const std::vector<Row> rows256 =
      run_rows(scenario, context, 256, job_counts);
  std::cout << "\n";
  print_rows(rows128);
  std::cout << "\n";
  print_rows(rows256);

  std::ostringstream large;
  large << "{\n"
        << "  \"benchmark\": \"scenario_scale_large\",\n"
        << "  \"policy\": \"" << scenario.policy << "\",\n";
  append_rows_json(large, "runs_128", rows128, /*trailing_comma=*/true);
  append_rows_json(large, "runs_256", rows256, /*trailing_comma=*/false);
  large << "}\n";
  atomic_write_file("BENCH_scenario_large.json", large.str());
  std::cout << "\nResults written to BENCH_scenario_large.json\n";
  return 0;
}

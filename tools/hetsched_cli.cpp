// hetsched command-line driver. Every simulating command is a scenario
// run: run and compare build a Scenario from their flags (policy on the
// machine it runs on, seed, arrivals, scale, discipline, slack, faults)
// and execute it like `scenario` does, with one collector bundle
// (RunCollectors) and one report builder (build_run_report).
//
//   hetsched_cli compare   [common options]
//       run all four Section-V systems over one stream and print the
//       Figure-6-style comparison
//   hetsched_cli run       --system <any registry policy name or
//                                    portfolio:<a>+<b>[@cycles]>
//                          [common options]
//       run one system and print its full accounting and stream digest
//   hetsched_cli characterize [--kernel <name>]
//       print the Table-1 characterisation (optionally one kernel's
//       per-configuration sweep)
//   hetsched_cli train     --save <file> [common options]
//       train the ANN predictor and persist it
//   hetsched_cli scenario  --file <file.scn> [--profile-cache F] [obs flags]
//                          [checkpoint flags]
//       run one scenario file under the streaming driver and print its
//       accounting plus the stream digest
//   hetsched_cli sweep     --file <file.scn> [--sweep-cores LIST]
//                          [--sweep-gaps LIST] [--sweep-policies LIST]
//                          [--shards N]
//       fan a (cores x arrival gap x policy) grid built from the scenario
//       file across the thread pool in contiguous shards and print one
//       row per cell (status ok or FAILED); results are bit-identical
//       for every --threads / --shards combination
//   hetsched_cli bench-diff <baseline.json> <current.json> [--tolerance X]
//       compare two BENCH_*.json result files; exits non-zero when any
//       classified metric regressed beyond the tolerance (the CI bench
//       regression gate)
//   hetsched_cli analyze   --report <report.json> [--windows <file.jsonl>]
//                          [--top N] [--out FILE]
//       offline latency forensics over a run report (+ optional windows
//       stream): per-policy breakdown, slowest jobs with phase
//       attribution, hottest windows by tail latency, DAG releases
//   hetsched_cli analyze   --diff <baseline.json> <current.json>
//                          [--tolerance X] [--out FILE]
//       metric-by-metric diff of two run reports; exits non-zero when a
//       classified metric regressed beyond the tolerance
//
// Options. A flag that the chosen command never reads is refused (exit
// 2, naming the flag and the command); commands_reading() lists the
// commands of each. The flag-built scenario (--arrivals, --gap, --cores,
// --discipline, --slack, --load, the fault flags) is read by run and
// compare, --seed also by train, --scale also by train and characterize;
// --profile-cache by every simulating command; the report and windows
// flags by run, scenario and sweep; --threads and the observability
// outputs (--trace-out, --metrics-out, --max-trace-events) by all.
//   --arrivals N         number of jobs              (default 5000)
//   --gap CYCLES         mean inter-arrival gap      (default 55000)
//   --seed N             experiment seed             (default 42)
//   --scale X            kernel working-set scale    (default 1.0)
//   --discipline D       fifo | edf | priority       (default fifo)
//   --slack X            deadline slack factor; assigns deadlines when set
//   --load FILE          use a saved predictor snapshot instead of training
//   --threads N          worker threads for characterisation/training/runs
//                        (default: HETSCHED_THREADS or all hardware threads)
//   --profile-cache FILE serve characterisation from this snapshot, building
//                        and refreshing it when missing or stale
//   --fault-plan FILE    inject faults from a fault-plan file
//   --fault-rate P       uniform fault rate for all rate-driven faults
//   --fault-seed N       fault-decision seed (default 1)
//   --trace-out FILE     write a Chrome-trace/Perfetto JSON of the run(s)
//                        (ts = simulated cycles, deterministic)
//   --metrics-out FILE   write the session metrics registry as JSON (pool,
//                        profile cache, sim.* counters, results); attaches
//                        counters only, no trace is retained; refused
//                        with --resume-from and --cell-retries above 1
//   --max-trace-events N retain at most N --trace-out events per tracer
//                        (0 = unlimited; default 1M, drops counted)
//   --windows-out FILE   write per-window telemetry as JSONL (run,
//                        scenario and sweep; deterministic)
//   --window-cycles N    tumbling window width in simulated cycles
//                        (default 1000000)
//   --report-out FILE    write the unified run report JSON (config +
//                        suite key, result, the run's own metrics, window
//                        summary, anomalies, wall-clock phase timers)
//   --report-deterministic
//                        emit the report with an empty phases_ms section
//                        so two identical runs produce byte-identical
//                        reports (the resume-verification mode)
//
// Crash-safe execution (scenario). A scenario is one run whichever of
// these flags are given; without them it runs straight through:
//   --checkpoint-out F   write a resumable checkpoint atomically at every
//                        stride boundary (window-cycles * checkpoint-every)
//   --checkpoint-every N windows per checkpoint stride (default 1)
//   --resume-from F      resume a scenario from a checkpoint file (or a
//                        sweep from a shard manifest); outputs are
//                        bit-identical to the uninterrupted run
//   --halt-after-checkpoints N
//                        stop (exit 3) after writing N checkpoints —
//                        a deterministic stand-in for a crash; needs
//                        --checkpoint-out (exit 2 without it)
//
// Sweep supervision (sweep). Every sweep runs under the same supervisor;
// the defaults run each cell once without a deadline, and a cell that
// fails is quarantined (status FAILED in the table, exit 1):
//   --cell-timeout-ms N  wall-clock budget per cell attempt
//   --cell-retries N     attempts per cell before quarantine (default 1)
//   --cell-backoff-ms N  sleep between attempts of one cell
//   --manifest-out F     persist a shard manifest after every completed
//                        cell; --resume-from it to skip completed cells
//
// --trace-out and --metrics-out observe the events this process runs, so
// both are refused (exit 2) with --resume-from and with --cell-retries
// above 1; --trace-out is refused with every checkpoint flag as well
// (trace buffers are not part of the checkpointed state).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/policy_registry.hpp"
#include "core/serialization.hpp"
#include "experiment/experiment.hpp"
#include "experiment/sweep.hpp"
#include "obs/analyzer.hpp"
#include "obs/bench_diff.hpp"
#include "obs/observability.hpp"
#include "obs/run_report.hpp"
#include "scenario/checkpoint.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/atomic_file.hpp"
#include "util/csv.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"
#include "workload/profile_cache.hpp"

namespace {

using namespace hetsched;

struct CliOptions {
  std::string command;
  std::string system = "proposed";
  std::string kernel;
  std::string save_path;
  std::string load_path;
  std::string fault_plan_path;
  std::optional<double> fault_rate;
  std::optional<std::uint64_t> fault_seed;
  std::string trace_out_path;
  std::string metrics_out_path;
  std::string report_out_path;
  std::string windows_out_path;
  std::uint64_t window_cycles = 1'000'000;
  std::size_t max_trace_events = EventTracer::kDefaultMaxEvents;
  double tolerance = 0.5;  // bench-diff/analyze-diff slack before failing
  std::vector<std::string> positional;  // bench-diff/analyze file operands

  // analyze: forensics inputs and presentation.
  std::string analyze_report_path;
  std::string analyze_windows_path;
  std::string analyze_out_path;
  std::size_t analyze_top = 8;
  bool analyze_diff_mode = false;
  // Emit Perfetto async job spans ('b'/'e' pairs) into --trace-out.
  // Opt-in: span events double the trace volume and change trace bytes.
  bool trace_spans = false;
  std::string scenario_path;
  std::string sweep_cores = "4";
  std::string sweep_gaps;  // empty: the scenario file's mean-gap
  std::string sweep_policies = "base,proposed";
  std::size_t shards = 0;  // 0: one shard per cell
  // run/compare/train/characterize: the scenario their flags describe
  // (seed, cores, arrivals, kernel scale, discipline, slack).
  Scenario run;
  std::string profile_cache_path;

  // Crash-safe execution.
  std::string checkpoint_out_path;
  std::uint64_t checkpoint_every = 1;
  std::string resume_from_path;  // scenario: checkpoint; sweep: manifest
  std::uint64_t halt_after_checkpoints = 0;
  std::uint64_t cell_timeout_ms = 0;
  std::uint32_t cell_retries = 1;
  std::uint64_t cell_backoff_ms = 0;
  std::string manifest_out_path;
  bool deterministic_report = false;

  // Window width for the run's collectors; 0 (none) unless a report, a
  // windows output or a scenario checkpoint (which carries the
  // collectors' state) was asked for.
  SimTime collector_window() const {
    return report_out_path.empty() && windows_out_path.empty() &&
                   !wants_checkpointing()
               ? 0
               : window_cycles;
  }
  bool wants_checkpointing() const {
    return command == "scenario" &&
           (!checkpoint_out_path.empty() || !resume_from_path.empty() ||
            halt_after_checkpoints > 0);
  }
};

// Observability state for one CLI invocation: the shared metrics
// registry fed by the global probe (thread-pool jobs, profile-cache
// outcomes) and one `<system>.sim.` observer per simulated system. A
// --metrics-out session attaches SimCounters, which retain nothing;
// only --trace-out creates EventTracers (one per system plus the
// runtime tracks), capped at --max-trace-events each. Everything is
// written out once, after the command finishes.
struct ObsSession {
  explicit ObsSession(const CliOptions& options)
      : trace_path(options.trace_out_path),
        metrics_path(options.metrics_out_path),
        max_trace_events(options.max_trace_events),
        job_spans(options.trace_spans) {
    if (!trace_path.empty()) {
      runtime.emplace();
      runtime->set_max_events(max_trace_events);
      processes.emplace_back("runtime", &*runtime);
    }
    recorder.emplace(metrics, runtime.has_value() ? &*runtime : nullptr);
  }

  std::string trace_path;
  std::string metrics_path;
  std::size_t max_trace_events;
  bool job_spans;  // forward Perfetto async job spans
  MetricsRegistry metrics;
  std::optional<EventTracer> runtime;  // probe events; no sim.* counters
  std::optional<ProbeRecorder> recorder;
  std::deque<EventTracer> sim_tracers;   // stable addresses
  std::deque<SimCounters> sim_counters;  // stable addresses
  std::vector<std::pair<std::string, const EventTracer*>> processes;

  // The observer of one system's run: its `<system>.sim.` counters,
  // inside a tracer when the session writes a trace.
  ScheduleObserver& add_system(const std::string& system) {
    if (trace_path.empty()) {
      return sim_counters.emplace_back(metrics, system + ".sim.");
    }
    EventTracer& tracer =
        sim_tracers.emplace_back(&metrics, system + ".sim.");
    tracer.set_max_events(max_trace_events);
    tracer.set_job_spans(job_spans);
    processes.emplace_back(system, &tracer);
    return tracer;
  }

  // Returns false (with a message on stderr) when an output file cannot
  // be written.
  bool finish() {
    if (!trace_path.empty()) {
      std::ostringstream out;
      write_chrome_trace(out, processes);
      if (!atomic_write_file(trace_path, out.str())) {
        std::cerr << "cannot write " << trace_path << "\n";
        return false;
      }
      std::cout << "trace written to " << trace_path << "\n";
    }
    if (!metrics_path.empty()) {
      std::ostringstream out;
      metrics.write_json(out);
      if (!atomic_write_file(metrics_path, out.str())) {
        std::cerr << "cannot write " << metrics_path << "\n";
        return false;
      }
      std::cout << "metrics written to " << metrics_path << "\n";
    }
    return true;
  }
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: hetsched_cli "
      "<compare|run|characterize|train|scenario|sweep|bench-diff|analyze> "
      "[options]\n"
      "       hetsched_cli bench-diff BASELINE.json CURRENT.json\n"
      "                    [--tolerance X]\n"
      "       hetsched_cli analyze --report REPORT.json\n"
      "                    [--windows FILE.jsonl] [--top N] [--out FILE]\n"
      "       hetsched_cli analyze --diff BASELINE.json CURRENT.json\n"
      "                    [--tolerance X] [--out FILE]\n"
      "A flag that the command does not read is refused (exit 2); the\n"
      "commands that read a flag are named in parentheses, and a flag\n"
      "without them is read by every command.\n"
      "  --system S      (run) base|optimal|energy-centric|proposed|\n"
      "                  realtime|sjf|energy-greedy|random|oracle|\n"
      "                  cp-aware|\n"
      "                  portfolio:<a>+<b>[@cycles] (competitive\n"
      "                  meta-scheduler over the named contenders)\n"
      "  --arrivals N    (run/compare) jobs in the stream (default 5000)\n"
      "  --gap CYCLES    (run/compare) mean inter-arrival gap (default\n"
      "                  55000)\n"
      "  --seed N        (run/compare/train) experiment seed (default 42)\n"
      "  --cores N       (run/compare) cores per simulated system\n"
      "                  (default 4; 4 = the paper machines, otherwise\n"
      "                  the scaled layout)\n"
      "  --scale X       (run/compare/train/characterize) kernel\n"
      "                  working-set scale (default 1.0)\n"
      "  --discipline D  (run/compare) fifo|edf|priority ready-queue\n"
      "                  order\n"
      "  --slack X       (run/compare) assign deadlines = arrival +\n"
      "                  X*base cycles\n"
      "  --kernel NAME   (characterize) single-kernel sweep\n"
      "  --save FILE     (train) persist the predictor snapshot\n"
      "  --load FILE     (run/compare) use a saved predictor snapshot\n"
      "  --threads N     worker threads (default: HETSCHED_THREADS or all\n"
      "                  hardware threads)\n"
      "  --profile-cache FILE\n"
      "                  (run/compare/train/characterize/scenario/sweep)\n"
      "                  persistent characterisation snapshot to load or\n"
      "                  refresh\n"
      "  --fault-plan F  (run/compare) inject faults from a fault-plan\n"
      "                  file\n"
      "  --fault-rate P  (run/compare) uniform rate in [0,1] for reconfig\n"
      "                  failures, stuck jobs and counter corruption\n"
      "  --fault-seed N  (run/compare) fault-decision seed (default 1)\n"
      "  --trace-out F   write a Chrome-trace/Perfetto JSON (ts in\n"
      "                  simulated cycles; open in ui.perfetto.dev);\n"
      "                  refused with the checkpoint flags and with\n"
      "                  --cell-retries above 1\n"
      "  --metrics-out F write the metrics-registry snapshot as JSON\n"
      "                  (counters only; retains no trace); refused\n"
      "                  with --resume-from and --cell-retries above 1\n"
      "  --max-trace-events N\n"
      "                  retain at most N --trace-out events per tracer\n"
      "                  (0 = unlimited; default 1000000)\n"
      "  --windows-out F (run/scenario/sweep) write per-window telemetry\n"
      "                  JSONL (one line per closed tumbling window)\n"
      "  --window-cycles N\n"
      "                  (run/scenario/sweep) window width in simulated\n"
      "                  cycles (default 1e6)\n"
      "  --report-out F  (run/scenario/sweep) write the unified run-report\n"
      "                  JSON\n"
      "  --report-deterministic\n"
      "                  (run/scenario/sweep) emit the report with empty\n"
      "                  phases_ms so identical runs produce\n"
      "                  byte-identical reports\n"
      "  --checkpoint-out F\n"
      "                  (scenario) write a resumable checkpoint atomically\n"
      "                  at every stride boundary\n"
      "  --checkpoint-every N\n"
      "                  (scenario) windows per checkpoint stride (default 1)\n"
      "  --resume-from F (scenario) resume from a checkpoint file;\n"
      "                  (sweep) resume from a shard manifest\n"
      "  --halt-after-checkpoints N\n"
      "                  (scenario, with --checkpoint-out) stop with exit\n"
      "                  3 after N checkpoints, simulating a crash\n"
      "                  deterministically\n"
      "  --cell-timeout-ms N\n"
      "                  (sweep) wall-clock budget per cell attempt\n"
      "  --cell-retries N\n"
      "                  (sweep) attempts per cell before quarantine\n"
      "                  (default 1; a quarantined cell is FAILED)\n"
      "  --cell-backoff-ms N\n"
      "                  (sweep) sleep between attempts of one cell\n"
      "  --manifest-out F\n"
      "                  (sweep) persist the shard manifest after every\n"
      "                  completed cell\n"
      "  --tolerance X   (bench-diff/analyze --diff) relative slack before\n"
      "                  a metric counts as regressed (default 0.5)\n"
      "  --trace-spans   add Perfetto async job-lifecycle spans ('b'/'e'\n"
      "                  pairs, arrival -> completion) to --trace-out\n"
      "  --report F      (analyze) run-report JSON to analyze\n"
      "  --windows F     (analyze) windows JSONL for the per-window tables\n"
      "  --top N         (analyze) rows in the slowest-jobs and hottest-\n"
      "                  windows tables (default 8)\n"
      "  --diff          (analyze) diff two reports instead of rendering\n"
      "                  one\n"
      "  --out F         (analyze) write the analysis there instead of\n"
      "                  stdout\n"
      "  --file F        (scenario/sweep) scenario description file\n"
      "  --sweep-cores L   (sweep) comma list of core counts (default 4)\n"
      "  --sweep-gaps L    (sweep) comma list of mean gaps (default: the\n"
      "                    scenario file's mean-gap)\n"
      "  --sweep-policies L\n"
      "                  (sweep) comma list of policies (default\n"
      "                  base,proposed)\n"
      "  --shards N      (sweep) contiguous shards to split the grid into\n"
      "                  (default: one per cell)\n";
  std::exit(2);
}

// Flag-value parsing that rejects garbage instead of silently truncating
// it (std::stoull("12abc") == 12): the whole token must parse, and the
// value must lie in the flag's legal range.
std::uint64_t parse_count(const std::string& flag, const std::string& text,
                          std::uint64_t min_value) {
  std::uint64_t value = 0;
  const char* begin = text.c_str();
  const char* end = begin + text.size();
  const auto [parsed_end, err] = std::from_chars(begin, end, value, 10);
  if (text.empty() || err != std::errc{} || parsed_end != end) {
    usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  if (value < min_value) {
    usage(flag + " must be at least " + std::to_string(min_value) +
          ", got '" + text + "'");
  }
  return value;
}

// Output-path hardening: fail fast (before minutes of simulation) when a
// requested artifact would land in a directory that does not exist —
// atomic temp+rename cannot create parents.
void require_parent_dir(const std::string& flag, const std::string& path) {
  if (path.empty()) return;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  std::error_code ec;
  if (!parent.empty() && !std::filesystem::is_directory(parent, ec)) {
    usage(flag + ": directory '" + parent.string() + "' does not exist");
  }
}

double parse_real(const std::string& flag, const std::string& text,
                  double min_value, double max_value) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(value) || value < min_value || value > max_value) {
    std::ostringstream range;
    range << "[" << min_value << ", " << max_value << "]";
    usage(flag + " expects a number in " + range.str() + ", got '" + text +
          "'");
  }
  return value;
}

QueueDiscipline parse_discipline(const std::string& name) {
  if (name == "fifo") return QueueDiscipline::kFifo;
  if (name == "edf") return QueueDiscipline::kEdf;
  if (name == "priority") return QueueDiscipline::kPriority;
  usage("unknown discipline " + name);
}

// The commands that read each command-specific flag, space-separated. A
// flag given to any other command would be silently ignored (`scenario
// --manifest-out m.txt` used to exit 0 and write no manifest), so parse
// refuses it. Flags not listed (--threads and the observability outputs
// --trace-out, --metrics-out, --max-trace-events, --trace-spans) are read
// by every command.
std::string_view commands_reading(std::string_view flag) {
  static const std::map<std::string_view, std::string_view> kScopes = {
      {"--system", "run"},
      {"--arrivals", "run compare"},
      {"--gap", "run compare"},
      {"--cores", "run compare"},
      {"--discipline", "run compare"},
      {"--slack", "run compare"},
      {"--load", "run compare"},
      {"--fault-plan", "run compare"},
      {"--fault-rate", "run compare"},
      {"--fault-seed", "run compare"},
      {"--seed", "run compare train"},
      {"--scale", "run compare train characterize"},
      {"--kernel", "characterize"},
      {"--save", "train"},
      {"--profile-cache", "run compare train characterize scenario sweep"},
      {"--windows-out", "run scenario sweep"},
      {"--window-cycles", "run scenario sweep"},
      {"--report-out", "run scenario sweep"},
      {"--report-deterministic", "run scenario sweep"},
      {"--file", "scenario sweep"},
      {"--resume-from", "scenario sweep"},
      {"--checkpoint-out", "scenario"},
      {"--checkpoint-every", "scenario"},
      {"--halt-after-checkpoints", "scenario"},
      {"--sweep-cores", "sweep"},
      {"--sweep-gaps", "sweep"},
      {"--sweep-policies", "sweep"},
      {"--shards", "sweep"},
      {"--cell-timeout-ms", "sweep"},
      {"--cell-retries", "sweep"},
      {"--cell-backoff-ms", "sweep"},
      {"--manifest-out", "sweep"},
      {"--tolerance", "bench-diff analyze"},
      {"--report", "analyze"},
      {"--windows", "analyze"},
      {"--out", "analyze"},
      {"--top", "analyze"},
      {"--diff", "analyze"},
  };
  const auto it = kScopes.find(flag);
  return it == kScopes.end() ? std::string_view{} : it->second;
}

// True when the space-separated `list` contains `word`.
bool lists(std::string_view list, std::string_view word) {
  while (!list.empty()) {
    const std::size_t end = std::min(list.find(' '), list.size());
    if (list.substr(0, end) == word) return true;
    list.remove_prefix(std::min(end + 1, list.size()));
  }
  return false;
}

CliOptions parse(int argc, char** argv) {
  if (argc < 2) usage();
  CliOptions options;
  options.command = argv[1];
  if (!lists("compare run characterize train scenario sweep bench-diff "
             "analyze",
             options.command)) {
    usage("unknown command " + options.command);
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    const std::string_view scope = commands_reading(flag);
    if (!scope.empty() && !lists(scope, options.command)) {
      usage(flag + " is not read by " + options.command + " (only by " +
            std::string(scope) + ")");
    }
    if (flag == "--system") {
      options.system = next();
    } else if (flag == "--arrivals") {
      options.run.arrivals.count =
          static_cast<std::size_t>(parse_count(flag, next(), 1));
    } else if (flag == "--gap") {
      options.run.arrivals.mean_interarrival_cycles =
          parse_real(flag, next(), 1.0, 1e15);
    } else if (flag == "--seed") {
      options.run.seed = parse_count(flag, next(), 0);
    } else if (flag == "--cores") {
      options.run.cores =
          static_cast<std::size_t>(parse_count(flag, next(), 2));
    } else if (flag == "--scale") {
      options.run.suite.kernel_scale = parse_real(flag, next(), 1e-6, 1e6);
    } else if (flag == "--discipline") {
      options.run.discipline = parse_discipline(next());
    } else if (flag == "--slack") {
      // Deadlines = arrival + X * base cycles, over three priority levels.
      options.run.realtime =
          RealtimeOptions{parse_real(flag, next(), 1e-6, 1e6), 3};
    } else if (flag == "--kernel") {
      options.kernel = next();
    } else if (flag == "--save") {
      options.save_path = next();
    } else if (flag == "--load") {
      options.load_path = next();
    } else if (flag == "--threads") {
      const std::uint64_t threads = parse_count(flag, next(), 1);
      if (threads > 256) {
        usage(flag + " must be at most 256, got " +
              std::to_string(threads));
      }
      ThreadPool::set_global_threads(static_cast<std::size_t>(threads));
    } else if (flag == "--profile-cache") {
      options.profile_cache_path = next();
    } else if (flag == "--fault-plan") {
      options.fault_plan_path = next();
    } else if (flag == "--fault-rate") {
      options.fault_rate = parse_real(flag, next(), 0.0, 1.0);
    } else if (flag == "--fault-seed") {
      options.fault_seed = parse_count(flag, next(), 0);
    } else if (flag == "--trace-out") {
      options.trace_out_path = next();
      if (options.trace_out_path.empty()) {
        usage(flag + " expects a file path");
      }
    } else if (flag == "--metrics-out") {
      options.metrics_out_path = next();
      if (options.metrics_out_path.empty()) {
        usage(flag + " expects a file path");
      }
    } else if (flag == "--report-out") {
      options.report_out_path = next();
      if (options.report_out_path.empty()) {
        usage(flag + " expects a file path");
      }
    } else if (flag == "--windows-out") {
      options.windows_out_path = next();
      if (options.windows_out_path.empty()) {
        usage(flag + " expects a file path");
      }
    } else if (flag == "--window-cycles") {
      options.window_cycles = parse_count(flag, next(), 1);
    } else if (flag == "--max-trace-events") {
      options.max_trace_events =
          static_cast<std::size_t>(parse_count(flag, next(), 0));
    } else if (flag == "--tolerance") {
      options.tolerance = parse_real(flag, next(), 0.0, 1e6);
    } else if (flag == "--report") {
      options.analyze_report_path = next();
      if (options.analyze_report_path.empty()) {
        usage(flag + " expects a file path");
      }
    } else if (flag == "--windows") {
      options.analyze_windows_path = next();
      if (options.analyze_windows_path.empty()) {
        usage(flag + " expects a file path");
      }
    } else if (flag == "--out") {
      options.analyze_out_path = next();
      if (options.analyze_out_path.empty()) {
        usage(flag + " expects a file path");
      }
    } else if (flag == "--top") {
      options.analyze_top =
          static_cast<std::size_t>(parse_count(flag, next(), 1));
    } else if (flag == "--diff") {
      options.analyze_diff_mode = true;
    } else if (flag == "--trace-spans") {
      options.trace_spans = true;
    } else if (!flag.starts_with("--") &&
               (options.command == "bench-diff" ||
                options.command == "analyze")) {
      options.positional.push_back(flag);
    } else if (flag == "--file") {
      options.scenario_path = next();
      if (options.scenario_path.empty()) usage(flag + " expects a file path");
    } else if (flag == "--sweep-cores") {
      options.sweep_cores = next();
    } else if (flag == "--sweep-gaps") {
      options.sweep_gaps = next();
    } else if (flag == "--sweep-policies") {
      options.sweep_policies = next();
    } else if (flag == "--shards") {
      options.shards = static_cast<std::size_t>(parse_count(flag, next(), 1));
    } else if (flag == "--checkpoint-out") {
      options.checkpoint_out_path = next();
      if (options.checkpoint_out_path.empty()) {
        usage(flag + " expects a file path");
      }
    } else if (flag == "--checkpoint-every") {
      options.checkpoint_every = parse_count(flag, next(), 1);
    } else if (flag == "--resume-from") {
      options.resume_from_path = next();
      if (options.resume_from_path.empty()) {
        usage(flag + " expects a file path");
      }
    } else if (flag == "--halt-after-checkpoints") {
      options.halt_after_checkpoints = parse_count(flag, next(), 1);
    } else if (flag == "--cell-timeout-ms") {
      options.cell_timeout_ms = parse_count(flag, next(), 1);
    } else if (flag == "--cell-retries") {
      options.cell_retries =
          static_cast<std::uint32_t>(parse_count(flag, next(), 1));
    } else if (flag == "--cell-backoff-ms") {
      options.cell_backoff_ms = parse_count(flag, next(), 0);
    } else if (flag == "--manifest-out") {
      options.manifest_out_path = next();
      if (options.manifest_out_path.empty()) {
        usage(flag + " expects a file path");
      }
    } else if (flag == "--report-deterministic") {
      options.deterministic_report = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  // Interval sanity shared with the checkpoint driver: both counts must
  // be >= 1 (parse_count enforces that) and the checkpoint stride
  // window_cycles * checkpoint_every must not overflow the simulated
  // clock — a wrapped stride would silently disable checkpointing.
  const std::string interval_error =
      window_interval_error(options.window_cycles, options.checkpoint_every);
  if (!interval_error.empty()) {
    usage("--window-cycles/--checkpoint-every: " + interval_error);
  }
  // A halted run must leave a checkpoint to resume from.
  if (options.halt_after_checkpoints > 0 &&
      options.checkpoint_out_path.empty()) {
    usage("--halt-after-checkpoints requires --checkpoint-out (a halted "
          "run must leave a checkpoint to resume from)");
  }
  // Trace buffers are not part of the checkpointed state, so a resumed
  // trace could never match.
  if (!options.trace_out_path.empty() && options.wants_checkpointing()) {
    usage("--trace-out cannot be combined with checkpoint/resume flags "
          "(trace buffers are not part of the checkpointed state)");
  }
  // The session observer counts the events this process runs: a resumed
  // run skips those before the checkpoint or of the manifest's cells,
  // and a retried cell runs its events again.
  if ((!options.trace_out_path.empty() ||
       !options.metrics_out_path.empty()) &&
      (!options.resume_from_path.empty() || options.cell_retries > 1)) {
    usage("--trace-out and --metrics-out cannot be combined with "
          "--resume-from or --cell-retries above 1 (the session observer "
          "must see every event of the run exactly once)");
  }
  require_parent_dir("--trace-out", options.trace_out_path);
  require_parent_dir("--metrics-out", options.metrics_out_path);
  require_parent_dir("--report-out", options.report_out_path);
  require_parent_dir("--windows-out", options.windows_out_path);
  require_parent_dir("--checkpoint-out", options.checkpoint_out_path);
  require_parent_dir("--manifest-out", options.manifest_out_path);
  require_parent_dir("--save", options.save_path);
  require_parent_dir("--out", options.analyze_out_path);
  return options;
}

void print_result(const std::string& name, const SimulationResult& r) {
  TablePrinter table({"metric", "value"});
  table.add_row({"total energy",
                 TablePrinter::num(r.total_energy().millijoules(), 2) +
                     " mJ"});
  table.add_row({"  idle",
                 TablePrinter::num(r.idle_energy.millijoules(), 2) + " mJ"});
  table.add_row({"  dynamic",
                 TablePrinter::num(r.dynamic_energy.millijoules(), 2) +
                     " mJ"});
  table.add_row({"  busy static",
                 TablePrinter::num(r.busy_static_energy.millijoules(), 2) +
                     " mJ"});
  table.add_row({"  cpu",
                 TablePrinter::num(r.cpu_energy.millijoules(), 2) + " mJ"});
  table.add_row({"  reconfig",
                 TablePrinter::num(r.reconfig_energy.millijoules(), 2) +
                     " mJ"});
  table.add_row({"makespan", std::to_string(r.makespan) + " cycles"});
  table.add_row({"execution cycles",
                 std::to_string(r.total_execution_cycles)});
  table.add_row({"completed jobs", std::to_string(r.completed_jobs)});
  table.add_row({"stalls", std::to_string(r.stall_events)});
  table.add_row({"profiling runs", std::to_string(r.profiling_runs)});
  table.add_row({"tuning runs", std::to_string(r.tuning_runs)});
  table.add_row({"reconfigurations", std::to_string(r.reconfigurations)});
  if (r.jobs_with_deadline > 0) {
    table.add_row({"deadline misses",
                   std::to_string(r.deadline_misses) + " / " +
                       std::to_string(r.jobs_with_deadline)});
    table.add_row({"preemptions", std::to_string(r.preemptions)});
  }
  if (r.faults.any()) {
    table.add_row({"injected faults", std::to_string(r.faults.injected)});
    table.add_row({"  core failures",
                   std::to_string(r.faults.core_failures) + " (" +
                       std::to_string(r.faults.core_recoveries) +
                       " recovered)"});
    table.add_row({"  reconfig failures",
                   std::to_string(r.faults.reconfig_failures) + " (" +
                       std::to_string(r.faults.reconfig_retries) +
                       " retries)"});
    table.add_row({"  counter corruptions",
                   std::to_string(r.faults.counter_corruptions)});
    table.add_row({"  watchdog fires",
                   std::to_string(r.faults.watchdog_fires)});
    table.add_row({"jobs re-queued by faults",
                   std::to_string(r.faults.jobs_requeued)});
    table.add_row({"degraded executions",
                   std::to_string(r.faults.degraded_executions)});
    table.add_row({"prediction fallbacks",
                   std::to_string(r.faults.prediction_fallbacks)});
  }
  std::cout << "=== " << name << " ===\n";
  table.print(std::cout);
}

// Per-contender win-rate table for a portfolio run, printed after the
// main accounting.
void print_portfolio(const PortfolioStats& stats) {
  std::cout << "portfolio: " << stats.switches.size()
            << " switch(es) over " << stats.windows_closed
            << " selector window(s) of " << stats.window_cycles
            << " cycles; final active policy '" << stats.active << "'\n";
  TablePrinter table({"contender", "windows led", "win rate"});
  for (std::size_t i = 0; i < stats.contenders.size(); ++i) {
    const double rate =
        stats.windows_closed == 0
            ? 0.0
            : static_cast<double>(stats.windows_active[i]) /
                  static_cast<double>(stats.windows_closed);
    table.add_row({stats.contenders[i],
                   std::to_string(stats.windows_active[i]),
                   TablePrinter::num(rate, 3)});
  }
  table.print(std::cout);
}

// One-line DAG release accounting for a dependency-graph scenario,
// printed after the main accounting.
void print_dag(const DagStats& stats) {
  std::cout << "dag: " << stats.nodes << " node(s), " << stats.edges
            << " edge(s), critical path " << stats.max_rank << "; "
            << stats.releases << " dependent release(s), ready peak "
            << stats.ready_peak << ", release latency "
            << stats.release_latency_total << " cycles\n";
}

bool write_text_file(const std::string& path, const std::string& content,
                     const char* what) {
  if (!atomic_write_file(path, content)) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  std::cout << what << " written to " << path << "\n";
  return true;
}

// The accounting table plus the stream digest line, and the selector and
// DAG summaries when the run had them.
void print_outcome(const std::string& name, const ScenarioOutcome& outcome) {
  print_result(name, outcome.result);
  std::cout << "stream: " << outcome.stream.slices() << " slices, digest 0x"
            << std::hex << outcome.stream.digest() << std::dec << ", "
            << outcome.stream.invariant_violations()
            << " invariant violations\n";
  if (outcome.portfolio.has_value()) print_portfolio(*outcome.portfolio);
  if (outcome.dag.has_value()) print_dag(*outcome.dag);
}

// Shared tail of run/scenario/sweep: stamp the phase timers into the
// report (unless it is to be deterministic) and write the requested
// artifacts.
int export_reports(const CliOptions& options, const PhaseTimers& timers,
                   RunArtifacts artifacts) {
  if (!options.windows_out_path.empty() &&
      !write_text_file(options.windows_out_path, artifacts.windows_jsonl,
                       "windows")) {
    return 1;
  }
  if (!options.report_out_path.empty()) {
    artifacts.report.phases_ms = timers.entries();
    artifacts.report.include_phases = !options.deterministic_report;
    if (!write_text_file(options.report_out_path,
                         run_report_to_json(artifacts.report), "report")) {
      return 1;
    }
  }
  return 0;
}

// Shared tail of run and scenario: print the outcome, record it in the
// session registry and export the run's report.
int finish_run(const CliOptions& options, ObsSession* obs,
               const PhaseTimers& timers, const std::string& command,
               const Scenario& scenario, const ScenarioContext& context,
               const ScenarioOutcome& outcome,
               const RunCollectors& collectors) {
  print_outcome(scenario.name, outcome);
  if (obs != nullptr) {
    record_scenario_metrics(obs->metrics, scenario.name + ".", outcome);
  }
  const int status = export_reports(
      options, timers,
      build_run_report(command, scenario, context, outcome, collectors));
  if (status != 0) return status;
  return outcome.stream.invariant_violations() == 0 ? 0 : 1;
}

int cmd_characterize(const CliOptions& options) {
  const EnergyModel energy(CactiModel{}, EnergyModelParams{});
  const CharacterizedSuite suite = load_or_build_suite(
      options.profile_cache_path, energy, options.run.suite);
  if (!options.kernel.empty()) {
    // Single-kernel per-configuration sweep.
    for (std::size_t id : suite.scheduling_ids()) {
      const BenchmarkProfile& b = suite.benchmark(id);
      if (!b.instance.name.starts_with(options.kernel)) continue;
      TablePrinter table({"config", "miss rate", "cycles", "total nJ"});
      for (const ConfigProfile& cp : b.per_config) {
        table.add_row({cp.config.name(),
                       TablePrinter::num(cp.cache.miss_rate(), 4),
                       std::to_string(cp.energy.total_cycles),
                       TablePrinter::num(cp.energy.total().value(), 0)});
      }
      std::cout << b.instance.name << " ("
                << to_string(b.instance.domain) << ", oracle best "
                << b.best_overall().config.name() << ")\n";
      table.print(std::cout);
      return 0;
    }
    std::cerr << "kernel '" << options.kernel << "' not found\n";
    return 1;
  }
  TablePrinter table({"benchmark", "domain", "refs", "oracle best",
                      "best/base energy"});
  for (std::size_t id : suite.scheduling_ids()) {
    const BenchmarkProfile& b = suite.benchmark(id);
    const ConfigProfile& base =
        b.profile_for(DesignSpace::base_config());
    table.add_row({b.instance.name, std::string(to_string(b.instance.domain)),
                   std::to_string(b.counters.memory_refs()),
                   b.best_overall().config.name(),
                   TablePrinter::num(
                       b.best_overall().energy.total() / base.energy.total(),
                       3)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_train(const CliOptions& options) {
  if (options.save_path.empty()) usage("train requires --save FILE");
  // The flag-built scenario runs the proposed system, so its context
  // trains the predictor that run and compare would.
  const ScenarioContext context(options.run, options.profile_cache_path);
  const BestSizePredictor& predictor = *context.trained_predictor();
  const PredictorReport& report = predictor.report();
  std::cout << "trained on " << report.dataset_rows << " rows; test accuracy "
            << TablePrinter::num(report.test_accuracy * 100.0, 1) << "%\n";
  std::ostringstream out;
  PredictorSnapshot::from(predictor).save(out);
  if (!atomic_write_file(options.save_path, out.str())) {
    std::cerr << "cannot write " << options.save_path << "\n";
    return 1;
  }
  std::cout << "predictor snapshot written to " << options.save_path
            << "\n";
  return 0;
}

std::ifstream open_input(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return in;
}

int cmd_run_or_compare(const CliOptions& options, ObsSession* obs) {
  PhaseTimers timers;
  // The flag template plus the fault flags: a plan file, a uniform rate,
  // or a file with its rates/seed overridden.
  Scenario flags = options.run;
  if (!options.fault_plan_path.empty()) {
    std::ifstream in = open_input(options.fault_plan_path);
    flags.faults = FaultPlan::parse(in);
  }
  if (options.fault_rate.has_value()) {
    flags.faults.reconfig_failure_rate = *options.fault_rate;
    flags.faults.stuck_job_rate = *options.fault_rate;
    flags.faults.counter_corruption_rate = *options.fault_rate;
  }
  if (options.fault_seed.has_value()) flags.faults.seed = *options.fault_seed;
  // compare: the four Section-V systems over one stream, fanned out
  // over the shared pool; run: the one named system. Each runs on the
  // machine its policy runs on.
  const PolicyRegistry& registry = PolicyRegistry::instance();
  if (options.command == "run" && !registry.known(options.system)) {
    usage("unknown system " + options.system + " (expected " +
          registry.names_help() + ")");
  }
  const std::vector<Scenario> scenarios =
      options.command == "compare"
          ? paper_systems(flags)
          : std::vector<Scenario>{named_system(flags, options.system)};

  std::unique_ptr<const SizePredictor> loaded;
  if (!options.load_path.empty()) {
    std::ifstream in = open_input(options.load_path);
    auto snapshot =
        std::make_unique<PredictorSnapshot>(PredictorSnapshot::load(in));
    std::cout << "loaded predictor snapshot (" << snapshot->member_count()
              << " nets) from " << options.load_path << "\n";
    loaded = std::move(snapshot);
  }
  // One context serves every system: built for the last one, which is
  // the ANN-backed proposed system in a compare.
  std::optional<ScenarioContext> context;
  {
    const auto scope = timers.scope("setup");
    context.emplace(scenarios.back(), options.profile_cache_path,
                    std::move(loaded));
  }

  // Per-system observers (and their registry entries) are created
  // serially before the fan-out; each then only sees its own run's
  // events, so the merged output is thread-count independent.
  std::deque<RunCollectors> collectors;
  for (const Scenario& scenario : scenarios) {
    collectors.emplace_back(
        scenario, &context->suite(), options.collector_window(),
        obs != nullptr ? &obs->add_system(scenario.name) : nullptr);
  }
  std::vector<std::optional<ScenarioOutcome>> outcomes(scenarios.size());
  {
    const auto scope = timers.scope("run");
    ThreadPool::global().parallel_for(scenarios.size(), [&](std::size_t i) {
      outcomes[i].emplace(
          run_scenario(scenarios[i], *context, collectors[i].observer()));
    });
  }
  for (RunCollectors& c : collectors) c.finalize();

  if (options.command == "run") {
    return finish_run(options, obs, timers, "run", scenarios[0], *context,
                      *outcomes[0], collectors[0]);
  }
  const SimulationResult& base = outcomes[0]->result;
  TablePrinter table({"system", "idle", "dynamic", "total", "cycles"});
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string& name = scenarios[i].name;
    if (obs != nullptr) {
      record_scenario_metrics(obs->metrics, name + ".", *outcomes[i]);
    }
    const NormalizedEnergy n = normalize(outcomes[i]->result, base);
    table.add_row({name, TablePrinter::num(n.idle, 2),
                   TablePrinter::num(n.dynamic, 2),
                   TablePrinter::num(n.total, 2),
                   TablePrinter::num(n.cycles, 2)});
  }
  std::cout << "normalised to the base system ("
            << options.run.arrivals.count << " arrivals, seed "
            << options.run.seed << "):\n";
  table.print(std::cout);
  return 0;
}

std::optional<Scenario> load_scenario(const CliOptions& options) {
  if (options.scenario_path.empty()) {
    std::cerr << "error: " << options.command << " requires --file FILE\n";
    return std::nullopt;
  }
  std::ifstream in(options.scenario_path);
  if (!in) {
    std::cerr << "cannot open " << options.scenario_path << "\n";
    return std::nullopt;
  }
  return Scenario::parse(in);
}

int cmd_scenario(const CliOptions& options, ObsSession* obs) {
  PhaseTimers timers;
  const std::optional<Scenario> scenario = load_scenario(options);
  if (!scenario.has_value()) return 1;
  std::optional<ScenarioContext> context;
  {
    const auto scope = timers.scope("setup");
    context.emplace(*scenario, options.profile_cache_path);
  }
  // The collectors' accumulators are part of the checkpointed state, so
  // with --report-deterministic every output of a resumed run is
  // byte-identical to the uninterrupted one.
  RunCollectors collectors(
      *scenario, &context->suite(), options.collector_window(),
      obs != nullptr ? &obs->add_system(scenario->name) : nullptr);
  CheckpointRunOptions copts;
  copts.checkpoint_every = options.checkpoint_every;
  copts.checkpoint_out = options.checkpoint_out_path;
  copts.resume_from = options.resume_from_path;
  copts.halt_after_checkpoints = options.halt_after_checkpoints;
  std::optional<CheckpointRunOutcome> outcome;
  {
    const auto scope = timers.scope("run");
    outcome.emplace(
        run_scenario_checkpointed(*scenario, *context, copts, collectors));
  }
  if (outcome->resumed_from > 0) {
    std::cout << "resumed from checkpoint boundary " << outcome->resumed_from
              << "\n";
  }
  if (!copts.checkpoint_out.empty() && outcome->checkpoints_written > 0) {
    std::cout << outcome->checkpoints_written << " checkpoint(s) written to "
              << copts.checkpoint_out << "\n";
  }
  if (outcome->halted) {
    std::cout << "halted after " << outcome->checkpoints_written
              << " checkpoint(s); resume with --resume-from "
              << copts.checkpoint_out << "\n";
    return 3;
  }
  return finish_run(options, obs, timers, "scenario", *scenario, *context,
                    *outcome, collectors);
}

// "8,16" -> {8, 16}; parse errors go through the flag's usual parser.
std::vector<std::string> split_list(const std::string& flag,
                                    const std::string& text) {
  std::vector<std::string> items;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  if (items.empty()) usage(flag + " expects a comma-separated list");
  return items;
}

int cmd_sweep(const CliOptions& options, ObsSession* obs) {
  PhaseTimers timers;
  const std::optional<Scenario> base = load_scenario(options);
  if (!base.has_value()) return 1;

  SweepGrid grid;
  grid.base = *base;
  grid.core_counts.clear();
  for (const std::string& item :
       split_list("--sweep-cores", options.sweep_cores)) {
    grid.core_counts.push_back(
        static_cast<std::size_t>(parse_count("--sweep-cores", item, 1)));
  }
  grid.mean_gaps.clear();
  if (options.sweep_gaps.empty()) {
    grid.mean_gaps.push_back(base->arrivals.mean_interarrival_cycles);
  } else {
    for (const std::string& item :
         split_list("--sweep-gaps", options.sweep_gaps)) {
      grid.mean_gaps.push_back(parse_real("--sweep-gaps", item, 1.0, 1e15));
    }
  }
  grid.policies = split_list("--sweep-policies", options.sweep_policies);
  grid.validate();

  std::optional<ScenarioContext> context;
  {
    const auto scope = timers.scope("setup");
    context.emplace(grid.context_scenario(), options.profile_cache_path);
  }
  const std::size_t shards =
      options.shards == 0 ? grid.cell_count() : options.shards;

  // Per-cell observers, created serially before the fan-out (stable
  // registration order), each touched only by the shard running its
  // cell. Completed cells resumed from a manifest come back with their
  // collectors, so the merged outputs match a clean run's.
  std::vector<ScheduleObserver*> observers;
  for (std::size_t i = 0; obs != nullptr && i < grid.cell_count(); ++i) {
    observers.push_back(&obs->add_system(grid.cell_label(i)));
  }
  SweepOptions sopts;
  sopts.cell_timeout_ms = options.cell_timeout_ms;
  sopts.max_attempts = options.cell_retries;
  sopts.retry_backoff_ms = options.cell_backoff_ms;
  sopts.window_cycles = options.collector_window();
  sopts.manifest_out = options.manifest_out_path;
  sopts.resume_manifest = options.resume_from_path;
  std::optional<SweepResult> sweep;
  {
    const auto scope = timers.scope("run");
    sweep.emplace(run_sweep(grid, *context, shards, ThreadPool::global(),
                            sopts, observers));
  }
  if (sweep->resumed_cells > 0) {
    std::cout << sweep->resumed_cells
              << " cell(s) resumed from the manifest\n";
  }

  TablePrinter table(
      {"cell", "status", "completed", "total mJ", "makespan", "digest"});
  std::uint64_t violations = 0;
  for (const SweepCell& cell : sweep->cells) {
    if (!cell.completed) {
      table.add_row({cell.label, "FAILED", "-", "-", "-", "-"});
      continue;
    }
    std::ostringstream digest;
    digest << std::hex << cell.stream_digest;
    table.add_row(
        {cell.label, "ok", std::to_string(cell.result.completed_jobs),
         TablePrinter::num(cell.result.total_energy().millijoules(), 2),
         std::to_string(cell.result.makespan), digest.str()});
    violations += cell.invariant_violations;
  }
  std::cout << grid.cell_count() << " cells in " << shards << " shards ("
            << ThreadPool::global().thread_count() << " threads, "
            << sweep->failed.size() << " quarantined):\n";
  table.print(std::cout);
  for (const SweepFailure& f : sweep->failed) {
    std::cerr << "quarantined " << f.label << " after " << f.attempts
              << " attempt(s): " << (f.timed_out ? "timeout: " : "")
              << f.reason << "\n";
  }
  if (obs != nullptr) {
    record_sweep_metrics(obs->metrics, "sweep.", sweep->cells);
  }

  const int export_status = export_reports(
      options, timers,
      build_sweep_report(grid, *context, sweep->cells, sweep->failed));
  if (export_status != 0) return export_status;
  if (!sweep->failed.empty()) return 1;
  if (violations != 0) {
    std::cerr << "error: " << violations << " schedule invariant violations\n";
    return 1;
  }
  return 0;
}

int cmd_bench_diff(const CliOptions& options) {
  if (options.positional.size() != 2) {
    usage("bench-diff expects exactly two operands: BASELINE.json "
          "CURRENT.json");
  }
  const std::optional<std::string> baseline =
      read_file(options.positional[0]);
  if (!baseline.has_value()) {
    std::cerr << "cannot open " << options.positional[0] << "\n";
    return 2;
  }
  const std::optional<std::string> current =
      read_file(options.positional[1]);
  if (!current.has_value()) {
    std::cerr << "cannot open " << options.positional[1] << "\n";
    return 2;
  }
  const BenchDiffResult diff =
      bench_diff(*baseline, *current, options.tolerance);
  std::cout << "bench-diff " << options.positional[0] << " -> "
            << options.positional[1] << " (tolerance "
            << options.tolerance << ")\n"
            << diff.summary(options.tolerance);
  return diff.regressed() ? 1 : 0;
}

int cmd_analyze(const CliOptions& options) {
  std::string output;
  bool failed = false;
  if (options.analyze_diff_mode) {
    if (options.positional.size() != 2) {
      usage("analyze --diff expects exactly two operands: BASELINE.json "
            "CURRENT.json");
    }
    const std::optional<std::string> baseline =
        read_file(options.positional[0]);
    if (!baseline.has_value()) {
      std::cerr << "cannot open " << options.positional[0] << "\n";
      return 2;
    }
    const std::optional<std::string> current =
        read_file(options.positional[1]);
    if (!current.has_value()) {
      std::cerr << "cannot open " << options.positional[1] << "\n";
      return 2;
    }
    output = "analyze --diff " + options.positional[0] + " -> " +
             options.positional[1] + " (tolerance " +
             CsvWriter::number(options.tolerance) + ")\n";
    bool regressed = false;
    output += analyze_diff(*baseline, *current, options.tolerance,
                           &regressed);
    failed = regressed;
  } else {
    if (options.analyze_report_path.empty()) {
      usage("analyze requires --report FILE (or --diff A B)");
    }
    const std::optional<std::string> report =
        read_file(options.analyze_report_path);
    if (!report.has_value()) {
      std::cerr << "cannot open " << options.analyze_report_path << "\n";
      return 2;
    }
    std::string windows;
    if (!options.analyze_windows_path.empty()) {
      const std::optional<std::string> jsonl =
          read_file(options.analyze_windows_path);
      if (!jsonl.has_value()) {
        std::cerr << "cannot open " << options.analyze_windows_path << "\n";
        return 2;
      }
      windows = *jsonl;
    }
    AnalyzeOptions aopts;
    aopts.top = options.analyze_top;
    output = analyze_run(*report, windows, aopts);
  }
  if (!options.analyze_out_path.empty()) {
    if (!write_text_file(options.analyze_out_path, output, "analysis")) {
      return 1;
    }
  } else {
    std::cout << output;
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = parse(argc, argv);
  // Observability is opt-in: with neither flag the probe stays null and
  // the simulators run tracer-free (the zero-cost disabled path). The
  // run report needs no session: its metrics are the run's own.
  std::optional<ObsSession> obs;
  std::optional<ScopedProbe> probe;
  if (!options.trace_out_path.empty() || !options.metrics_out_path.empty()) {
    obs.emplace(options);
    probe.emplace(&*obs->recorder);
  }
  ObsSession* obs_ptr = obs.has_value() ? &*obs : nullptr;
  int status = 2;
  try {
    if (options.command == "characterize") {
      status = cmd_characterize(options);
    } else if (options.command == "train") {
      status = cmd_train(options);
    } else if (options.command == "run" || options.command == "compare") {
      status = cmd_run_or_compare(options, obs_ptr);
    } else if (options.command == "scenario") {
      status = cmd_scenario(options, obs_ptr);
    } else if (options.command == "sweep") {
      status = cmd_sweep(options, obs_ptr);
    } else if (options.command == "bench-diff") {
      status = cmd_bench_diff(options);
    } else if (options.command == "analyze") {
      status = cmd_analyze(options);
    } else {
      usage("unknown command " + options.command);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (status == 0 && obs.has_value() && !obs->finish()) return 1;
  return status;
}

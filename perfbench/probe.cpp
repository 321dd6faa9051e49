// Traced library run for the hetsched benchmark.
//
// Runs one benchmark workload through the library's public API and
// prints one JSON object on stdout. Two modes:
//
//   reference  the untraced library drivers, no timers: run_scenario()
//              for scenario workloads, and for paper_quad the four
//              Section-V systems wired exactly as `hetsched_cli compare`
//              wires them. Also runs the `base` policy on a fixed-base
//              machine over the same input, for energy_vs_base.
//   traced     the same work wired by hand, with every call into a
//              layer's public functions wrapped in a forwarding timer
//              (arrival source, policy decide/on_profiled, each schedule
//              observer, suite build, predictor training, scenario
//              parse, the report/JSONL writers). Nothing inside the
//              library is instrumented.
//
// Both modes print the serialized SimulationResult (and, for scenarios,
// the stream digest) so the caller can check that the timers did not
// perturb the run.
//
//   hetsched_probe paper_quad --seed N --threads T --mode M [--arrivals N]
//   hetsched_probe scenario --file F.scn --threads T --mode M
//                  [--out-dir D]   (D: write windows/report/metrics)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/multi_sim.hpp"
#include "core/policy_registry.hpp"
#include "core/portfolio_policy.hpp"
#include "core/predictor.hpp"
#include "core/simulator.hpp"
#include "obs/event_trace.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/run_report.hpp"
#include "obs/windowed.hpp"
#include "scenario/dag_arrivals.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scenario_runner.hpp"
#include "scenario/stream_stats.hpp"
#include "trace/kernel.hpp"
#include "util/atomic_file.hpp"
#include "util/thread_pool.hpp"
#include "workload/characterization.hpp"
#include "workload/dataset_builder.hpp"
#include "workload/profile_cache.hpp"

namespace {

using namespace hetsched;
using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------
// Span timers. A Bucket accumulates the self time of every span charged
// to it: the span's duration minus the part covered by spans opened
// inside it (a DAG completion that fans release events out to the
// collectors charges those callbacks to the collectors, not the DAG).
//
// Each span costs two clock reads. About one read lands inside the span
// (billed to its bucket) and about one outside it (billed to the
// enclosing span). Both are measured in place: every kProbeEvery-th span
// first times an empty interval (two back-to-back reads) under the same
// cache and pipeline conditions as the layer, and the corrected figures
// subtract the mean of those probes once per span from the bucket and
// once per child span from the parent.

constexpr std::uint64_t kProbeEvery = 32;

struct Bucket {
  std::uint64_t self_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t child_spans = 0;  // spans and probes opened directly inside
  std::uint64_t probe_ns = 0;
  std::uint64_t probes = 0;
};

class Span;
// Innermost open span on this thread.
thread_local Span* t_open_span = nullptr;

class Span {
 public:
  explicit Span(Bucket& bucket) : bucket_(bucket), parent_(t_open_span) {
    if (bucket.calls % kProbeEvery == 0) {
      const std::uint64_t a = now_ns();
      const std::uint64_t b = now_ns();
      bucket.probe_ns += b - a;
      ++bucket.probes;
      if (parent_ != nullptr) {
        parent_->child_ns_ += b - a;
        ++parent_->child_spans_;
      }
    }
    t_open_span = this;
    start_ = now_ns();
  }
  ~Span() {
    const std::uint64_t duration = now_ns() - start_;
    bucket_.self_ns += duration - child_ns_;
    bucket_.child_spans += child_spans_;
    ++bucket_.calls;
    if (parent_ != nullptr) {
      parent_->child_ns_ += duration;
      ++parent_->child_spans_;
    }
    t_open_span = parent_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Bucket& bucket_;
  Span* parent_;
  std::uint64_t child_ns_ = 0;
  std::uint64_t child_spans_ = 0;
  std::uint64_t start_ = 0;
};

// ---------------------------------------------------------------------
// Forwarding wrappers around the layers' public interfaces.

class TimedSource final : public ArrivalSource {
 public:
  explicit TimedSource(ArrivalSource& inner) : inner_(inner) {}
  std::optional<JobArrival> next() override {
    Span span(next_);
    return inner_.next();
  }
  bool lookahead_stale() const override { return inner_.lookahead_stale(); }
  void unget(const JobArrival& arrival) override {
    Span span(next_);
    inner_.unget(arrival);
  }
  const Bucket& bucket() const { return next_; }

 private:
  ArrivalSource& inner_;
  Bucket next_;
};

class TimedPolicy final : public SchedulerPolicy {
 public:
  explicit TimedPolicy(SchedulerPolicy& inner) : inner_(inner) {}
  std::string_view name() const override { return inner_.name(); }
  Decision decide(const Job& job, SystemView& view) override {
    Span span(decide_);
    const Decision decision = inner_.decide(job, view);
    if (decision.kind == Decision::Kind::kStall) ++stalls_;
    return decision;
  }
  bool can_preempt() const override { return inner_.can_preempt(); }
  void on_profiled(std::size_t benchmark_id, SystemView& view) override {
    Span span(profiled_);
    inner_.on_profiled(benchmark_id, view);
  }
  void save_state(std::ostream& out) const override {
    inner_.save_state(out);
  }
  void restore_state(std::istream& in, const std::string& context) override {
    inner_.restore_state(in, context);
  }
  const Bucket& decide_bucket() const { return decide_; }
  const Bucket& profiled_bucket() const { return profiled_; }
  std::uint64_t stalls() const { return stalls_; }

 private:
  SchedulerPolicy& inner_;
  Bucket decide_;
  Bucket profiled_;
  std::uint64_t stalls_ = 0;
};

class TimedObserver final : public ScheduleObserver {
 public:
  explicit TimedObserver(ScheduleObserver& inner) : inner_(inner) {}
  void on_slice(const ScheduledSlice& s) override {
    Span span(bucket_);
    inner_.on_slice(s);
  }
  void on_fault(const FaultRecord& r) override {
    Span span(bucket_);
    inner_.on_fault(r);
  }
  void on_arrival(const ArrivalEvent& e) override {
    Span span(bucket_);
    inner_.on_arrival(e);
  }
  void on_dispatch(const DispatchEvent& e) override {
    Span span(bucket_);
    inner_.on_dispatch(e);
  }
  void on_reconfig(const ReconfigEvent& e) override {
    Span span(bucket_);
    inner_.on_reconfig(e);
  }
  void on_idle(const IdleEvent& e) override {
    Span span(bucket_);
    inner_.on_idle(e);
  }
  void on_preempt(const PreemptEvent& e) override {
    Span span(bucket_);
    inner_.on_preempt(e);
  }
  void on_stall(const StallEvent& e) override {
    Span span(bucket_);
    inner_.on_stall(e);
  }
  void on_queue_depth(const QueueSample& s) override {
    Span span(bucket_);
    inner_.on_queue_depth(s);
  }
  void on_dag_release(const DagReleaseEvent& e) override {
    Span span(bucket_);
    inner_.on_dag_release(e);
  }
  Bucket& bucket() { return bucket_; }

 private:
  ScheduleObserver& inner_;
  Bucket bucket_;
};

// ---------------------------------------------------------------------
// Output helpers.

std::string serialize(const SimulationResult& result) {
  std::ostringstream raw;
  save_simulation_result(raw, result);
  std::string flat;
  bool space = false;
  for (const char c : raw.str()) {
    if (c == ' ' || c == '\n' || c == '\t') {
      space = true;
      continue;
    }
    if (space && !flat.empty()) flat += ' ';
    space = false;
    flat += c;
  }
  return flat;
}

std::string num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// Flat JSON object writer: string and number members only.
class JsonObject {
 public:
  void add(const std::string& key, const std::string& text) {
    std::string escaped;
    for (const char c : text) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    members_.push_back("\"" + key + "\": \"" + escaped + "\"");
  }
  void add(const std::string& key, double value) {
    members_.push_back("\"" + key + "\": " + num(value));
  }
  void add_raw(const std::string& key, const std::string& json) {
    members_.push_back("\"" + key + "\": " + json);
  }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (i > 0) out += ", ";
      out += members_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> members_;
};

std::string result_json(const SimulationResult& result,
                        std::optional<std::uint64_t> digest,
                        std::optional<std::uint64_t> violations) {
  JsonObject out;
  out.add("serialized", serialize(result));
  out.add("total_energy_nj", result.total_energy().value());
  out.add("idle_energy_nj", result.idle_energy.value());
  out.add("dynamic_energy_nj", result.dynamic_energy.value());
  out.add("execution_cycles",
          static_cast<double>(result.total_execution_cycles));
  out.add("makespan", static_cast<double>(result.makespan));
  out.add("completed_jobs", static_cast<double>(result.completed_jobs));
  if (digest.has_value()) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "%llx",
                  static_cast<unsigned long long>(*digest));
    out.add("digest", std::string(hex));
  }
  if (violations.has_value()) {
    out.add("invariant_violations", static_cast<double>(*violations));
  }
  return out.str();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// Layer cost of hand-wired simulation runs: one bucket per timed layer,
// plus the enclosing run span whose self time is the engine's own work.
struct RunLedger {
  Bucket run;
  std::map<std::string, Bucket> layers;
  std::uint64_t stalls = 0;
  std::uint64_t jobs = 0;
  DispatchTelemetry dispatch;

  static void accumulate(Bucket& into, const Bucket& bucket) {
    into.self_ns += bucket.self_ns;
    into.calls += bucket.calls;
    into.child_spans += bucket.child_spans;
    into.probe_ns += bucket.probe_ns;
    into.probes += bucket.probes;
  }
  void add(const std::string& layer, const Bucket& bucket) {
    accumulate(layers[layer], bucket);
  }
  void absorb(const SimulationResult& result, const Bucket& run_span,
              const TimedSource& source, const TimedPolicy& policy,
              const DispatchTelemetry& telemetry) {
    jobs += result.completed_jobs;
    accumulate(run, run_span);
    add("workload.arrivals", source.bucket());
    add("core.decide", policy.decide_bucket());
    add("core.on_profiled", policy.profiled_bucket());
    stalls += policy.stalls();
    add_dispatch(telemetry);
  }
  void merge(const RunLedger& other) {
    accumulate(run, other.run);
    for (const auto& [layer, bucket] : other.layers) add(layer, bucket);
    stalls += other.stalls;
    jobs += other.jobs;
    add_dispatch(other.dispatch);
  }
  void add_dispatch(const DispatchTelemetry& telemetry) {
    dispatch.decisions += telemetry.decisions;
    dispatch.words_scanned += telemetry.words_scanned;
    dispatch.clamp_lookups += telemetry.clamp_lookups;
    dispatch.clamp_hits += telemetry.clamp_hits;
  }
};

// Set-up cost of a traced run: suite characterisation and predictor
// training as timed calls, the pool's CPU use over that phase, and the
// characterisation split into its trace and cache layers.
struct SetupLedger {
  double suite_s = 0;
  double train_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double parse_s = 0;
};

// Same training split as the library drivers: variant>0 instances train
// the ANN; with one variant per kernel, everything does.
std::unique_ptr<BestSizePredictor> train_predictor(
    const CharacterizedSuite& suite, const PredictorConfig& config,
    std::uint64_t seed, double& train_s) {
  std::vector<std::size_t> train_ids = suite.training_ids();
  if (train_ids.empty()) {
    train_ids.resize(suite.size());
    for (std::size_t i = 0; i < train_ids.size(); ++i) train_ids[i] = i;
  }
  const Dataset dataset = build_ann_dataset(suite, train_ids);
  Rng train_rng(seed);
  const std::uint64_t t = now_ns();
  auto predictor =
      std::make_unique<BestSizePredictor>(dataset, config, train_rng);
  train_s = seconds_since(t);
  return predictor;
}

// Serial replay of the units CharacterizedSuite::build fans out (data
// seeds as the library derives them), timing the trace layer's kernel
// executions and the cache layer's single-pass simulation separately.
// Runs after the workload so it cannot perturb it.
void add_setup_metrics(JsonObject& out, const SetupLedger& setup,
                       const SuiteOptions& options) {
  const auto kernels = make_suite_kernels(options);
  double kernels_s = 0;
  double multi_sim_s = 0;
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    for (std::size_t v = 0; v < options.variants_per_kernel; ++v) {
      const std::uint64_t data_seed = options.seed_base + v * 7919 + k * 104729;
      std::uint64_t t = now_ns();
      const KernelExecution exec = execute(*kernels[k], data_seed);
      kernels_s += seconds_since(t);
      t = now_ns();
      const auto sims = simulate_trace_multi(exec.trace, DesignSpace::all());
      multi_sim_s += seconds_since(t);
      if (sims.size() != DesignSpace::all().size()) {
        throw std::runtime_error("simulate_trace_multi dropped configurations");
      }
    }
  }
  out.add("trace.kernels_s", kernels_s);
  out.add("cache.multi_sim_s", multi_sim_s);
  out.add("workload.suite_build_s", setup.suite_s);
  out.add("ann.train_s", setup.train_s);
  out.add("util.pool.cpu_per_wall",
          setup.cpu_s /
              (setup.wall_s *
               static_cast<double>(ThreadPool::global().thread_count())));
  out.add("scenario.parse_s", setup.parse_s);
}

void add_output_metrics(JsonObject& out, std::size_t retained_events,
                        double write_s, std::size_t write_bytes) {
  out.add("obs.tracer.retained_events", static_cast<double>(retained_events));
  out.add("obs.write_s", write_s);
  out.add("obs.write_bytes", static_cast<double>(write_bytes));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Per-layer metrics of a traced run, with the timer's own cost (one
// clock read per span inside, one per child span outside) taken out.
void add_run_metrics(JsonObject& out, RunLedger& ledger) {
  double probe_ns = 0;
  double probes = 0;
  for (const auto& [layer, bucket] : ledger.layers) {
    probe_ns += static_cast<double>(bucket.probe_ns);
    probes += static_cast<double>(bucket.probes);
  }
  const double read_ns = ratio(probe_ns, probes);
  const auto net_ns = [&](const Bucket& b) {
    const double overhead =
        read_ns * static_cast<double>(b.calls + b.child_spans);
    return std::max(0.0, static_cast<double>(b.self_ns) - overhead);
  };
  const double jobs = static_cast<double>(ledger.jobs);
  const Bucket& decide = ledger.layers["core.decide"];
  const Bucket& profiled = ledger.layers["core.on_profiled"];
  out.add("workload.arrivals.ns_per_job",
          net_ns(ledger.layers["workload.arrivals"]) / jobs);
  out.add("core.decide.calls_per_job",
          static_cast<double>(decide.calls) / jobs);
  out.add("core.decide.ns_per_call",
          ratio(net_ns(decide), static_cast<double>(decide.calls)));
  out.add("core.decide.stall_ratio",
          ratio(static_cast<double>(ledger.stalls),
                static_cast<double>(decide.calls)));
  out.add("core.on_profiled.ns_per_call",
          ratio(net_ns(profiled), static_cast<double>(profiled.calls)));
  out.add("core.dispatch.words_per_decision",
          ratio(static_cast<double>(ledger.dispatch.words_scanned),
                static_cast<double>(ledger.dispatch.decisions)));
  out.add("core.dispatch.clamp_hit_rate",
          ratio(static_cast<double>(ledger.dispatch.clamp_hits),
                static_cast<double>(ledger.dispatch.clamp_lookups)));
  out.add("core.engine.self_ns_per_job", net_ns(ledger.run) / jobs);
  for (const char* layer : {"scenario.stream_stats", "scenario.dag",
                            "obs.spans", "obs.windowed", "obs.tracer"}) {
    out.add(std::string(layer) + ".ns_per_job",
            net_ns(ledger.layers[layer]) / jobs);
  }
  out.add("bench.timer_ns_per_call", 2.0 * read_ns);
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "hetsched_probe: " << message << "\n";
  std::exit(2);
}

struct Args {
  std::string workload;
  std::string file;
  std::string mode = "reference";
  std::string out_dir;
  std::uint64_t seed = 42;
  std::size_t threads = 1;
  std::size_t arrivals = ArrivalOptions{}.count;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) fail("usage: hetsched_probe <paper_quad|scenario> ...");
  Args args;
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--file") {
      args.file = value;
    } else if (flag == "--mode") {
      args.mode = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--threads") {
      args.threads = std::stoull(value);
    } else if (flag == "--arrivals") {
      args.arrivals = std::stoull(value);
    } else {
      fail("unknown flag " + flag);
    }
  }
  if (args.mode != "reference" && args.mode != "traced") {
    fail("--mode must be reference or traced");
  }
  if (args.workload == "scenario" && args.file.empty()) {
    fail("scenario needs --file");
  }
  if (args.workload != "scenario" && args.workload != "paper_quad") {
    fail("unknown workload " + args.workload);
  }
  return args;
}

// The paper's Section-V set-up at the CLI defaults (`hetsched_cli
// compare --seed N`): full-scale suite, 30-net ensemble, 5000 uniform
// arrivals, four systems on the same stream.
int paper_quad(const Args& args) {
  const bool traced = args.mode == "traced";
  const std::uint64_t start = now_ns();
  const double cpu_start = cpu_seconds();

  SetupLedger setup;
  const EnergyModel energy(CactiModel{}, EnergyModelParams{});
  const SuiteOptions suite_options{};
  const std::uint64_t t = now_ns();
  const CharacterizedSuite suite =
      CharacterizedSuite::build(energy, suite_options);
  setup.suite_s = seconds_since(t);
  const auto predictor =
      train_predictor(suite, PredictorConfig{}, args.seed, setup.train_s);
  setup.wall_s = seconds_since(start);
  setup.cpu_s = cpu_seconds() - cpu_start;

  // The four systems fan out over the pool, as compare runs them.
  const std::vector<std::size_t> ids = suite.scheduling_ids();
  ArrivalOptions arrivals;
  arrivals.count = args.arrivals;
  const std::vector<std::string> names = {"base", "optimal",
                                          "energy-centric", "proposed"};
  std::vector<SimulationResult> results(names.size());
  std::vector<RunLedger> ledgers(names.size());
  ThreadPool::global().parallel_for(names.size(), [&](std::size_t i) {
    const PolicyContext ctx{predictor.get(), &suite, args.seed};
    std::unique_ptr<SchedulerPolicy> policy =
        PolicyRegistry::instance().make(names[i], ctx);
    const SystemConfig system = names[i] == "base"
                                    ? SystemConfig::fixed_base(4)
                                    : SystemConfig::paper_quadcore();
    GeneratedArrivalStream stream(ids, arrivals, args.seed ^ 0xa5a5a5a5ULL);
    if (!traced) {
      MulticoreSimulator sim(system, suite, energy, *policy);
      results[i] = sim.run_stream(stream);
      return;
    }
    TimedPolicy timed_policy(*policy);
    TimedSource timed_stream(stream);
    MulticoreSimulator sim(system, suite, energy, timed_policy);
    Bucket run;
    {
      Span span(run);
      results[i] = sim.run_stream(timed_stream);
    }
    ledgers[i].absorb(results[i], run, timed_stream, timed_policy,
                      sim.dispatch_telemetry());
  });
  const double workload_wall = seconds_since(start);

  JsonObject systems;
  for (std::size_t i = 0; i < names.size(); ++i) {
    systems.add_raw(names[i],
                    result_json(results[i], std::nullopt, std::nullopt));
  }
  JsonObject out;
  out.add("workload", "paper_quad");
  out.add("offered_jobs", static_cast<double>(arrivals.count));
  out.add_raw("systems", systems.str());
  if (traced) {
    RunLedger total;
    for (const RunLedger& ledger : ledgers) total.merge(ledger);
    JsonObject layers;
    add_run_metrics(layers, total);
    add_setup_metrics(layers, setup, suite_options);
    add_output_metrics(layers, 0, 0, 0);
    out.add_raw("layers", layers.str());
    out.add("workload_wall_s", workload_wall);
  }
  std::cout << out.str() << "\n";
  return 0;
}

Scenario read_scenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  return Scenario::parse(in);
}

// The scenario with the fixed-base machine and the `base` policy — the
// reference energy_vs_base divides by.
Scenario base_variant(Scenario scenario) {
  scenario.system = Scenario::SystemKind::kFixedBase;
  scenario.policy = "base";
  return scenario;
}

int scenario_reference(const Args& args) {
  const Scenario scenario = read_scenario(args.file);
  const ScenarioContext context(scenario);
  const ScenarioOutcome outcome = run_scenario(scenario, context);
  const ScenarioOutcome base = run_scenario(base_variant(scenario), context);
  JsonObject out;
  out.add("workload", "scenario");
  out.add("offered_jobs", static_cast<double>(scenario.arrivals.count));
  out.add_raw("result", result_json(outcome.result, outcome.stream.digest(),
                                    outcome.stream.invariant_violations()));
  out.add_raw("base", result_json(base.result, base.stream.digest(),
                                  base.stream.invariant_violations()));
  std::cout << out.str() << "\n";
  return 0;
}

// Hand-wired copy of `hetsched_cli scenario --file F [--windows-out
// --report-out --metrics-out]` with a timer on every layer boundary.
int scenario_traced(const Args& args) {
  const std::uint64_t start = now_ns();
  const double cpu_start = cpu_seconds();

  SetupLedger setup;
  std::uint64_t t = now_ns();
  const Scenario scenario = read_scenario(args.file);
  scenario.validate();
  setup.parse_s = seconds_since(t);
  if (scenario.realtime.has_value() || !scenario.faults.empty()) {
    throw std::runtime_error(
        "the traced run wires neither real-time attributes nor faults");
  }

  // Set-up, as ScenarioContext does it.
  const EnergyModel energy(CactiModel{}, EnergyModelParams{});
  t = now_ns();
  const CharacterizedSuite suite =
      CharacterizedSuite::build(energy, scenario.suite);
  setup.suite_s = seconds_since(t);
  std::unique_ptr<BestSizePredictor> predictor;
  if (scenario.needs_predictor()) {
    PredictorConfig config;
    config.ensemble_size = scenario.predictor_ensemble;
    if (scenario.predictor_max_epochs > 0) {
      config.trainer.max_epochs = scenario.predictor_max_epochs;
    }
    predictor = train_predictor(suite, config, scenario.seed, setup.train_s);
  }
  setup.wall_s = seconds_since(start);
  setup.cpu_s = cpu_seconds() - cpu_start;

  // The collectors --windows-out/--report-out/--metrics-out attach.
  const bool telemetry = !args.out_dir.empty();
  const SystemConfig system = scenario.make_system();
  const SimTime window_cycles = 1'000'000;
  MetricsRegistry metrics;
  EventTracer runtime;
  ProbeRecorder recorder(metrics, &runtime);
  std::optional<ScopedProbe> probe;
  std::optional<EventTracer> tracer;
  std::optional<WindowedCollector> windowed;
  std::optional<JobSpanCollector> spans;
  if (telemetry) {
    probe.emplace(&recorder);
    tracer.emplace(&metrics, scenario.name + ".sim.");
    tracer->set_max_events(EventTracer::kDefaultMaxEvents);
    windowed.emplace(system.core_count(), WindowedOptions{window_cycles, 0},
                     &suite);
    spans.emplace(scenario.policy, window_cycles);
    windowed->set_span_source(&*spans);
  }

  const PolicyContext ctx{predictor.get(), &suite, scenario.seed};
  std::unique_ptr<SchedulerPolicy> policy =
      PolicyRegistry::instance().make(scenario.policy, ctx);
  TimedPolicy timed_policy(*policy);
  MulticoreSimulator sim(system, suite, energy, timed_policy,
                         scenario.discipline);
  StreamStats stats(system.core_count());
  TimedObserver timed_stats(stats);

  // Arrival seeds as the scenario runner derives them.
  const std::vector<std::size_t> ids = suite.scheduling_ids();
  GeneratedArrivalStream stream(ids, scenario.arrivals,
                                scenario.seed ^ 0xa5a5a5a5ULL);
  Bucket dag_setup;
  std::optional<DagArrivalSource> dag;
  if (!scenario.dag.empty()) {
    Span span(dag_setup);
    dag.emplace(scenario.dag, ids, scenario.arrivals,
                scenario.seed ^ 0xa5a5a5a5ULL, std::nullopt);
  }
  std::optional<TimedObserver> timed_dag;
  std::optional<TimedObserver> timed_tracer;
  std::optional<TimedObserver> timed_spans;
  std::optional<TimedObserver> timed_windowed;
  if (dag.has_value()) timed_dag.emplace(*dag);
  if (telemetry) {
    timed_tracer.emplace(*tracer);
    timed_spans.emplace(*spans);
    timed_windowed.emplace(*windowed);
  }
  const auto opt = [](std::optional<TimedObserver>& o) -> ScheduleObserver* {
    return o.has_value() ? &*o : nullptr;
  };
  // The CLI's fanout order: DAG source first (its releases are
  // simulation state), then the digest, then tracer, spans, windows.
  FanoutObserver extra(
      {opt(timed_tracer), opt(timed_spans), opt(timed_windowed)});
  FanoutObserver fanout(
      {opt(timed_dag), &timed_stats, telemetry ? &extra : nullptr});
  const bool direct = !dag.has_value() && !telemetry;
  sim.set_observer(direct ? static_cast<ScheduleObserver*>(&timed_stats)
                          : &fanout);
  if (dag.has_value()) dag->set_release_observer(&fanout);

  ArrivalSource& source = dag.has_value()
                              ? static_cast<ArrivalSource&>(*dag)
                              : static_cast<ArrivalSource&>(stream);
  TimedSource timed_source(source);
  SimulationResult result;
  Bucket run;
  {
    Span span(run);
    result = sim.run_stream(timed_source);
  }
  if (spans.has_value()) spans->finalize();
  if (windowed.has_value()) windowed->finalize();

  RunLedger ledger;
  ledger.absorb(result, run, timed_source, timed_policy,
                sim.dispatch_telemetry());
  ledger.add("scenario.stream_stats", timed_stats.bucket());
  if (timed_dag.has_value()) {
    ledger.add("scenario.dag", timed_dag->bucket());
    ledger.add("scenario.dag", dag_setup);
  }
  if (telemetry) {
    ledger.add("obs.tracer", timed_tracer->bucket());
    ledger.add("obs.spans", timed_spans->bucket());
    ledger.add("obs.windowed", timed_windowed->bucket());
  }

  // The writers, with the report assembled as the CLI assembles it.
  double write_s = 0;
  std::size_t write_bytes = 0;
  if (telemetry) {
    t = now_ns();
    const ScenarioOutcome outcome{result, stats, sim.dispatch_telemetry(),
                                  std::nullopt, std::nullopt};
    record_scenario_metrics(metrics, scenario.name + ".", outcome);
    RunReport report;
    report.command = "scenario";
    report.name = scenario.name;
    report.policy = scenario.policy;
    report.system = std::string(to_string(scenario.system));
    report.discipline = std::string(to_string(scenario.discipline));
    report.cores = system.core_count();
    report.seed = scenario.seed;
    report.jobs = scenario.arrivals.count;
    report.suite_key = suite_cache_key(scenario.suite, energy);
    report.completed_jobs = result.completed_jobs;
    report.makespan = result.makespan;
    report.total_energy_mj = result.total_energy().millijoules();
    report.stream_digest = stats.digest();
    attach_window_summary(report, *windowed, AnomalyConfig{});
    attach_latency_summary(report, {&*spans});
    std::ostringstream windows_out;
    windowed->write_jsonl(windows_out);
    std::string windows = windows_out.str();
    if (const auto* portfolio =
            dynamic_cast<const PortfolioPolicy*>(policy.get())) {
      attach_portfolio_summary(report, portfolio->stats());
      windows += portfolio_switch_jsonl(portfolio->stats());
    }
    if (dag.has_value()) attach_dag_summary(report, dag->stats());
    report.metrics_json = metrics.to_json();
    const std::string report_json = run_report_to_json(report);
    const std::string metrics_json = metrics.to_json();
    const std::string dir = args.out_dir + "/";
    if (!atomic_write_file(dir + "windows.jsonl", windows) ||
        !atomic_write_file(dir + "report.json", report_json) ||
        !atomic_write_file(dir + "metrics.json", metrics_json)) {
      throw std::runtime_error("cannot write outputs under " + args.out_dir);
    }
    write_s = seconds_since(t);
    write_bytes = windows.size() + report_json.size() + metrics_json.size();
  }
  const double workload_wall = seconds_since(start);

  JsonObject layers;
  add_run_metrics(layers, ledger);
  add_setup_metrics(layers, setup, scenario.suite);
  add_output_metrics(layers,
                     tracer.has_value() ? tracer->events().size() : 0,
                     write_s, write_bytes);
  JsonObject out;
  out.add("workload", "scenario");
  out.add("offered_jobs", static_cast<double>(scenario.arrivals.count));
  out.add_raw("result", result_json(result, stats.digest(),
                                    stats.invariant_violations()));
  out.add_raw("layers", layers.str());
  out.add("workload_wall_s", workload_wall);
  std::cout << out.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  ThreadPool::set_global_threads(args.threads);
  try {
    if (args.workload == "paper_quad") return paper_quad(args);
    return args.mode == "traced" ? scenario_traced(args)
                                 : scenario_reference(args);
  } catch (const std::exception& e) {
    std::cerr << "hetsched_probe: " << e.what() << "\n";
    return 1;
  }
}

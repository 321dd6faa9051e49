#include "experiment/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/latency.hpp"
#include "obs/observability.hpp"
#include "obs/windowed.hpp"
#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/snapshot_text.hpp"
#include "workload/profile_cache.hpp"

namespace hetsched {

Scenario SweepGrid::cell_scenario(std::size_t index) const {
  HETSCHED_REQUIRE(index < cell_count());
  const std::size_t policy_i = index % policies.size();
  const std::size_t gap_i = (index / policies.size()) % mean_gaps.size();
  const std::size_t core_i = index / (policies.size() * mean_gaps.size());

  Scenario cell = base;
  cell.cores = core_counts[core_i];
  cell.arrivals.mean_interarrival_cycles = mean_gaps[gap_i];
  cell.policy = policies[policy_i];
  cell.system = default_machine(cell.policy, cell.cores);
  cell.name = base.name + "-cell" + std::to_string(index);
  return cell;
}

std::string SweepGrid::cell_label(std::size_t index) const {
  HETSCHED_REQUIRE(index < cell_count());
  const std::size_t gap_i = (index / policies.size()) % mean_gaps.size();
  const std::size_t core_i = index / (policies.size() * mean_gaps.size());
  return "c" + std::to_string(core_counts[core_i]) + ".g" +
         std::to_string(gap_i) + "." + policies[index % policies.size()];
}

Scenario SweepGrid::context_scenario() const {
  Scenario ctx = base;
  for (const std::string& policy : policies) {
    ctx.policy = policy;
    if (ctx.needs_predictor()) break;
  }
  return ctx;
}

void SweepGrid::validate() const {
  HETSCHED_REQUIRE(!core_counts.empty() && !mean_gaps.empty() &&
                   !policies.empty() && "sweep grid axes must be non-empty");
  for (std::size_t i = 0; i < cell_count(); ++i) cell_scenario(i).validate();
}

namespace {

namespace st = snapshot_text;

// Version 2 replaced the per-cell window summary and raw JSONL with the
// cell's full collector state, which also carries its latency spans.
// Version 3 records stream digest v2 values; a v2 manifest's cell
// digests come from the v1 byte chain and would not match a resumed
// cell's.
constexpr int kManifestVersion = 3;

// Identity fields shared by every path that materializes a cell record.
void fill_cell_identity(SweepCell& cell, const SweepGrid& grid,
                        std::size_t index) {
  const Scenario scenario = grid.cell_scenario(index);
  cell.index = index;
  cell.cores = scenario.cores;
  cell.mean_gap = scenario.arrivals.mean_interarrival_cycles;
  cell.policy = scenario.policy;
  cell.label = grid.cell_label(index);
}

// Thrown inside a cell whose wall-clock budget expired; the sweep
// converts it into a quarantined-cell record.
class SweepTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Runs one attempt of cell `index`. With a timeout the run pauses every
// supervision slice of simulated time to read the clock, so a runaway
// cell is abandoned at a deterministic simulation state boundary
// without detaching threads.
SweepCell run_cell(const SweepGrid& grid, std::size_t index,
                   const ScenarioContext& context,
                   const SweepOptions& options, ScheduleObserver* observer) {
  const Scenario scenario = grid.cell_scenario(index);
  auto collectors = std::make_shared<RunCollectors>(
      scenario, &context.suite(), options.window_cycles, observer);
  ScenarioRun run(scenario, context, collectors->observer());
  ScenarioRun::BoundaryHook check_deadline;
  if (options.cell_timeout_ms > 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options.cell_timeout_ms);
    check_deadline = [&options, deadline](std::uint64_t) {
      if (std::chrono::steady_clock::now() >= deadline) {
        throw SweepTimeoutError("cell exceeded its wall-clock budget of " +
                                std::to_string(options.cell_timeout_ms) +
                                " ms");
      }
      return true;
    };
  }
  const SimTime slice = options.supervision_slice_cycles == 0
                            ? 1'000'000
                            : options.supervision_slice_cycles;
  ScenarioOutcome outcome = run.execute(slice, check_deadline);

  SweepCell cell;
  fill_cell_identity(cell, grid, index);
  cell.result = std::move(outcome.result);
  cell.stream_digest = outcome.stream.digest();
  cell.invariant_violations = outcome.stream.invariant_violations();
  collectors->finalize();
  if (options.window_cycles > 0) cell.telemetry = std::move(collectors);
  return cell;
}

}  // namespace

RunArtifacts build_sweep_report(const SweepGrid& grid,
                                const ScenarioContext& context,
                                const std::vector<SweepCell>& cells,
                                std::span<const SweepFailure> failed) {
  RunArtifacts out;
  RunReport& report = out.report;
  report.command = "sweep";
  report.name = grid.base.name;
  for (const std::string& policy : grid.policies) {
    report.policy += (report.policy.empty() ? "" : ",") + policy;
  }
  report.system = "grid";
  report.discipline = std::string(to_string(grid.base.discipline));
  report.seed = grid.base.seed;
  report.jobs =
      static_cast<std::uint64_t>(grid.base.arrivals.count) * cells.size();
  report.suite_key = suite_cache_key(grid.base.suite, context.energy());
  std::vector<const JobSpanCollector*> spans;
  for (const SweepCell& cell : cells) {
    if (!cell.completed) continue;
    report.completed_jobs += cell.result.completed_jobs;
    report.makespan =
        std::max<std::uint64_t>(report.makespan, cell.result.makespan);
    report.total_energy_mj += cell.result.total_energy().millijoules();
    if (cell.telemetry == nullptr) continue;
    const WindowedCollector& windows = *cell.telemetry->windows();
    report.window_cycles = windows.window_cycles();
    report.windows_closed += windows.windows_closed();
    report.dropped_windows += windows.dropped_windows();
    for (const WindowRecord& w : windows.windows()) {
      report.window_jobs_completed += w.jobs_completed;
      report.window_energy_mj += w.energy_mj;
    }
    out.windows_jsonl += cell.telemetry->windows_jsonl();
    spans.push_back(cell.telemetry->spans());
  }
  // Cells sharing a policy fold into one latency row (fixed histogram
  // boundaries make the merge exact).
  if (!spans.empty()) attach_latency_summary(report, spans);
  for (const SweepFailure& f : failed) {
    report.failed_cells.push_back(
        {f.label, f.attempts, f.timed_out, f.reason});
  }
  MetricsRegistry metrics;
  record_sweep_metrics(metrics, "sweep.", cells);
  report.metrics_json = metrics.to_json();
  return out;
}

std::uint64_t sweep_grid_fingerprint(const SweepGrid& grid) {
  std::ostringstream out;
  grid.base.save(out);
  out << "core-counts";
  for (const std::size_t c : grid.core_counts) out << ' ' << c;
  out << "\nmean-gaps";
  for (const double g : grid.mean_gaps) {
    out << ' ';
    st::write_double(out, g);
  }
  out << "\npolicies";
  for (const std::string& p : grid.policies) out << ' ' << p;
  out << "\n";
  return fnv1a(out.str());
}

std::string serialize_sweep_manifest(const SweepGrid& grid,
                                     const std::vector<SweepCell>& cells) {
  std::ostringstream body;
  body << "hetsched-sweep-manifest " << kManifestVersion << "\n";
  body << "grid-hash " << sweep_grid_fingerprint(grid) << "\n";
  std::size_t completed = 0;
  for (const SweepCell& cell : cells) {
    if (cell.completed) ++completed;
  }
  body << "cells " << grid.cell_count() << ' ' << completed << "\n";
  for (const SweepCell& cell : cells) {
    if (!cell.completed) continue;
    body << "cell " << cell.index << ' ' << cell.label << "\n";
    save_simulation_result(body, cell.result);
    body << "stream " << cell.stream_digest << ' '
         << cell.invariant_violations << "\n";
    const WindowedCollector* windows =
        cell.telemetry != nullptr ? cell.telemetry->windows() : nullptr;
    body << "telemetry " << (windows != nullptr ? windows->window_cycles() : 0)
         << "\n";
    if (windows != nullptr) cell.telemetry->save_state(body);
  }
  std::ostringstream out;
  st::write_with_checksum(out, body.str());
  return out.str();
}

std::vector<SweepCell> parse_sweep_manifest(const std::string& text,
                                            const SweepGrid& grid,
                                            const std::string& context) {
  std::istringstream raw(text);
  const std::string body = st::read_verified(raw, context);
  std::istringstream in(body);

  std::string token;
  if (!(in >> token) || token != "hetsched-sweep-manifest") {
    st::fail(context, "not a hetsched sweep manifest");
  }
  const int version = st::read_value<int>(in, "version", context);
  if (version != kManifestVersion) {
    st::fail(context, "unsupported manifest version " +
                          std::to_string(version) + " (this build reads " +
                          std::to_string(kManifestVersion) + ")");
  }
  if (!(in >> token) || token != "grid-hash") {
    st::fail(context, "expected 'grid-hash'");
  }
  if (st::read_value<std::uint64_t>(in, "grid hash", context) !=
      sweep_grid_fingerprint(grid)) {
    st::fail(context, "manifest was written for a different sweep grid");
  }
  if (!(in >> token) || token != "cells") {
    st::fail(context, "expected 'cells'");
  }
  if (st::read_value<std::size_t>(in, "cell count", context) !=
      grid.cell_count()) {
    st::fail(context, "manifest cell count does not match the grid");
  }
  const auto completed =
      st::read_value<std::size_t>(in, "completed count", context);
  if (completed > grid.cell_count()) {
    st::fail(context, "completed count exceeds the grid");
  }

  std::vector<SweepCell> cells;
  std::size_t last_index = 0;
  for (std::size_t n = 0; n < completed; ++n) {
    if (!(in >> token) || token != "cell") {
      st::fail(context, "expected 'cell'");
    }
    const auto index =
        st::read_value<std::size_t>(in, "cell index", context);
    if (index >= grid.cell_count()) {
      st::fail(context, "cell index out of range");
    }
    if (n > 0 && index <= last_index) {
      st::fail(context, "cell indices out of order");
    }
    last_index = index;
    SweepCell cell;
    fill_cell_identity(cell, grid, index);
    std::string label;
    if (!(in >> label) || label != cell.label) {
      st::fail(context, "cell label does not match the grid");
    }
    load_simulation_result(in, cell.result, context);
    if (!(in >> token) || token != "stream") {
      st::fail(context, "expected 'stream'");
    }
    cell.stream_digest =
        st::read_value<std::uint64_t>(in, "stream digest", context);
    cell.invariant_violations =
        st::read_value<std::uint64_t>(in, "invariant violations", context);
    if (!(in >> token) || token != "telemetry") {
      st::fail(context, "expected 'telemetry'");
    }
    const auto window_cycles =
        st::read_value<SimTime>(in, "telemetry window cycles", context);
    if (window_cycles > 0) {
      auto telemetry = std::make_shared<RunCollectors>(
          grid.cell_scenario(index), nullptr, window_cycles);
      telemetry->restore_state(in, context);
      cell.telemetry = std::move(telemetry);
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

SweepResult run_sweep(const SweepGrid& grid, const ScenarioContext& context,
                      std::size_t shards, ThreadPool& pool,
                      const SweepOptions& options,
                      std::span<ScheduleObserver* const> cell_observers) {
  grid.validate();
  HETSCHED_REQUIRE(shards >= 1 && "shards must be >= 1");
  HETSCHED_REQUIRE(options.max_attempts >= 1);
  const std::size_t cells = grid.cell_count();
  HETSCHED_REQUIRE(
      (cell_observers.empty() || cell_observers.size() == cells) &&
      "cell_observers must be empty or one per cell");
  shards = std::min(shards, cells);

  SweepResult sweep;
  sweep.cells.resize(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    fill_cell_identity(sweep.cells[i], grid, i);
    sweep.cells[i].completed = false;
  }

  if (!options.resume_manifest.empty()) {
    const std::optional<std::string> text =
        read_file(options.resume_manifest);
    if (!text.has_value()) {
      throw std::runtime_error("cannot read sweep manifest: " +
                               options.resume_manifest);
    }
    for (SweepCell& done :
         parse_sweep_manifest(*text, grid, options.resume_manifest)) {
      const std::size_t index = done.index;
      done.completed = true;
      sweep.cells[index] = std::move(done);
      ++sweep.resumed_cells;
    }
  }

  // Guards the cell slots, manifest rewrites and the failure list: a
  // finished cell is stored under it because a manifest rewrite reads
  // every slot. Each cell still lands in its own index-ordered slot, so
  // the ThreadPool determinism contract makes the merge order-independent.
  std::mutex bookkeeping;
  const auto persist_manifest = [&] {
    if (options.manifest_out.empty()) return;
    const std::string text = serialize_sweep_manifest(grid, sweep.cells);
    if (!atomic_write_file(options.manifest_out, text)) {
      throw std::runtime_error("cannot write sweep manifest: " +
                               options.manifest_out);
    }
  };

  pool.parallel_for(shards, [&](std::size_t shard) {
    const std::size_t begin = shard * cells / shards;
    const std::size_t end = (shard + 1) * cells / shards;
    for (std::size_t i = begin; i < end; ++i) {
      if (sweep.cells[i].completed) continue;  // resumed from manifest

      SweepFailure failure;
      failure.index = i;
      failure.label = sweep.cells[i].label;
      SweepCell cell;
      bool done = false;
      for (std::uint32_t attempt = 1; attempt <= options.max_attempts;
           ++attempt) {
        failure.attempts = attempt;
        try {
          cell = run_cell(grid, i, context, options,
                          cell_observers.empty() ? nullptr : cell_observers[i]);
          done = true;
          break;
        } catch (const SweepTimeoutError& e) {
          failure.timed_out = true;
          failure.reason = e.what();
        } catch (const std::exception& e) {
          failure.timed_out = false;
          failure.reason = e.what();
        }
        if (attempt < options.max_attempts &&
            options.retry_backoff_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options.retry_backoff_ms));
        }
      }

      const std::lock_guard<std::mutex> lock(bookkeeping);
      if (done) {
        sweep.cells[i] = std::move(cell);
        persist_manifest();
      } else {
        sweep.failed.push_back(std::move(failure));
      }
    }
  });

  std::sort(sweep.failed.begin(), sweep.failed.end(),
            [](const SweepFailure& a, const SweepFailure& b) {
              return a.index < b.index;
            });
  return sweep;
}

void record_sweep_metrics(MetricsRegistry& metrics,
                          const std::string& prefix,
                          const std::vector<SweepCell>& cells) {
  for (const SweepCell& cell : cells) {
    const std::string cell_prefix = prefix + cell.label + ".";
    metrics.gauge(cell_prefix + "cores")
        .set(static_cast<double>(cell.cores));
    metrics.gauge(cell_prefix + "mean_gap_cycles").set(cell.mean_gap);
    record_result_metrics(metrics, cell_prefix, cell.result);
    metrics.counter(cell_prefix + "stream.digest").add(cell.stream_digest);
    metrics.counter(cell_prefix + "stream.invariant_violations")
        .add(cell.invariant_violations);
  }
}

}  // namespace hetsched

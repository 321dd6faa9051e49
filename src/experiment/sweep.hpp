// Sharded scenario sweeps: a grid of (core count x arrival rate x
// policy) cells, each an independent deterministic scenario run, fanned
// out over the shared thread pool in contiguous shards. Because every
// cell is self-contained (fresh simulator, read-only shared context) and
// lands in its own index-ordered slot, the merged results are
// bit-identical for every shard count and every HETSCHED_THREADS value.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "scenario/scenario_runner.hpp"
#include "util/thread_pool.hpp"

namespace hetsched {

struct SweepGrid {
  // Template scenario: seed, suite, discipline, job count, distribution,
  // faults... everything the axes below do not override.
  Scenario base;
  std::vector<std::size_t> core_counts{4};
  std::vector<double> mean_gaps{60000.0};
  std::vector<std::string> policies{"base", "proposed"};

  std::size_t cell_count() const {
    return core_counts.size() * mean_gaps.size() * policies.size();
  }

  // The concrete scenario for cell `index` (row-major over core_counts,
  // then mean_gaps, then policies). The base policy runs on a same-sized
  // fixed-base machine, every other policy on the reconfigurable one
  // (paper layout at 4 cores, scaled layout otherwise): default_machine,
  // as for every named system.
  Scenario cell_scenario(std::size_t index) const;
  // "c<cores>.g<gap index>.<policy>", metric-key safe.
  std::string cell_label(std::size_t index) const;

  // `base` with its policy swapped for the most demanding one on the
  // policies axis, so one ScenarioContext built from it (with a trained
  // predictor iff some cell needs it) serves the whole sweep.
  Scenario context_scenario() const;

  void validate() const;
};

struct SweepCell {
  std::size_t index = 0;
  std::size_t cores = 0;
  double mean_gap = 0.0;
  std::string policy;
  std::string label;  // SweepGrid::cell_label
  SimulationResult result;
  std::uint64_t stream_digest = 0;  // StreamStats event-stream digest
  std::uint64_t invariant_violations = 0;

  // False for a cell that failed or timed out (only the identity fields
  // above are then valid).
  bool completed = true;
  // The cell's finalized span and windowed collectors when the sweep ran
  // with windows, null otherwise. The shard manifest carries their
  // state, so a resumed sweep reproduces the merged telemetry
  // byte-identically without re-running completed cells.
  std::shared_ptr<const RunCollectors> telemetry;
};

// Deposits one result bucket per cell under `prefix` + cell label, plus
// the per-cell stream digest and invariant-violation counters.
void record_sweep_metrics(MetricsRegistry& metrics,
                          const std::string& prefix,
                          const std::vector<SweepCell>& cells);

// --- Supervision: timeout, retry, quarantine, resume --------------------

// The defaults run every cell once, without a deadline, collectors or a
// manifest.
struct SweepOptions {
  // Wall-clock budget per cell attempt in milliseconds; 0 disables the
  // timeout (cells then only fail by throwing).
  std::uint64_t cell_timeout_ms = 0;
  // Attempts per cell before it is quarantined (>= 1).
  std::uint32_t max_attempts = 1;
  // Sleep between attempts of one cell.
  std::uint64_t retry_backoff_ms = 0;
  // Simulated-time stride between deadline checks: a cell with a timeout
  // pauses every this many cycles to read the clock, so the deadline is
  // honoured without detaching threads (sanitizer-clean).
  SimTime supervision_slice_cycles = 1'000'000;
  // Per-cell window width; 0 runs cells without collectors.
  SimTime window_cycles = 0;
  // Shard-manifest path, atomically rewritten after every completed
  // cell; empty = no manifest persistence.
  std::string manifest_out;
  // Manifest file to resume from; empty = run every cell. Cells recorded
  // there are merged instead of re-run; the merged sweep is
  // byte-identical to a clean run.
  std::string resume_manifest;
};

// One quarantined cell.
struct SweepFailure {
  std::size_t index = 0;
  std::string label;
  std::uint32_t attempts = 0;
  bool timed_out = false;
  std::string reason;  // what() of the last failure
};

struct SweepResult {
  // All cells in grid order; failed cells have completed == false.
  std::vector<SweepCell> cells;
  std::vector<SweepFailure> failed;  // sorted by index
  std::uint64_t resumed_cells = 0;   // skipped thanks to the manifest
};

// Runs every cell of `grid`, splitting the cell list into `shards`
// contiguous chunks executed via pool.parallel_for; returns the cells in
// grid order. `context` must come from grid.context_scenario() (or any
// scenario with identical suite/predictor parameters). With
// `options.window_cycles` > 0 every cell keeps its own RunCollectors.
// Each cell attempt is one ScenarioRun::execute, paused for a deadline
// check when the options set a timeout; a cell that throws or times out
// is retried up to max_attempts times and then quarantined into
// `failed` instead of aborting the sweep. Deterministic for the
// completed set: a cell's payload does not depend on timing, shard
// count, thread count or which other cells failed.
// `cell_observers` is either empty or one observer per cell (nulls
// allowed), e.g. an EventTracer or SimCounters: observer i sees every
// attempt of cell i and nothing of a cell resumed from the manifest. It
// is touched only by the shard running that cell, so one observer must
// not be aliased across cells. Throws std::runtime_error on an
// unreadable, corrupted or mismatched resume manifest and on an
// unwritable manifest path.
SweepResult run_sweep(const SweepGrid& grid, const ScenarioContext& context,
                      std::size_t shards, ThreadPool& pool,
                      const SweepOptions& options = {},
                      std::span<ScheduleObserver* const> cell_observers = {});

// The aggregate report of a sweep: totals over the completed cells,
// window counts and JSONL summed and concatenated in grid order (window
// indices restart at 0 per cell), latency merged per policy, metrics
// from record_sweep_metrics, and one row per quarantined cell.
// Deterministic, like build_run_report.
RunArtifacts build_sweep_report(const SweepGrid& grid,
                                const ScenarioContext& context,
                                const std::vector<SweepCell>& cells,
                                std::span<const SweepFailure> failed = {});

// Shard-manifest round trip (exposed for tests and tooling). The
// manifest records the grid fingerprint plus every completed cell's full
// payload (result, digest and collector state), checksummed like every
// snapshot format.
// parse_sweep_manifest validates against `grid` and throws
// std::runtime_error (tagged with `context`) on malformed, truncated or
// mismatched input.
std::string serialize_sweep_manifest(const SweepGrid& grid,
                                     const std::vector<SweepCell>& cells);
std::vector<SweepCell> parse_sweep_manifest(const std::string& text,
                                            const SweepGrid& grid,
                                            const std::string& context);

// FNV-1a fingerprint of the grid definition (base scenario plus axes);
// stamped into manifests so one cannot resume a different sweep.
std::uint64_t sweep_grid_fingerprint(const SweepGrid& grid);

}  // namespace hetsched

// Crash-safe scenario execution: deterministic checkpoint/resume.
//
// A checkpointed run pauses a ScenarioRun at fixed strides of simulated
// time (window width * checkpoint_every) and serializes the complete
// resumable state at each stride boundary: simulator core/queue/in-flight
// state, arrival-generator position (RNG states included), StreamStats
// compaction digest, windowed-telemetry accumulators and the fault
// injector's schedule cursor. Snapshots follow the repo's versioned
// text-snapshot conventions (whitespace tokens, hexfloat doubles, a
// trailing FNV-1a checksum line) and are written with atomic
// temp+rename, so a crash mid-write leaves the previous checkpoint
// intact.
//
// The headline invariant, property-tested in tests/chaos_test.cpp: a run
// killed at ANY checkpoint boundary and resumed from the file produces
// bit-identical outputs (StreamStats digest, window JSONL, result) to
// the uninterrupted run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario_runner.hpp"

namespace hetsched {

struct CheckpointRunOptions {
  // Windows per checkpoint stride (>= 1): checkpoints land on every
  // checkpoint_every-th boundary of the collectors' telemetry window.
  std::uint64_t checkpoint_every = 1;
  // Checkpoint file path, rewritten atomically at every boundary; empty
  // = no file output (captures below still work).
  std::string checkpoint_out;
  // Checkpoint file to resume from; empty = start fresh.
  std::string resume_from;
  // Stop after writing this many checkpoints this process (simulating a
  // crash); 0 = run to completion.
  std::uint64_t halt_after_checkpoints = 0;
  // When non-null, every checkpoint text is also appended here (tests).
  std::vector<std::string>* capture_checkpoints = nullptr;
};

// The run's outcome (result default-initialized when halted; portfolio
// and DAG stats as of the halt) plus the checkpoint bookkeeping.
struct CheckpointRunOutcome : ScenarioOutcome {
  std::uint64_t checkpoints_written = 0;
  // Stride boundary the run resumed from; 0 = started fresh.
  std::uint64_t resumed_from = 0;
  bool halted = false;
};

// Runs `scenario` with `collectors` attached, writing a checkpoint at
// every stride boundary: ScenarioRun::execute with a boundary hook that
// serializes the run and the collectors' state. With nothing to write,
// capture or halt it runs straight through, exactly like run_scenario.
// Checkpointing or resuming needs collectors built with a window (their
// width sets the stride). The collectors are finalized unless the run
// halted. Throws std::invalid_argument on collectors without a window
// or an overflowing stride, and std::runtime_error on unreadable,
// corrupted, truncated or mismatched (different scenario or checkpoint
// parameters) resume input and on checkpoint files that cannot be
// written.
CheckpointRunOutcome run_scenario_checkpointed(
    const Scenario& scenario, const ScenarioContext& context,
    const CheckpointRunOptions& options, RunCollectors& collectors);

// FNV-1a fingerprint of the scenario's canonical save() text; stamped
// into checkpoint headers so a snapshot cannot resume a different
// scenario.
std::uint64_t scenario_fingerprint(const Scenario& scenario);

}  // namespace hetsched

#include "scenario/checkpoint.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {
namespace {

namespace st = snapshot_text;

// Version 2 added the scheduler policy's own state block (seeded-Rng
// contenders, the portfolio selector) between the windowed collector and
// the fault section; version-1 snapshots are rejected rather than resumed
// with a silently reset policy. Version 3 added the DAG arrival source's
// frontier block (in-degrees, eligible heap, emission log) between the
// arrival generator and the stream stats, so a dependency-graph run
// resumes with the exact release frontier. Version 4 added the job span
// collector's block (window clock, latency histograms, slowest-K list,
// every in-flight span) between the stream stats and the windowed
// collector, so a resumed run rebuilds the exact latency distributions —
// older snapshots are rejected rather than resumed with reset spans.
// Version 5 carries a stream digest v2 state (StreamStats folds a word
// at a time); a v4 snapshot's digest state is a v1 byte-chain value, so
// resuming it would silently mix the two digests.
constexpr int kCheckpointVersion = 5;

// The checkpoint stride's parameters, stamped into every snapshot.
struct Stride {
  SimTime window_cycles = 0;
  std::uint64_t every = 0;
};

std::string make_checkpoint_text(const Scenario& scenario,
                                 const Stride& stride,
                                 std::uint64_t boundary, ScenarioRun& run,
                                 const RunCollectors& collectors) {
  std::ostringstream body;
  body << "hetsched-checkpoint " << kCheckpointVersion << "\n";
  body << "scenario-hash " << scenario_fingerprint(scenario) << "\n";
  body << "window-cycles " << stride.window_cycles << ' ' << stride.every
       << "\n";
  body << "boundary " << boundary << "\n";
  run.simulator().save_stream_state(body);
  run.arrivals().save_state(body);
  body << "dag " << (run.dag() != nullptr ? 1 : 0) << "\n";
  if (run.dag() != nullptr) run.dag()->save_state(body);
  run.stats().save_state(body);
  collectors.save_state(body);
  run.policy().save_state(body);
  body << "faults " << (run.injector() != nullptr ? 1 : 0) << "\n";
  if (run.injector() != nullptr) run.injector()->save_state(body);
  std::ostringstream out;
  st::write_with_checksum(out, body.str());
  return out.str();
}

// Parses and verifies `text`, restores every component into `run` and
// `collectors`, and returns the stride boundary the snapshot was taken
// at. The ScenarioRun must be freshly constructed (not executed).
std::uint64_t restore_checkpoint_text(const std::string& text,
                                      const Scenario& scenario,
                                      const Stride& stride,
                                      ScenarioRun& run,
                                      RunCollectors& collectors,
                                      const std::string& context) {
  std::istringstream raw(text);
  const std::string body = st::read_verified(raw, context);
  std::istringstream in(body);

  std::string token;
  if (!(in >> token) || token != "hetsched-checkpoint") {
    st::fail(context, "not a hetsched checkpoint");
  }
  const int version = st::read_value<int>(in, "version", context);
  if (version != kCheckpointVersion) {
    st::fail(context, "unsupported checkpoint version " +
                          std::to_string(version) + " (this build reads " +
                          std::to_string(kCheckpointVersion) + ")");
  }
  if (!(in >> token) || token != "scenario-hash") {
    st::fail(context, "expected 'scenario-hash'");
  }
  if (st::read_value<std::uint64_t>(in, "scenario hash", context) !=
      scenario_fingerprint(scenario)) {
    st::fail(context,
             "checkpoint was taken for a different scenario definition");
  }
  if (!(in >> token) || token != "window-cycles") {
    st::fail(context, "expected 'window-cycles'");
  }
  if (st::read_value<SimTime>(in, "window cycles", context) !=
          stride.window_cycles ||
      st::read_value<std::uint64_t>(in, "checkpoint stride", context) !=
          stride.every) {
    st::fail(context,
             "checkpoint window/stride parameters do not match this run");
  }
  if (!(in >> token) || token != "boundary") {
    st::fail(context, "expected 'boundary'");
  }
  const auto boundary =
      st::read_value<std::uint64_t>(in, "boundary index", context);
  if (boundary == 0) st::fail(context, "boundary index must be positive");

  run.simulator().restore_stream_state(in, context);
  run.arrivals().restore_state(in, context);
  if (!(in >> token) || token != "dag") {
    st::fail(context, "expected 'dag'");
  }
  const bool had_dag = st::read_value<int>(in, "dag flag", context) != 0;
  if (had_dag != (run.dag() != nullptr)) {
    st::fail(context,
             "checkpoint DAG state does not match the scenario");
  }
  if (run.dag() != nullptr) run.dag()->restore_state(in, context);
  run.stats().restore_state(in, context);
  collectors.restore_state(in, context);
  run.policy().restore_state(in, context);
  if (!(in >> token) || token != "faults") {
    st::fail(context, "expected 'faults'");
  }
  const bool had_injector =
      st::read_value<int>(in, "fault flag", context) != 0;
  if (had_injector != (run.injector() != nullptr)) {
    st::fail(context,
             "checkpoint fault-injection state does not match the scenario");
  }
  if (run.injector() != nullptr) {
    run.injector()->restore_state(in, context);
  }
  return boundary;
}

}  // namespace

std::uint64_t scenario_fingerprint(const Scenario& scenario) {
  std::ostringstream out;
  scenario.save(out);
  return fnv1a(out.str());
}

CheckpointRunOutcome run_scenario_checkpointed(
    const Scenario& scenario, const ScenarioContext& context,
    const CheckpointRunOptions& options, RunCollectors& collectors) {
  const bool writes = !options.checkpoint_out.empty() ||
                      options.capture_checkpoints != nullptr ||
                      options.halt_after_checkpoints > 0;
  const bool resumes = !options.resume_from.empty();
  Stride stride;
  std::uint64_t resumed_from = 0;
  if (writes || resumes) {
    if (collectors.windows() == nullptr) {
      throw std::invalid_argument(
          "checkpointed runs need collectors with a telemetry window");
    }
    stride = {collectors.windows()->window_cycles(), options.checkpoint_every};
    const std::string interval_error =
        window_interval_error(stride.window_cycles, stride.every);
    if (!interval_error.empty()) {
      throw std::invalid_argument("checkpoint intervals: " + interval_error);
    }
  }
  ScenarioRun run(scenario, context, collectors.observer());
  if (resumes) {
    const std::optional<std::string> text = read_file(options.resume_from);
    if (!text.has_value()) {
      throw std::runtime_error("cannot read checkpoint file: " +
                               options.resume_from);
    }
    resumed_from = restore_checkpoint_text(*text, scenario, stride, run,
                                           collectors, options.resume_from);
    run.resume_at(resumed_from);
  }

  std::uint64_t written = 0;
  bool halted = false;
  const auto write_checkpoint = [&](std::uint64_t boundary) {
    const std::string text =
        make_checkpoint_text(scenario, stride, boundary, run, collectors);
    if (options.capture_checkpoints != nullptr) {
      options.capture_checkpoints->push_back(text);
    }
    if (!options.checkpoint_out.empty() &&
        !atomic_write_file(options.checkpoint_out, text)) {
      throw std::runtime_error("cannot write checkpoint file: " +
                               options.checkpoint_out);
    }
    halted = ++written == options.halt_after_checkpoints;
    return !halted;
  };
  ScenarioOutcome outcome = run.execute(
      writes ? stride.window_cycles * stride.every : 0, write_checkpoint);
  if (!halted) collectors.finalize();
  return {std::move(outcome), written, resumed_from, halted};
}

}  // namespace hetsched

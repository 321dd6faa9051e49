// Scenario description: one self-contained, deterministic definition of
// a simulation run — system shape, scheduler, workload/arrival process,
// optional real-time attributes and fault plan — parseable from a small
// line-directive text format (the FaultPlan format family) so whole
// experiment setups can be checked in, diffed and replayed exactly.
//
// A scenario is a value: running the same scenario twice, at any thread
// count, produces bit-identical results (everything stochastic derives
// from the scenario seed).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheduler.hpp"
#include "core/system_config.hpp"
#include "fault/fault_plan.hpp"
#include "scenario/dag_arrivals.hpp"
#include "workload/arrivals.hpp"
#include "workload/characterization.hpp"

namespace hetsched {

struct Scenario {
  // How the machine is built from `cores`.
  enum class SystemKind {
    kPaperQuad,            // the paper's fixed 2/4/8/8 KB quad-core
    kFixedBase,            // `cores` homogeneous base-config cores
    kScaledHeterogeneous,  // `cores` cores repeating the 2/4/8/8 mix
  };

  std::string name = "scenario";
  SystemKind system = SystemKind::kScaledHeterogeneous;
  std::size_t cores = 4;
  // Any PolicyRegistry name (base | optimal | energy-centric | proposed |
  // realtime | sjf | energy-greedy | random | oracle | cp-aware) or a
  // portfolio spec "portfolio:<a>+<b>[@window-cycles]".
  std::string policy = "proposed";
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  std::uint64_t seed = 42;

  // Arrival process; arrivals.count is the stream length (jobs).
  ArrivalOptions arrivals{};
  // Characterised-suite shape (kernel scale, variants, extended pack).
  SuiteOptions suite{};
  // Predictor training budget for the ANN-backed policies.
  std::size_t predictor_ensemble = 30;
  std::size_t predictor_max_epochs = 0;  // 0 = trainer default

  // Real-time attributes: engaged when a `slack` directive is present.
  std::optional<RealtimeOptions> realtime;

  // Job precedence graph over arrival indices 0..jobs-1 (`dep` lines);
  // empty = independent jobs, bit-identical to the plain stream. When
  // non-empty, arrivals become release-on-completion: roots keep their
  // generated arrival time, successors release when their last
  // predecessor retires.
  DagSpec dag{};

  // Fault plan (empty = fault-free, bit-identical to no injector).
  FaultPlan faults{};

  // The machine this scenario runs on.
  SystemConfig make_system() const;

  // True when the policy (or any portfolio contender) is ANN-backed and
  // needs a trained predictor.
  bool needs_predictor() const;

  // Structural checks (known policy/system, core count bounds, arrival
  // parameters, fault plan); throws std::invalid_argument on violation.
  void validate() const;

  // Text format, one directive per line ('#' comments allowed):
  //   name STRING
  //   system paper|base|scaled
  //   cores N
  //   policy NAME (any registry name or portfolio:<a>+<b>[@cycles])
  //   discipline fifo|edf|priority
  //   seed N
  //   jobs N
  //   mean-gap CYCLES
  //   distribution uniform|exponential|fixed
  //   burstiness X
  //   phase-switch P
  //   kernel-scale X
  //   variants-per-kernel N
  //   extended-suite 0|1
  //   ensemble N
  //   max-epochs N
  //   slack X
  //   priority-levels N
  //   fault-rate P
  //   fault-seed N
  //   fail CORE CYCLE
  //   recover CORE CYCLE
  //   dep JOB JOB (predecessor then successor, indices into 0..jobs-1)
  // parse() throws std::runtime_error with the offending line number and
  // validates the result; malformed dep edges (out-of-range or repeated
  // job ids, duplicate edges, cycles) are reported with the line of the
  // offending dep directive.
  static Scenario parse(std::istream& in);
  // Round-trips through parse(): save() then parse() reproduces the
  // scenario exactly.
  void save(std::ostream& out) const;

 private:
  // validate() without the DAG check, which parse() makes itself so that
  // its errors name the offending dep line.
  void validate_settings() const;
};

// The machine `policy` runs on at `cores` cores: base pins every core to
// the base configuration; every other policy gets the reconfigurable
// machine, the paper quad-core at 4 cores and the scaled layout otherwise.
Scenario::SystemKind default_machine(std::string_view policy,
                                     std::size_t cores);

// `setup` as the system that runs `policy`: named after the policy, on
// default_machine(policy, setup.cores); everything else is kept.
Scenario named_system(Scenario setup, std::string_view policy);

// The four systems of the paper's Section V over `setup`'s one arrival
// stream, in the order base, optimal, energy-centric, proposed.
std::vector<Scenario> paper_systems(const Scenario& setup);

std::string_view to_string(Scenario::SystemKind kind);
std::string_view to_string(QueueDiscipline discipline);

}  // namespace hetsched

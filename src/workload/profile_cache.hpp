// Persistent characterisation profile cache.
//
// CharacterizedSuite::build is the dominant up-front cost of every bench
// binary and every Experiment: each kernel variant's trace is generated
// and priced against all 18 Table-1 configurations before any scheduling
// happens. The characterisation is a pure function of (SuiteOptions,
// DesignSpace, energy-model parameters), so it can be computed once and
// reloaded in milliseconds by every later run.
//
// The snapshot is a versioned text format in the mould of
// PredictorSnapshot: doubles in hexfloat (bit-exact round trips), an
// FNV-1a checksum line over the body, and — new here — a 64-bit FNV-1a
// *key* hashing every input that determines the characterisation output
// (suite options, the design space, energy/CACTI parameters, and a schema
// version bumped whenever the characterisation pipeline changes
// semantics). A snapshot whose key does not match the requesting
// configuration is treated as stale and rebuilt, so a cached file can
// never silently serve characterisation for the wrong parameters.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "workload/characterization.hpp"

namespace hetsched {

// Hash of everything the characterisation output depends on.
std::uint64_t suite_cache_key(const SuiteOptions& options,
                              const EnergyModel& model);

// Writes the suite under `key` with a trailing checksum.
void save_suite_snapshot(std::ostream& out, const CharacterizedSuite& suite,
                         std::uint64_t key);

// Loads a snapshot; throws std::runtime_error on malformed or corrupted
// input, or when the stored key differs from `expected_key`.
CharacterizedSuite load_suite_snapshot(std::istream& in,
                                       std::uint64_t expected_key);

// File-level entry point: returns the cached suite at `path` when it is
// present, intact, and keyed to (options, model); otherwise builds the
// suite (on `pool`, or the global pool when null) and refreshes `path`
// via an atomic rename. An unwritable path degrades to a plain build; an
// empty path is a plain build with no cache traffic at all.
CharacterizedSuite load_or_build_suite(const std::string& path,
                                       const EnergyModel& model,
                                       const SuiteOptions& options,
                                       ThreadPool* pool = nullptr);

}  // namespace hetsched

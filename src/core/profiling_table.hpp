// Profiling table (Section IV.A/IV.B).
//
// Core 4 stores, per application: the execution statistics recorded during
// the base-configuration profiling run, the ANN's best-size prediction,
// and the energy/performance of every configuration explored so far. This
// persistence is what lets the tuning heuristic "continue where the
// exploration left off" across executions, and what feeds the
// energy-advantageous decision. Core 3 (secondary profiling core) reads
// the same table over the on-chip network.
//
// Policies may ONLY learn about a benchmark through this table — the
// characterised ground truth is hidden from them until an execution
// deposits an observation here.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_config.hpp"
#include "trace/counters.hpp"
#include "util/units.hpp"

namespace hetsched {

// Measured outcome of one execution in one configuration.
struct Observation {
  NanoJoules total_energy;
  NanoJoules dynamic_energy;
  Cycles cycles = 0;
};

class ProfilingTable {
 public:
  static constexpr std::size_t kConfigCount = 18;

  struct Entry {
    bool profiled = false;
    ExecutionStatistics statistics;
    std::optional<std::uint32_t> predicted_best_size_bytes;

    // Indexed parallel to DesignSpace::all(). Read-only outside the
    // table: every write goes through ProfilingTable::record, which keeps
    // `version` exact.
    const std::array<std::optional<Observation>, kConfigCount>&
    observations() const {
      return observations_;
    }

    std::size_t observed_count() const;
    std::size_t observed_count_for_size(std::uint32_t size_bytes) const;
    bool fully_explored() const { return observed_count() == kConfigCount; }

    const Observation* find(const CacheConfig& config) const;

    // Lowest-total-energy observed configuration (overall or per size);
    // nullopt when nothing relevant has been observed yet.
    std::optional<CacheConfig> best_observed() const;
    std::optional<CacheConfig> best_observed_for_size(
        std::uint32_t size_bytes) const;
    // First unobserved Table-1 configuration of the size, canonical order
    // (drives the optimal system's exhaustive exploration).
    std::optional<CacheConfig> next_unexplored_for_size(
        std::uint32_t size_bytes) const;

    // Monotone change counter, bumped on every observation write, so
    // derived caches (the tuning heuristic's walk memo below) detect
    // staleness exactly. Not serialized: a restored entry starts at 0
    // with empty memos, which forces recomputation — derived state only.
    std::uint64_t version() const { return version_; }

    // Memoised TuningHeuristic::walk result for one design-space size,
    // valid while `version()` matches. The walk is a pure function of the
    // observations, so a memo hit is bit-identical to recomputing; it
    // turns the per-decision complete()/best_known() pair from repeated
    // table scans into two counter compares.
    struct WalkMemo {
      std::uint64_t version = ~std::uint64_t{0};  // never matches fresh
      bool has_next = false;
      CacheConfig next{};
      CacheConfig best{};
      std::size_t explored = 0;
    };
    mutable std::array<WalkMemo, 3> walk_memo{};  // per size: 2/4/8KB

   private:
    friend class ProfilingTable;
    std::array<std::optional<Observation>, kConfigCount> observations_;
    std::uint64_t version_ = 0;
  };

  explicit ProfilingTable(std::size_t benchmark_count);

  std::size_t size() const { return entries_.size(); }
  Entry& entry(std::size_t benchmark_id);
  const Entry& entry(std::size_t benchmark_id) const;

  // Records a measured execution. Re-executions overwrite (the system is
  // deterministic, so values are identical).
  void record(std::size_t benchmark_id, const CacheConfig& config,
              const Observation& obs);

  // Checkpoint support: serializes every entry (profiled statistics,
  // prediction, observations) as whitespace tokens with doubles in
  // hexfloat, so a restored table is bit-identical. restore_state
  // requires a table constructed with the same benchmark count and
  // throws std::runtime_error (tagged with `context`) on malformed or
  // mismatched input.
  void save_state(std::ostream& out) const;
  void restore_state(std::istream& in, const std::string& context);

 private:
  std::vector<Entry> entries_;
};

}  // namespace hetsched

#include "core/profiling_table.hpp"

#include <istream>
#include <ostream>

#include "util/contracts.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {
namespace {

std::size_t config_index(const CacheConfig& config) {
  const auto idx = DesignSpace::index_of(config);
  HETSCHED_REQUIRE(idx.has_value());
  return *idx;
}

}  // namespace

std::size_t ProfilingTable::Entry::observed_count() const {
  std::size_t n = 0;
  for (const auto& o : observations_) {
    if (o.has_value()) ++n;
  }
  return n;
}

std::size_t ProfilingTable::Entry::observed_count_for_size(
    std::uint32_t size_bytes) const {
  const auto& space = DesignSpace::all();
  std::size_t n = 0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (space[i].size_bytes == size_bytes &&
        observations_[i].has_value()) {
      ++n;
    }
  }
  return n;
}

const Observation* ProfilingTable::Entry::find(
    const CacheConfig& config) const {
  const auto& obs = observations_[config_index(config)];
  return obs.has_value() ? &*obs : nullptr;
}

std::optional<CacheConfig> ProfilingTable::Entry::best_observed() const {
  const auto& space = DesignSpace::all();
  std::optional<CacheConfig> best;
  NanoJoules best_energy;
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (!observations_[i].has_value()) continue;
    if (!best.has_value() || observations_[i]->total_energy < best_energy) {
      best = space[i];
      best_energy = observations_[i]->total_energy;
    }
  }
  return best;
}

std::optional<CacheConfig> ProfilingTable::Entry::best_observed_for_size(
    std::uint32_t size_bytes) const {
  const auto& space = DesignSpace::all();
  std::optional<CacheConfig> best;
  NanoJoules best_energy;
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (space[i].size_bytes != size_bytes) continue;
    if (!observations_[i].has_value()) continue;
    if (!best.has_value() || observations_[i]->total_energy < best_energy) {
      best = space[i];
      best_energy = observations_[i]->total_energy;
    }
  }
  return best;
}

std::optional<CacheConfig> ProfilingTable::Entry::next_unexplored_for_size(
    std::uint32_t size_bytes) const {
  const auto& space = DesignSpace::all();
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (space[i].size_bytes == size_bytes &&
        !observations_[i].has_value()) {
      return space[i];
    }
  }
  return std::nullopt;
}

ProfilingTable::ProfilingTable(std::size_t benchmark_count)
    : entries_(benchmark_count) {
  HETSCHED_REQUIRE(benchmark_count > 0);
  HETSCHED_ASSERT(DesignSpace::all().size() == kConfigCount);
}

ProfilingTable::Entry& ProfilingTable::entry(std::size_t benchmark_id) {
  HETSCHED_REQUIRE(benchmark_id < entries_.size());
  return entries_[benchmark_id];
}

const ProfilingTable::Entry& ProfilingTable::entry(
    std::size_t benchmark_id) const {
  HETSCHED_REQUIRE(benchmark_id < entries_.size());
  return entries_[benchmark_id];
}

void ProfilingTable::record(std::size_t benchmark_id,
                            const CacheConfig& config,
                            const Observation& obs) {
  HETSCHED_REQUIRE(benchmark_id < entries_.size());
  Entry& entry = entries_[benchmark_id];
  auto& slot = entry.observations_[config_index(config)];
  // Executions replay characterised values, so in steady state every
  // record() overwrites its slot with the bit-identical observation; the
  // walk memos only need invalidating when a slot actually changes.
  if (slot.has_value() && slot->total_energy == obs.total_energy &&
      slot->dynamic_energy == obs.dynamic_energy &&
      slot->cycles == obs.cycles) {
    return;
  }
  slot = obs;
  ++entry.version_;  // invalidates the walk memos
}

void ProfilingTable::save_state(std::ostream& out) const {
  out << "profiling-table " << entries_.size() << "\n";
  for (std::size_t id = 0; id < entries_.size(); ++id) {
    const Entry& entry = entries_[id];
    out << "entry " << id << ' ' << (entry.profiled ? 1 : 0);
    for (const double v : entry.statistics.to_vector()) {
      out << ' ';
      snapshot_text::write_double(out, v);
    }
    out << "\n";
    if (entry.predicted_best_size_bytes.has_value()) {
      out << "prediction 1 " << *entry.predicted_best_size_bytes << "\n";
    } else {
      out << "prediction 0\n";
    }
    out << "observations " << entry.observed_count() << "\n";
    for (std::size_t i = 0; i < kConfigCount; ++i) {
      const auto& obs = entry.observations_[i];
      if (!obs.has_value()) continue;
      out << i << ' ';
      snapshot_text::write_double(out, obs->total_energy.value());
      out << ' ';
      snapshot_text::write_double(out, obs->dynamic_energy.value());
      out << ' ' << obs->cycles << "\n";
    }
  }
}

void ProfilingTable::restore_state(std::istream& in,
                                   const std::string& context) {
  std::string token;
  if (!(in >> token) || token != "profiling-table") {
    snapshot_text::fail(context, "expected 'profiling-table'");
  }
  const auto count =
      snapshot_text::read_value<std::size_t>(in, "table size", context);
  if (count != entries_.size()) {
    snapshot_text::fail(context,
                        "profiling table benchmark count does not match");
  }
  for (std::size_t id = 0; id < entries_.size(); ++id) {
    if (!(in >> token) || token != "entry") {
      snapshot_text::fail(context, "expected 'entry'");
    }
    const auto got =
        snapshot_text::read_value<std::size_t>(in, "entry id", context);
    if (got != id) snapshot_text::fail(context, "entry ids out of order");
    Entry entry;
    entry.profiled =
        snapshot_text::read_value<int>(in, "profiled flag", context) != 0;
    auto& s = entry.statistics;
    double* const fields[kNumExecutionStatistics] = {
        &s.total_instructions, &s.cycles,        &s.loads,
        &s.stores,             &s.branches,      &s.taken_branches,
        &s.int_ops,            &s.fp_ops,        &s.l1_accesses,
        &s.l1_misses,          &s.l1_miss_rate,  &s.compulsory_misses,
        &s.writebacks,         &s.working_set_bytes, &s.load_fraction,
        &s.mem_intensity,      &s.compute_intensity, &s.branch_fraction};
    for (double* field : fields) {
      *field = snapshot_text::read_value<double>(in, "statistic", context);
    }
    if (!(in >> token) || token != "prediction") {
      snapshot_text::fail(context, "expected 'prediction'");
    }
    if (snapshot_text::read_value<int>(in, "prediction flag", context) != 0) {
      entry.predicted_best_size_bytes = snapshot_text::read_value<
          std::uint32_t>(in, "predicted size", context);
    }
    if (!(in >> token) || token != "observations") {
      snapshot_text::fail(context, "expected 'observations'");
    }
    const auto observed =
        snapshot_text::read_value<std::size_t>(in, "observation count",
                                               context);
    if (observed > kConfigCount) {
      snapshot_text::fail(context, "too many observations");
    }
    for (std::size_t n = 0; n < observed; ++n) {
      const auto idx = snapshot_text::read_value<std::size_t>(
          in, "observation index", context);
      if (idx >= kConfigCount) {
        snapshot_text::fail(context, "observation index out of range");
      }
      Observation obs;
      obs.total_energy = NanoJoules(snapshot_text::read_value<double>(
          in, "observation total energy", context));
      obs.dynamic_energy = NanoJoules(snapshot_text::read_value<double>(
          in, "observation dynamic energy", context));
      obs.cycles =
          snapshot_text::read_value<Cycles>(in, "observation cycles", context);
      entry.observations_[idx] = obs;
    }
    entries_[id] = entry;
  }
}

}  // namespace hetsched

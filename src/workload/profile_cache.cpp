#include "workload/profile_cache.hpp"

#include <bit>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/probes.hpp"
#include "util/snapshot_text.hpp"

namespace hetsched {
namespace {

constexpr std::string_view kMagic = "hetsched-suite";
constexpr int kVersion = 1;
// Bump whenever the characterisation pipeline changes the meaning of any
// serialised field (kernels, counters, statistics, energy model shape).
constexpr int kSchemaVersion = 1;
const std::string kContext = "profile cache";

using snapshot_text::write_double;

[[noreturn]] void fail(const std::string& what) {
  snapshot_text::fail(kContext, what);
}

template <typename T>
T read_value(std::istream& in, const char* what) {
  return snapshot_text::read_value<T>(in, what, kContext);
}

double read_finite(std::istream& in, const char* what) {
  const double v = read_value<double>(in, what);
  if (!std::isfinite(v)) fail(std::string("non-finite ") + what);
  return v;
}

void hash_double(Fnv1a& h, double v) {
  h.update_value(std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t suite_cache_key(const SuiteOptions& options,
                              const EnergyModel& model) {
  Fnv1a h;
  h.update("hetsched-suite-key").update_value(kSchemaVersion);

  h.update("suite");
  hash_double(h, options.kernel_scale);
  h.update_value(options.variants_per_kernel)
      .update_value(options.seed_base)
      .update_value(options.include_extended);

  h.update("space");
  for (const CacheConfig& config : DesignSpace::all()) {
    h.update(config.name());
  }
  h.update(DesignSpace::base_config().name());

  const EnergyModelParams& p = model.params();
  h.update("energy");
  h.update_value(p.miss_latency)
      .update_value(p.beat_bytes)
      .update_value(p.bandwidth_cycles_per_beat);
  hash_double(h, p.offchip_access.value());
  hash_double(h, p.offchip_per_beat.value());
  hash_double(h, p.cpu_stall_per_cycle.value());
  hash_double(h, p.static_fraction);
  hash_double(h, p.base_cpi);
  hash_double(h, p.core_idle_per_cycle.value());
  hash_double(h, p.core_active_per_cycle.value());
  h.update_value(p.include_writebacks);

  const CactiCoefficients& c = model.cacti().coefficients();
  h.update("cacti");
  hash_double(h, c.data_array_per_way_byte);
  hash_double(h, c.tag_per_way_bit);
  hash_double(h, c.decode_per_index_bit);
  hash_double(h, c.sense_fixed);
  hash_double(h, c.write_factor);
  hash_double(h, c.fill_per_byte);
  h.update_value(c.address_bits);

  return h.digest();
}

void save_suite_snapshot(std::ostream& raw_out,
                         const CharacterizedSuite& suite,
                         std::uint64_t key) {
  std::ostringstream out;
  out << kMagic << " v" << kVersion << "\n";
  out << "key " << std::hex << key << std::dec << "\n";
  out << "profiles " << suite.size() << "\n";

  for (const BenchmarkProfile& profile : suite.all()) {
    const BenchmarkInstance& inst = profile.instance;
    HETSCHED_REQUIRE(!inst.name.empty());
    out << "profile " << inst.name << ' ' << inst.kernel_index << ' '
        << inst.data_seed << ' ' << static_cast<int>(inst.domain) << "\n";

    const RawCounters& rc = profile.counters;
    out << "counters " << rc.loads << ' ' << rc.stores << ' '
        << rc.branches << ' ' << rc.taken_branches << ' ' << rc.int_ops
        << ' ' << rc.fp_ops << ' ' << profile.footprint_bytes << "\n";

    out << "stats";
    for (const double v : profile.base_statistics.to_vector()) {
      out << ' ';
      write_double(out, v);
    }
    out << "\n";

    out << "configs " << profile.per_config.size() << "\n";
    for (const ConfigProfile& cp : profile.per_config) {
      const CacheStats& cs = cp.cache;
      out << cp.config.name() << ' ' << cs.accesses << ' ' << cs.hits
          << ' ' << cs.misses << ' ' << cs.read_misses << ' '
          << cs.write_misses << ' ' << cs.compulsory_misses << ' '
          << cs.evictions << ' ' << cs.writebacks << ' '
          << cs.writethroughs << ' ' << cs.prefetch_fills;
      const EnergyBreakdown& e = cp.energy;
      out << ' ' << e.miss_cycles << ' ' << e.total_cycles << ' ';
      write_double(out, e.static_energy.value());
      out << ' ';
      write_double(out, e.dynamic_energy.value());
      out << ' ';
      write_double(out, e.cpu_energy.value());
      out << "\n";
    }
  }

  snapshot_text::write_with_checksum(raw_out, out.str());
}

CharacterizedSuite load_suite_snapshot(std::istream& raw_in,
                                       std::uint64_t expected_key) {
  std::istringstream in(snapshot_text::read_verified(raw_in, kContext));

  std::string magic, version;
  if (!(in >> magic >> version) || magic != kMagic ||
      version != "v" + std::to_string(kVersion)) {
    fail("bad header");
  }

  std::string token;
  in >> token;
  if (token != "key") fail("expected 'key'");
  std::uint64_t key = 0;
  if (!(in >> std::hex >> key >> std::dec)) fail("cannot read key");
  if (key != expected_key) {
    fail("stale snapshot (parameters or schema changed)");
  }

  in >> token;
  if (token != "profiles") fail("expected 'profiles'");
  const auto n_profiles = read_value<std::size_t>(in, "profile count");
  if (n_profiles == 0 || n_profiles > 1000000) {
    fail("implausible profile count");
  }

  const std::size_t n_configs_expected = DesignSpace::all().size();
  std::vector<BenchmarkProfile> profiles;
  profiles.reserve(n_profiles);
  for (std::size_t p = 0; p < n_profiles; ++p) {
    in >> token;
    if (token != "profile") fail("expected 'profile'");
    BenchmarkProfile profile;
    BenchmarkInstance& inst = profile.instance;
    if (!(in >> inst.name)) fail("cannot read instance name");
    inst.kernel_index = read_value<std::size_t>(in, "kernel index");
    inst.data_seed = read_value<std::uint64_t>(in, "data seed");
    const int domain = read_value<int>(in, "domain");
    if (domain < 0 || domain > static_cast<int>(Domain::kTelecom)) {
      fail("domain out of range");
    }
    inst.domain = static_cast<Domain>(domain);

    in >> token;
    if (token != "counters") fail("expected 'counters'");
    RawCounters& rc = profile.counters;
    rc.loads = read_value<std::uint64_t>(in, "loads");
    rc.stores = read_value<std::uint64_t>(in, "stores");
    rc.branches = read_value<std::uint64_t>(in, "branches");
    rc.taken_branches = read_value<std::uint64_t>(in, "taken branches");
    rc.int_ops = read_value<std::uint64_t>(in, "int ops");
    rc.fp_ops = read_value<std::uint64_t>(in, "fp ops");
    profile.footprint_bytes = read_value<std::uint32_t>(in, "footprint");

    in >> token;
    if (token != "stats") fail("expected 'stats'");
    ExecutionStatistics& s = profile.base_statistics;
    for (double* field :
         {&s.total_instructions, &s.cycles, &s.loads, &s.stores,
          &s.branches, &s.taken_branches, &s.int_ops, &s.fp_ops,
          &s.l1_accesses, &s.l1_misses, &s.l1_miss_rate,
          &s.compulsory_misses, &s.writebacks, &s.working_set_bytes,
          &s.load_fraction, &s.mem_intensity, &s.compute_intensity,
          &s.branch_fraction}) {
      *field = read_finite(in, "execution statistic");
    }

    in >> token;
    if (token != "configs") fail("expected 'configs'");
    const auto n_configs = read_value<std::size_t>(in, "config count");
    if (n_configs != n_configs_expected) {
      fail("config count does not match the design space");
    }
    profile.per_config.reserve(n_configs);
    for (std::size_t c = 0; c < n_configs; ++c) {
      ConfigProfile cp;
      std::string config_name;
      if (!(in >> config_name)) fail("cannot read config name");
      const auto config = CacheConfig::parse(config_name);
      if (!config.has_value() || *config != DesignSpace::all()[c]) {
        fail("config does not match the design space order");
      }
      cp.config = *config;
      CacheStats& cs = cp.cache;
      cs.accesses = read_value<std::uint64_t>(in, "accesses");
      cs.hits = read_value<std::uint64_t>(in, "hits");
      cs.misses = read_value<std::uint64_t>(in, "misses");
      cs.read_misses = read_value<std::uint64_t>(in, "read misses");
      cs.write_misses = read_value<std::uint64_t>(in, "write misses");
      cs.compulsory_misses =
          read_value<std::uint64_t>(in, "compulsory misses");
      cs.evictions = read_value<std::uint64_t>(in, "evictions");
      cs.writebacks = read_value<std::uint64_t>(in, "writebacks");
      cs.writethroughs = read_value<std::uint64_t>(in, "writethroughs");
      cs.prefetch_fills = read_value<std::uint64_t>(in, "prefetch fills");
      EnergyBreakdown& e = cp.energy;
      e.miss_cycles = read_value<std::uint64_t>(in, "miss cycles");
      e.total_cycles = read_value<std::uint64_t>(in, "total cycles");
      e.static_energy = NanoJoules(read_finite(in, "static energy"));
      e.dynamic_energy = NanoJoules(read_finite(in, "dynamic energy"));
      e.cpu_energy = NanoJoules(read_finite(in, "cpu energy"));
      profile.per_config.push_back(cp);
    }
    profiles.push_back(std::move(profile));
  }
  if (in >> token) fail("trailing garbage after last profile");
  return CharacterizedSuite::from_profiles(std::move(profiles));
}

CharacterizedSuite load_or_build_suite(const std::string& path,
                                       const EnergyModel& model,
                                       const SuiteOptions& options,
                                       ThreadPool* pool) {
  if (path.empty()) {
    return pool != nullptr ? CharacterizedSuite::build(model, options, *pool)
                           : CharacterizedSuite::build(model, options);
  }
  const std::uint64_t key = suite_cache_key(options, model);

  {
    std::ifstream in(path);
    if (in) {
      try {
        CharacterizedSuite suite = load_suite_snapshot(in, key);
        if (ObsProbe* probe = obs_probe()) probe->on_profile_cache(true);
        return suite;
      } catch (const std::exception&) {
        // Stale, truncated or corrupt: fall through and rebuild.
      }
    }
  }
  if (ObsProbe* probe = obs_probe()) probe->on_profile_cache(false);

  CharacterizedSuite suite =
      pool != nullptr ? CharacterizedSuite::build(model, options, *pool)
                      : CharacterizedSuite::build(model, options);

  // Refresh atomically so a crashed or concurrent writer can never leave
  // a torn snapshot behind; failures only cost the cache.
  std::ostringstream out;
  save_suite_snapshot(out, suite, key);
  atomic_write_file(path, out.str());
  return suite;
}

}  // namespace hetsched

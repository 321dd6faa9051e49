#include "core/serialization.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/snapshot_text.hpp"
#include "workload/dataset_builder.hpp"

namespace hetsched {
namespace {

constexpr std::string_view kMagic = "hetsched-predictor";
constexpr int kVersion = 1;
const std::string kContext = "PredictorSnapshot::load";

using snapshot_text::write_double;

[[noreturn]] void fail(const std::string& what) {
  snapshot_text::fail(kContext, what);
}

template <typename T>
T read_value(std::istream& in, const char* what) {
  return snapshot_text::read_value<T>(in, what, kContext);
}

Matrix read_matrix(std::istream& in, std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (double& v : m.flat()) {
    v = read_value<double>(in, "matrix element");
    if (!std::isfinite(v)) fail("non-finite network parameter");
  }
  return m;
}

}  // namespace

PredictorSnapshot PredictorSnapshot::from(
    const BestSizePredictor& predictor) {
  PredictorSnapshot snapshot;
  snapshot.selected_ = predictor.selected_features();
  snapshot.scaler_ = predictor.scaler();
  const BaggedEnsemble& ensemble = predictor.ensemble();
  snapshot.members_.reserve(ensemble.size());
  for (std::size_t i = 0; i < ensemble.size(); ++i) {
    snapshot.members_.push_back(ensemble.member(i));
  }
  return snapshot;
}

void PredictorSnapshot::save(std::ostream& raw_out) const {
  // The body is built in memory so a checksum over its exact bytes can
  // be appended; load() verifies it when present.
  std::ostringstream out;
  out << kMagic << " v" << kVersion << "\n";

  out << "features " << selected_.indices.size();
  for (std::size_t idx : selected_.indices) out << ' ' << idx;
  out << "\n";

  out << "scaler " << scaler_.means().size();
  for (double m : scaler_.means()) {
    out << ' ';
    write_double(out, m);
  }
  for (double s : scaler_.stddevs()) {
    out << ' ';
    write_double(out, s);
  }
  out << "\n";

  out << "members " << members_.size() << "\n";
  for (const Mlp& net : members_) {
    const auto& sizes = net.config().layer_sizes;
    out << "mlp " << sizes.size();
    for (std::size_t s : sizes) out << ' ' << s;
    out << ' ' << static_cast<int>(net.config().hidden_activation) << ' '
        << static_cast<int>(net.config().output_activation) << "\n";
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
      for (double v : net.weights()[l].flat()) {
        write_double(out, v);
        out << ' ';
      }
      for (double v : net.biases()[l].flat()) {
        write_double(out, v);
        out << ' ';
      }
      out << "\n";
    }
  }

  snapshot_text::write_with_checksum(raw_out, out.str());
}

PredictorSnapshot PredictorSnapshot::load(std::istream& raw_in) {
  // The optional trailing checksum line covers the exact bytes of
  // everything before it, so it is split off (and verified) before
  // token-level parsing. Files from before the checksum was introduced
  // simply lack the line and are still accepted.
  std::istringstream in(snapshot_text::read_verified(raw_in, kContext));
  std::string magic, version;
  if (!(in >> magic >> version) || magic != kMagic ||
      version != "v" + std::to_string(kVersion)) {
    fail("bad header");
  }

  PredictorSnapshot snapshot;

  std::string token;
  in >> token;
  if (token != "features") fail("expected 'features'");
  const auto n_features = read_value<std::size_t>(in, "feature count");
  if (n_features == 0 || n_features > kNumExecutionStatistics) {
    fail("implausible feature count");
  }
  snapshot.selected_.indices.resize(n_features);
  for (auto& idx : snapshot.selected_.indices) {
    idx = read_value<std::size_t>(in, "feature index");
    if (idx >= kNumExecutionStatistics) fail("feature index out of range");
  }
  snapshot.selected_.relevance.assign(kNumExecutionStatistics, 0.0);

  in >> token;
  if (token != "scaler") fail("expected 'scaler'");
  const auto d = read_value<std::size_t>(in, "scaler width");
  if (d != n_features) fail("scaler width mismatch");
  std::vector<double> means(d), stds(d);
  for (auto& v : means) {
    v = read_value<double>(in, "scaler mean");
    if (!std::isfinite(v)) fail("non-finite scaler mean");
  }
  for (auto& v : stds) {
    v = read_value<double>(in, "scaler stddev");
    if (!std::isfinite(v) || v <= 0.0) {
      fail("scaler stddev not finite and positive");
    }
  }
  snapshot.scaler_ =
      StandardScaler::from_moments(std::move(means), std::move(stds));

  in >> token;
  if (token != "members") fail("expected 'members'");
  const auto n_members = read_value<std::size_t>(in, "member count");
  if (n_members == 0 || n_members > 10000) fail("implausible member count");
  snapshot.members_.reserve(n_members);
  for (std::size_t m = 0; m < n_members; ++m) {
    in >> token;
    if (token != "mlp") fail("expected 'mlp'");
    const auto n_layers = read_value<std::size_t>(in, "layer count");
    if (n_layers < 2 || n_layers > 64) fail("implausible layer count");
    MlpConfig config;
    config.layer_sizes.resize(n_layers);
    for (auto& s : config.layer_sizes) {
      s = read_value<std::size_t>(in, "layer size");
      if (s == 0 || s > 100000) fail("implausible layer size");
    }
    if (config.layer_sizes.front() != n_features) {
      fail("net input width does not match feature count");
    }
    config.hidden_activation =
        static_cast<Activation>(read_value<int>(in, "hidden activation"));
    config.output_activation =
        static_cast<Activation>(read_value<int>(in, "output activation"));

    std::vector<Matrix> weights, biases;
    for (std::size_t l = 0; l + 1 < n_layers; ++l) {
      weights.push_back(read_matrix(in, config.layer_sizes[l],
                                    config.layer_sizes[l + 1]));
      biases.push_back(read_matrix(in, 1, config.layer_sizes[l + 1]));
    }
    snapshot.members_.push_back(Mlp::from_parameters(
        std::move(config), std::move(weights), std::move(biases)));
  }
  if (in >> token) fail("trailing garbage after last member");
  return snapshot;
}

double PredictorSnapshot::predict_raw(
    const ExecutionStatistics& stats) const {
  HETSCHED_REQUIRE(!members_.empty());
  auto raw = stats.to_vector();
  for (std::size_t c = 0; c < raw.size(); ++c) {
    raw[c] = transform_statistic(c, raw[c]);
  }
  const std::vector<double> projected = selected_.project_row(raw);
  const std::vector<double> scaled = scaler_.transform_row(projected);
  double sum = 0.0;
  Mlp::Workspace workspace;
  for (const Mlp& net : members_) {
    sum += net.predict_one(scaled, workspace).front();
  }
  return sum / static_cast<double>(members_.size());
}

std::uint32_t PredictorSnapshot::predict(
    std::size_t benchmark_id, const ExecutionStatistics& stats) const {
  (void)benchmark_id;
  return target_to_size(predict_raw(stats));
}

}  // namespace hetsched

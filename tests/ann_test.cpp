// Tests for src/ann: matrix algebra, activations, backprop (validated
// against numerical gradients), training, bagging, splits, scaling,
// feature selection and metrics.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>

#include "ann/bagging.hpp"
#include "ann/feature_selection.hpp"
#include "ann/metrics.hpp"
#include "ann/trainer.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace hetsched {
namespace {

TEST(MatrixTest, MatmulMatchesHandComputation) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50);
}

TEST(MatrixTest, TransposedMatmulVariantsAgree) {
  Rng rng(1);
  const Matrix a = Matrix::xavier(3, 4, rng);
  const Matrix b = Matrix::xavier(3, 5, rng);
  // a^T * b computed two ways.
  const Matrix direct = a.transposed_matmul(b);
  const Matrix via_transpose = a.transposed().matmul(b);
  ASSERT_EQ(direct.rows(), via_transpose.rows());
  for (std::size_t r = 0; r < direct.rows(); ++r) {
    for (std::size_t c = 0; c < direct.cols(); ++c) {
      EXPECT_NEAR(direct.at(r, c), via_transpose.at(r, c), 1e-12);
    }
  }
  // a * b^T (shapes: 3x4 times 5x4^T -> need matching cols) — use fresh.
  const Matrix x = Matrix::xavier(2, 4, rng);
  const Matrix y = Matrix::xavier(6, 4, rng);
  const Matrix d1 = x.matmul_transposed(y);
  const Matrix d2 = x.matmul(y.transposed());
  for (std::size_t r = 0; r < d1.rows(); ++r) {
    for (std::size_t c = 0; c < d1.cols(); ++c) {
      EXPECT_NEAR(d1.at(r, c), d2.at(r, c), 1e-12);
    }
  }
}

// The into-buffer kernels against textbook loops, bit for bit, at the
// widths that run with a compile-time bound (1, 5, 18) and at one that
// does not (7), all into one reused output buffer.
TEST(MatrixTest, IntoKernelsMatchTextbookLoopsBitForBit) {
  Rng rng(21);
  Matrix out;
  for (std::size_t n : {1u, 5u, 7u, 18u}) {
    Matrix a = Matrix::xavier(8, n, rng);
    a.at(3, 0) = 0.0;  // takes the kernels' zero-multiplicand skip
    const Matrix b = Matrix::xavier(n, n + 2, rng);
    const Matrix c = Matrix::xavier(8, n + 1, rng);
    const Matrix d = Matrix::xavier(n + 3, n, rng);

    a.matmul_into(b, out);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) acc += a.at(i, k) * b.at(k, j);
        EXPECT_EQ(out.at(i, j), acc) << "matmul width " << n;
      }
    }
    a.transposed_matmul_into(c, out);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < c.cols(); ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < a.rows(); ++k) {
          acc += a.at(k, i) * c.at(k, j);
        }
        EXPECT_EQ(out.at(i, j), acc) << "transposed_matmul width " << n;
      }
    }
    a.matmul_transposed_into(d, out);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < d.rows(); ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) acc += a.at(i, k) * d.at(j, k);
        EXPECT_EQ(out.at(i, j), acc) << "matmul_transposed width " << n;
      }
    }
    a.column_sums_into(out);
    ASSERT_EQ(out.rows(), 1u);
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < a.rows(); ++r) acc += a.at(r, j);
      EXPECT_EQ(out.at(0, j), acc) << "column_sums width " << n;
    }
    a.matmul_into(b, out);
    EXPECT_EQ(out, a.matmul(b));
  }
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{10, 20}, {30, 40}});
  a.add_inplace(b, 0.5);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 24);
  a.scale_inplace(2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 12);
  Matrix h = Matrix::from_rows({{1, 2}});
  const Matrix g = Matrix::from_rows({{3, 4}});
  h.hadamard_inplace(g);
  EXPECT_DOUBLE_EQ(h.at(0, 1), 8);
}

TEST(MatrixTest, RowVectorBroadcastAndColumnSums) {
  Matrix a = Matrix::from_rows({{1, 1}, {2, 2}});
  const Matrix bias = Matrix::from_rows({{10, 20}});
  a.add_row_vector(bias);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 21);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 12);
  const Matrix sums = a.column_sums();
  EXPECT_DOUBLE_EQ(sums.at(0, 0), 23);
  EXPECT_DOUBLE_EQ(sums.at(0, 1), 43);
}

TEST(MatrixTest, XavierBoundsRespectFanInOut) {
  Rng rng(2);
  const Matrix w = Matrix::xavier(10, 18, rng);
  const double limit = std::sqrt(6.0 / 28.0);
  for (double v : w.flat()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
}

TEST(ActivationTest, ValuesAndDerivatives) {
  EXPECT_DOUBLE_EQ(activate(Activation::kIdentity, 3.5), 3.5);
  EXPECT_NEAR(activate(Activation::kTanh, 0.5), std::tanh(0.5), 1e-12);
  EXPECT_NEAR(activate(Activation::kSigmoid, 0.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(activate(Activation::kRelu, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(activate(Activation::kRelu, 2.0), 2.0);

  // Derivative from output: f'(x) expressed via y = f(x).
  const double y = std::tanh(0.7);
  EXPECT_NEAR(activate_grad_from_output(Activation::kTanh, y), 1 - y * y,
              1e-12);
  EXPECT_NEAR(activate_grad_from_output(Activation::kSigmoid, 0.3),
              0.3 * 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(activate_grad_from_output(Activation::kIdentity, 9.0),
                   1.0);
}

TEST(MlpTest, TopologyAndParameterCount) {
  Rng rng(3);
  Mlp net(MlpConfig{{10, 18, 5, 1}}, rng);
  EXPECT_EQ(net.input_size(), 10u);
  EXPECT_EQ(net.output_size(), 1u);
  // (10*18+18) + (18*5+5) + (5*1+1) = 198 + 95 + 6
  EXPECT_EQ(net.parameter_count(), 299u);
}

TEST(MlpTest, PredictIsDeterministic) {
  Rng rng(4);
  Mlp net(MlpConfig{{3, 4, 1}}, rng);
  const std::vector<double> x{0.1, -0.2, 0.3};
  EXPECT_DOUBLE_EQ(net.predict_one(x)[0], net.predict_one(x)[0]);
}

// Backprop gradient validated against central finite differences on every
// parameter of a small net — the canonical correctness test for ANN code.
TEST(MlpTest, BackpropMatchesNumericalGradient) {
  Rng rng(5);
  const MlpConfig config{{2, 3, 1}};
  const Matrix inputs = Matrix::from_rows({{0.5, -1.0}, {1.5, 2.0}});
  const Matrix targets = Matrix::from_rows({{1.0}, {-1.0}});

  // Compute the analytic update by training one step with momentum 0 and
  // a tiny learning rate; recover the gradient from the weight delta.
  const double lr = 1e-6;
  Mlp net(config, rng);
  Mlp stepped = net;
  stepped.train_batch(inputs, targets, lr, 0.0);

  auto loss_of = [&](const Mlp& m) {
    return m.evaluate_mse(inputs, targets);
  };

  // Numerical directional check layer by layer, element by element.
  for (std::size_t layer = 0; layer < net.weights().size(); ++layer) {
    for (std::size_t r = 0; r < net.weights()[layer].rows(); ++r) {
      for (std::size_t c = 0; c < net.weights()[layer].cols(); ++c) {
        const double analytic_grad =
            (net.weights()[layer].at(r, c) -
             stepped.weights()[layer].at(r, c)) /
            lr;
        // Central difference.
        const double eps = 1e-5;
        Mlp plus = net;
        Mlp minus = net;
        const_cast<Matrix&>(plus.weights()[layer]).at(r, c) += eps;
        const_cast<Matrix&>(minus.weights()[layer]).at(r, c) -= eps;
        const double numeric_grad =
            (loss_of(plus) - loss_of(minus)) / (2 * eps);
        EXPECT_NEAR(analytic_grad, numeric_grad,
                    1e-4 * std::max(1.0, std::abs(numeric_grad)))
            << "layer " << layer << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(MlpTest, TrainingFitsLinearFunction) {
  Rng rng(6);
  Mlp net(MlpConfig{{2, 8, 1}}, rng);
  // y = 2a - b over a small grid.
  std::vector<std::vector<double>> xs, ys;
  for (double a = -1.0; a <= 1.0; a += 0.25) {
    for (double b = -1.0; b <= 1.0; b += 0.25) {
      xs.push_back({a, b});
      ys.push_back({2 * a - b});
    }
  }
  const Matrix inputs = Matrix::from_rows(xs);
  const Matrix targets = Matrix::from_rows(ys);
  const double before = net.evaluate_mse(inputs, targets);
  for (int epoch = 0; epoch < 1500; ++epoch) {
    net.train_batch(inputs, targets, 0.02, 0.9);
  }
  const double after = net.evaluate_mse(inputs, targets);
  EXPECT_LT(after, before / 20.0);
  EXPECT_LT(after, 0.01);
}

TEST(TrainerTest, ReducesLossAndReportsHistory) {
  Rng rng(7);
  Dataset train;
  std::vector<std::vector<double>> xs, ys;
  Rng data_rng(8);
  for (int i = 0; i < 64; ++i) {
    const double a = data_rng.uniform(-1, 1);
    const double b = data_rng.uniform(-1, 1);
    xs.push_back({a, b});
    ys.push_back({a * a + 0.5 * b});
  }
  train.features = Matrix::from_rows(xs);
  train.targets = Matrix::from_rows(ys);

  TrainerConfig config;
  config.max_epochs = 200;
  Mlp net(MlpConfig{{2, 10, 1}}, rng);
  const TrainingReport report =
      Trainer(config).fit(net, train, Dataset{}, rng);
  EXPECT_EQ(report.epochs_run, 200u);
  EXPECT_EQ(report.train_mse_history.size(), 200u);
  EXPECT_LT(report.final_train_mse, report.train_mse_history.front() / 10);
}

TEST(TrainerTest, EarlyStoppingTriggersWithPatience) {
  Rng rng(9);
  Dataset train, validation;
  // Pure-noise targets: validation cannot keep improving for long.
  std::vector<std::vector<double>> xs, ys, vx, vy;
  Rng data_rng(10);
  for (int i = 0; i < 32; ++i) {
    xs.push_back({data_rng.uniform(-1, 1)});
    ys.push_back({data_rng.uniform(-1, 1)});
    vx.push_back({data_rng.uniform(-1, 1)});
    vy.push_back({data_rng.uniform(-1, 1)});
  }
  train.features = Matrix::from_rows(xs);
  train.targets = Matrix::from_rows(ys);
  validation.features = Matrix::from_rows(vx);
  validation.targets = Matrix::from_rows(vy);

  TrainerConfig config;
  config.max_epochs = 2000;
  config.patience = 10;
  Mlp net(MlpConfig{{1, 6, 1}}, rng);
  const TrainingReport report =
      Trainer(config).fit(net, train, validation, rng);
  EXPECT_TRUE(report.early_stopped);
  EXPECT_LT(report.epochs_run, 2000u);
}

TEST(DatasetTest, SubsetSelectsRowsAndGroups) {
  Dataset data;
  data.features = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  data.targets = Matrix::from_rows({{10}, {20}, {30}});
  data.groups = {7, 8, 9};
  const Dataset sub = data.subset({2, 0, 2});
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub.features.at(0, 0), 5);
  EXPECT_DOUBLE_EQ(sub.targets.at(1, 0), 10);
  EXPECT_EQ(sub.groups, (std::vector<std::size_t>{9, 7, 9}));
}

TEST(DatasetTest, SplitFractionsPartitionExactly) {
  Dataset data;
  std::vector<std::vector<double>> xs, ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back({static_cast<double>(i)});
    ys.push_back({static_cast<double>(i)});
  }
  data.features = Matrix::from_rows(xs);
  data.targets = Matrix::from_rows(ys);
  Rng rng(11);
  const DataSplit split = split_dataset(data, 0.7, 0.15, rng);
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.validation.size(), 15u);
  EXPECT_EQ(split.test.size(), 15u);
  // Partition: every original value appears exactly once.
  std::multiset<double> seen;
  for (const Dataset* part :
       {&split.train, &split.validation, &split.test}) {
    for (std::size_t r = 0; r < part->size(); ++r) {
      seen.insert(part->features.at(r, 0));
    }
  }
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0.0);
  EXPECT_EQ(*seen.rbegin(), 99.0);
}

TEST(DatasetTest, StratifiedSplitRepresentsEveryGroupInTrain) {
  Dataset data;
  std::vector<std::vector<double>> xs, ys;
  std::vector<std::size_t> groups;
  for (std::size_t g = 0; g < 10; ++g) {
    for (int v = 0; v < 7; ++v) {
      xs.push_back({static_cast<double>(g * 100 + v)});
      ys.push_back({static_cast<double>(g)});
      groups.push_back(g);
    }
  }
  data.features = Matrix::from_rows(xs);
  data.targets = Matrix::from_rows(ys);
  data.groups = groups;
  Rng rng(12);
  const DataSplit split = split_dataset_stratified(data, 0.7, 0.15, rng);
  EXPECT_EQ(split.train.size() + split.validation.size() +
                split.test.size(),
            70u);
  std::set<std::size_t> train_groups(split.train.groups.begin(),
                                     split.train.groups.end());
  EXPECT_EQ(train_groups.size(), 10u)
      << "every group must contribute training rows";
  // Test partition should also be non-empty with 7 rows per group.
  EXPECT_GT(split.test.size(), 0u);
}

TEST(ScalerTest, StandardisesToZeroMeanUnitVariance) {
  Dataset data;
  data.features = Matrix::from_rows({{1, 100}, {2, 200}, {3, 300}});
  StandardScaler scaler;
  scaler.fit(data.features);
  const Matrix scaled = scaler.transform(data.features);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0;
    for (std::size_t r = 0; r < 3; ++r) mean += scaled.at(r, c);
    EXPECT_NEAR(mean / 3.0, 0.0, 1e-12);
  }
  EXPECT_NEAR(scaled.at(0, 0), scaled.at(0, 1), 1e-12)
      << "columns with the same shape scale identically";
}

TEST(ScalerTest, ConstantFeaturePassesThrough) {
  StandardScaler scaler;
  Matrix features = Matrix::from_rows({{5, 1}, {5, 2}, {5, 3}});
  scaler.fit(features);
  const Matrix scaled = scaler.transform(features);
  EXPECT_DOUBLE_EQ(scaled.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(scaled.at(2, 0), 0.0);
}

TEST(ScalerTest, TransformRowMatchesMatrixTransform) {
  StandardScaler scaler;
  Matrix features = Matrix::from_rows({{1, 10}, {3, 30}});
  scaler.fit(features);
  const auto row = scaler.transform_row(std::vector<double>{2, 20});
  EXPECT_NEAR(row[0], 0.0, 1e-12);
  EXPECT_NEAR(row[1], 0.0, 1e-12);
}

TEST(FeatureSelectionTest, RanksByCorrelationAndFiltersRedundancy) {
  // f0 = target (perfect), f1 = 2*f0 (redundant), f2 = noise, f3 = -target.
  Rng rng(13);
  std::vector<std::vector<double>> xs, ys;
  for (int i = 0; i < 50; ++i) {
    const double t = rng.uniform(-1, 1);
    xs.push_back({t, 2 * t, rng.uniform(-1, 1), -t + 0.4 * rng.normal()});
    ys.push_back({t});
  }
  Dataset data;
  data.features = Matrix::from_rows(xs);
  data.targets = Matrix::from_rows(ys);

  FeatureSelectionConfig config;
  config.max_features = 2;
  const SelectedFeatures selected = select_features(data, config);
  ASSERT_EQ(selected.indices.size(), 2u);
  EXPECT_EQ(selected.indices[0], 0u);
  // f1 is perfectly redundant with f0, so the second pick must be f3
  // (high relevance, not redundant).
  EXPECT_EQ(selected.indices[1], 3u);
}

TEST(FeatureSelectionTest, ProjectRoundTrips) {
  Dataset data;
  data.features = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  data.targets = Matrix::from_rows({{1}, {0}});
  SelectedFeatures selected;
  selected.indices = {2, 0};
  const Dataset projected = selected.project(data);
  EXPECT_EQ(projected.feature_count(), 2u);
  EXPECT_DOUBLE_EQ(projected.features.at(1, 0), 6);
  EXPECT_DOUBLE_EQ(projected.features.at(1, 1), 4);
  const auto row = selected.project_row(std::vector<double>{7, 8, 9});
  EXPECT_EQ(row, (std::vector<double>{9, 7}));
}

TEST(BaggingTest, EnsemblePredictionIsMeanOfMembers) {
  Rng rng(14);
  Dataset train;
  train.features = Matrix::from_rows({{0.0}, {0.5}, {1.0}, {-0.5}});
  train.targets = Matrix::from_rows({{0.0}, {1.0}, {2.0}, {-1.0}});
  BaggingConfig config;
  config.ensemble_size = 5;
  config.net.layer_sizes = {1, 4, 1};
  config.trainer.max_epochs = 50;
  const BaggedEnsemble ensemble(config, train, Dataset{}, rng);
  EXPECT_EQ(ensemble.size(), 5u);

  const std::vector<double> x{0.25};
  const auto members = ensemble.member_outputs(x);
  double mean = 0;
  for (double m : members) mean += m;
  mean /= static_cast<double>(members.size());
  EXPECT_NEAR(ensemble.predict_one(x)[0], mean, 1e-12);
}

TEST(BaggingTest, MembersDifferFromEachOther) {
  Rng rng(15);
  Dataset train;
  train.features = Matrix::from_rows({{0.0}, {1.0}, {2.0}, {3.0}});
  train.targets = Matrix::from_rows({{0.0}, {1.0}, {0.0}, {1.0}});
  BaggingConfig config;
  config.ensemble_size = 4;
  config.net.layer_sizes = {1, 3, 1};
  config.trainer.max_epochs = 20;
  const BaggedEnsemble ensemble(config, train, Dataset{}, rng);
  const auto outs = ensemble.member_outputs(std::vector<double>{0.5});
  std::set<double> distinct(outs.begin(), outs.end());
  EXPECT_GT(distinct.size(), 1u)
      << "random init + bootstrap must decorrelate members";
}

void hash_values(Fnv1a& hash, std::span<const double> values) {
  for (double v : values) hash.update_value(std::bit_cast<std::uint64_t>(v));
}

void hash_parameters(Fnv1a& hash, const Mlp& net) {
  for (const Matrix& w : net.weights()) hash_values(hash, w.flat());
  for (const Matrix& b : net.biases()) hash_values(hash, b.flat());
}

// Fixed synthetic regression rows: 10 features in [-1.5, 1.5], a
// quadratic target.
Dataset synthetic_rows(std::size_t rows, std::uint64_t seed) {
  std::vector<std::vector<double>> xs, ys;
  Rng data_rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> x(10);
    double y = 0.0;
    for (std::size_t f = 0; f < x.size(); ++f) {
      x[f] = data_rng.uniform(-1.5, 1.5);
      y += (f % 2 == 0 ? 0.3 : -0.2) * x[f] * x[f % 3];
    }
    xs.push_back(x);
    ys.push_back({y});
  }
  Dataset data;
  data.features = Matrix::from_rows(xs);
  data.targets = Matrix::from_rows(ys);
  return data;
}

// FNV-1a over the bit patterns of every member's weights and biases, then
// of the ensemble's predictions on the training rows.
std::uint64_t ensemble_digest(const BaggedEnsemble& ensemble,
                              const Matrix& inputs) {
  Fnv1a hash;
  for (std::size_t i = 0; i < ensemble.size(); ++i) {
    hash_parameters(hash, ensemble.member(i));
  }
  hash_values(hash, ensemble.predict(inputs).flat());
  return hash.digest();
}

// Training is pinned bit for bit: the paper topology on a fixed synthetic
// set whose 37 rows leave a short last batch (37 = 4 x 8 + 5). The digest
// was captured before the training kernel was made allocation-free; any
// change to the floating-point operations or their order moves it. Every
// member trains on its own stream, so the pool size must not matter.
TEST(BaggingTest, PinnedTrainingIsBitIdenticalAtEveryPoolSize) {
  constexpr std::uint64_t kPinnedDigest = 0x8a13e1a452618befull;
  const Dataset train = synthetic_rows(37, 16);
  ASSERT_NE(train.size() % TrainerConfig{}.batch_size, 0u);

  BaggingConfig config;
  config.ensemble_size = 6;
  config.net.layer_sizes = {10, 18, 5, 1};
  config.trainer.max_epochs = 300;
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool::set_global_threads(threads);
    Rng rng(17);
    const BaggedEnsemble ensemble(config, train, Dataset{}, rng);
    EXPECT_EQ(ensemble_digest(ensemble, train.features), kPinnedDigest)
        << "at " << threads << " pool threads: 0x" << std::hex
        << ensemble_digest(ensemble, train.features);
  }
  ThreadPool::set_global_threads(ThreadPool::default_threads());
}

// The early-stopping path pinned the same way: per-epoch validation MSEs
// and the restored best-validation weights.
TEST(TrainerTest, PinnedEarlyStoppingFitIsBitIdentical) {
  constexpr std::uint64_t kPinnedDigest = 0xa2d017e966f02a8dull;
  const Dataset train = synthetic_rows(29, 18);
  const Dataset validation = synthetic_rows(11, 19);
  TrainerConfig config;
  config.max_epochs = 400;
  config.patience = 25;
  Rng rng(20);
  Mlp net(MlpConfig{{10, 18, 5, 1}}, rng);
  const TrainingReport report =
      Trainer(config).fit(net, train, validation, rng);
  Fnv1a hash;
  hash.update_value(report.epochs_run);
  hash_values(hash, report.train_mse_history);
  hash_values(hash, report.validation_mse_history);
  hash_parameters(hash, net);
  EXPECT_EQ(hash.digest(), kPinnedDigest)
      << "0x" << std::hex << hash.digest() << std::dec << " after "
      << report.epochs_run << " epochs";
}

TEST(MetricsTest, RegressionMetrics) {
  const Matrix pred = Matrix::from_rows({{1.0}, {2.0}, {3.0}});
  const Matrix target = Matrix::from_rows({{1.5}, {2.0}, {2.5}});
  EXPECT_NEAR(mean_squared_error(pred, target), (0.25 + 0 + 0.25) / 3,
              1e-12);
  EXPECT_NEAR(mean_absolute_error(pred, target), (0.5 + 0 + 0.5) / 3,
              1e-12);
  EXPECT_DOUBLE_EQ(r_squared(target, target), 1.0);
  EXPECT_LT(r_squared(pred, target), 1.0);
}

TEST(MetricsTest, SnappingToClasses) {
  const std::vector<double> classes{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(snap_to_class(1.4, classes), 1.0);
  EXPECT_DOUBLE_EQ(snap_to_class(1.6, classes), 2.0);
  EXPECT_DOUBLE_EQ(snap_to_class(99.0, classes), 3.0);
  EXPECT_DOUBLE_EQ(snap_to_class(-5.0, classes), 1.0);

  const Matrix pred = Matrix::from_rows({{1.2}, {2.4}, {2.9}});
  const Matrix target = Matrix::from_rows({{1.0}, {3.0}, {3.0}});
  EXPECT_NEAR(snapped_accuracy(pred, target, classes), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace hetsched

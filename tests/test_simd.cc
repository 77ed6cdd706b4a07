// Runtime SIMD dispatch (src/common/simd.*): the dispatcher must expose
// every lane the host can run, and every lane must be *unobservable* in
// results — forest/GBDT training, flat float and binned inference, gemm,
// binning and histogram fills are pinned bit-identical to the scalar
// reference lane via FNV-1a hashes and bitwise compares, at 1/2/4 threads.
// The near-buffer-end partition cases double as the overread guard's ASan
// exercise (check.sh's asan leg runs this binary).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "ml/decision_tree.h"
#include "ml/flat_ensemble.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"

namespace memfp::simd {
namespace {

using memfp::ml::BinnedDataset;
using memfp::ml::Dataset;
using memfp::ml::FlatEnsemble;
using memfp::ml::Gbdt;
using memfp::ml::GbdtParams;
using memfp::ml::Matrix;
using memfp::ml::RandomForest;
using memfp::ml::RandomForestParams;
using memfp::ml::Tree;
using memfp::ml::TreeNode;

std::uint64_t fnv1a64_u64(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_scores(const std::vector<double>& scores) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double s : scores) h = fnv1a64_u64(h, std::bit_cast<std::uint64_t>(s));
  return h;
}

Dataset make_data(std::size_t rows, std::uint64_t seed) {
  memfp::Rng rng(seed);
  Dataset d;
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<float> row(16);
    for (float& v : row) v = static_cast<float>(rng.normal());
    row[5] = static_cast<float>(rng.uniform_u64(4));
    const bool positive = rng.bernoulli(0.3);
    if (positive) {
      row[2] += 1.5f;
      row[7] -= 2.0f;
    }
    d.y.push_back(positive ? 1 : 0);
    d.x.push_row(row);
    d.weight.push_back(i % 5 == 0 ? 2.5f : 1.0f);
    d.dimm.push_back(static_cast<memfp::dram::DimmId>(i));
    d.time.push_back(0);
  }
  d.categorical.push_back(5);
  return d;
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ScalarLaneAlwaysAvailable) {
  const std::vector<Level> levels = supported_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), Level::kScalar);
  const KernelTable* scalar = table_for(Level::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->level, Level::kScalar);
}

TEST(SimdDispatch, EverySupportedLaneReportsItsOwnLevel) {
  for (Level level : supported_levels()) {
    const KernelTable* table = table_for(level);
    ASSERT_NE(table, nullptr) << level_name(level);
    EXPECT_EQ(table->level, level);
    // The non-nullable entries must all be populated.
    EXPECT_NE(table->hist_rowmajor, nullptr) << level_name(level);
    EXPECT_NE(table->hist_column, nullptr) << level_name(level);
    EXPECT_NE(table->hist_subtract, nullptr) << level_name(level);
    EXPECT_NE(table->pair_sum, nullptr) << level_name(level);
    EXPECT_NE(table->gini_gain_scan, nullptr) << level_name(level);
    EXPECT_NE(table->bin_transform, nullptr) << level_name(level);
    EXPECT_NE(table->gemm, nullptr) << level_name(level);
    EXPECT_NE(table->gemm_at, nullptr) << level_name(level);
    EXPECT_NE(table->gemm_bt, nullptr) << level_name(level);
  }
}

TEST(SimdDispatch, LevelNamesRoundTripThroughParse) {
  for (Level level : {Level::kScalar, Level::kAvx2, Level::kAvx512,
                      Level::kNeon}) {
    Level parsed = Level::kScalar;
    ASSERT_TRUE(parse_level(level_name(level), &parsed)) << level_name(level);
    EXPECT_EQ(parsed, level);
  }
  Level out = Level::kScalar;
  EXPECT_FALSE(parse_level("sse9", &out));
  EXPECT_FALSE(parse_level("", &out));
}

TEST(SimdDispatch, ScopedLevelSwapsAndRestores) {
  const Level before = active_level();
  {
    ScopedLevel outer(Level::kScalar);
    EXPECT_EQ(active_level(), Level::kScalar);
    EXPECT_EQ(kernels().level, Level::kScalar);
    for (Level level : supported_levels()) {
      ScopedLevel inner(level);
      EXPECT_EQ(active_level(), level);
    }
    EXPECT_EQ(active_level(), Level::kScalar);
  }
  EXPECT_EQ(active_level(), before);
}

TEST(SimdDispatch, CpuFeaturesIsStable) {
  // Exact content is host-specific; it must at least be consistent between
  // calls (bench context blocks record it).
  EXPECT_EQ(cpu_features(), cpu_features());
}

// ---------------------------------------------------------------------------
// Cross-level golden equality: training and inference
// ---------------------------------------------------------------------------

TEST(SimdGolden, ForestFitAndPredictIdenticalOnEveryLane) {
  const Dataset train = make_data(700, 21);
  const Dataset test = make_data(300, 22);

  std::string golden_model;
  std::uint64_t golden_scores = 0;
  {
    ScopedLevel scalar(Level::kScalar);
    RandomForestParams params;
    params.trees = 8;
    RandomForest model(params);
    memfp::Rng rng(5);
    model.fit(train, rng);
    golden_model = model.to_json().dump();
    golden_scores = hash_scores(model.predict_batch(test.x));
  }

  for (Level level : supported_levels()) {
    ScopedLevel active(level);
    for (int threads : {1, 2, 4}) {
      memfp::ThreadPool::ScopedLimit cap(threads);
      RandomForestParams params;
      params.trees = 8;
      RandomForest model(params);
      memfp::Rng rng(5);
      model.fit(train, rng);
      EXPECT_EQ(model.to_json().dump(), golden_model)
          << level_name(level) << " at " << threads << " threads";
      EXPECT_EQ(hash_scores(model.predict_batch(test.x)), golden_scores)
          << level_name(level) << " at " << threads << " threads";
    }
  }
}

TEST(SimdGolden, GbdtFitAndPredictIdenticalOnEveryLane) {
  const Dataset train = make_data(500, 31);
  const Dataset test = make_data(200, 32);

  std::string golden_model;
  std::uint64_t golden_scores = 0;
  {
    ScopedLevel scalar(Level::kScalar);
    GbdtParams params;
    params.max_rounds = 8;
    Gbdt model(params);
    memfp::Rng rng(7);
    model.fit(train, rng);
    golden_model = model.to_json().dump();
    golden_scores = hash_scores(model.predict_batch(test.x));
  }

  for (Level level : supported_levels()) {
    ScopedLevel active(level);
    for (int threads : {1, 2, 4}) {
      memfp::ThreadPool::ScopedLimit cap(threads);
      GbdtParams params;
      params.max_rounds = 8;
      Gbdt model(params);
      memfp::Rng rng(7);
      model.fit(train, rng);
      EXPECT_EQ(model.to_json().dump(), golden_model)
          << level_name(level) << " at " << threads << " threads";
      EXPECT_EQ(hash_scores(model.predict_batch(test.x)), golden_scores)
          << level_name(level) << " at " << threads << " threads";
    }
  }
}

TEST(SimdGolden, BinnedInferenceIdenticalOnEveryLane) {
  const Dataset train = make_data(600, 41);
  RandomForestParams params;
  params.trees = 8;
  RandomForest model(params);
  memfp::Rng rng(9);
  model.fit(train, rng);

  // Bind against the training mapper and score the training codes: exact
  // by the bind() quantization rule, so every lane must agree bitwise.
  const BinnedDataset binned = BinnedDataset::build(train);
  FlatEnsemble flat = FlatEnsemble::build(model.trees(), 1.0);
  ASSERT_TRUE(flat.bind(binned.mapper));

  std::vector<double> golden(train.size());
  {
    ScopedLevel scalar(Level::kScalar);
    flat.predict_binned(binned.codes.data(), binned.rows, 0.0, golden);
  }
  for (Level level : supported_levels()) {
    ScopedLevel active(level);
    for (int threads : {1, 2, 4}) {
      memfp::ThreadPool::ScopedLimit cap(threads);
      std::vector<double> scores(train.size());
      flat.predict_binned(binned.codes.data(), binned.rows, 0.0, scores);
      EXPECT_EQ(hash_scores(scores), hash_scores(golden))
          << level_name(level) << " at " << threads << " threads";
    }
  }
}

TEST(SimdGolden, GemmKernelsIdenticalOnEveryLane) {
  memfp::Rng rng(55);
  const std::size_t m = 17, k = 23, n = 29;  // deliberately off-width
  std::vector<float> a(m * k), b(k * n), bt(n * k);
  for (float& v : a) v = static_cast<float>(rng.normal());
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto v = static_cast<float>(rng.normal());
      b[p * n + j] = v;
      bt[j * k + p] = v;
    }
  }
  std::vector<float> at(k * m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
  }

  const KernelTable* scalar = table_for(Level::kScalar);
  std::vector<float> ref_ab(m * n, 0.125f), ref_atb(m * n, 0.125f),
      ref_abt(m * n, 0.125f);
  scalar->gemm(a.data(), b.data(), ref_ab.data(), m, k, n);
  scalar->gemm_at(at.data(), b.data(), ref_atb.data(), m, k, n);
  scalar->gemm_bt(a.data(), bt.data(), ref_abt.data(), m, k, n);

  for (Level level : supported_levels()) {
    const KernelTable* table = table_for(level);
    std::vector<float> ab(m * n, 0.125f), atb(m * n, 0.125f),
        abt(m * n, 0.125f);
    table->gemm(a.data(), b.data(), ab.data(), m, k, n);
    table->gemm_at(at.data(), b.data(), atb.data(), m, k, n);
    table->gemm_bt(a.data(), bt.data(), abt.data(), m, k, n);
    EXPECT_EQ(std::memcmp(ab.data(), ref_ab.data(), 4 * m * n), 0)
        << level_name(level);
    EXPECT_EQ(std::memcmp(atb.data(), ref_atb.data(), 4 * m * n), 0)
        << level_name(level);
    EXPECT_EQ(std::memcmp(abt.data(), ref_abt.data(), 4 * m * n), 0)
        << level_name(level);
  }
}

// ---------------------------------------------------------------------------
// Kernel contracts at the edges
// ---------------------------------------------------------------------------

TEST(SimdKernels, PartitionMatchesScalarAtBufferEnd) {
  // Rows deliberately concentrated at the top of the codes buffer and NOT
  // ascending: a gathering lane must detect that a step's 4-byte loads
  // would cross the end (guard) and classify those rows in place instead.
  // Under ASan this is the overread regression test.
  const std::size_t rows = 1000;
  std::vector<std::uint8_t> codes(rows);
  memfp::Rng rng(3);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.uniform_u64(48));

  std::vector<std::uint32_t> order;
  for (std::size_t r = rows; r-- > 0;) {
    order.push_back(static_cast<std::uint32_t>(r));  // descending
  }
  for (std::size_t r = rows - 40; r < rows; ++r) {
    order.push_back(static_cast<std::uint32_t>(r));  // tail duplicates
  }

  const KernelTable* scalar = table_for(Level::kScalar);
  for (Level level : supported_levels()) {
    const KernelTable* table = table_for(level);
    if (table->partition == nullptr) continue;
    for (std::uint8_t bin : {std::uint8_t{0}, std::uint8_t{20},
                             std::uint8_t{47}}) {
      std::vector<std::uint32_t> expect = order, got = order;
      std::vector<std::uint32_t> scratch(order.size());
      const std::size_t mid_ref =
          scalar->partition(expect.data(), expect.size(), codes.data(), bin,
                            scratch.data(), codes.size());
      const std::size_t mid =
          table->partition(got.data(), got.size(), codes.data(), bin,
                           scratch.data(), codes.size());
      EXPECT_EQ(mid, mid_ref) << level_name(level) << " bin " << int(bin);
      EXPECT_EQ(got, expect) << level_name(level) << " bin " << int(bin);
    }
  }
}

TEST(SimdKernels, BinTransformHandlesNanAndInfinity) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> thresholds = {-1.0f, 0.0f, 1.0f, 2.5f};
  std::vector<float> column = {nan,  -inf, inf,   -2.0f, -1.0f, -0.5f,
                               0.0f, 1.0f, 2.5f,  3.0f,  nan,   1.5f,
                               inf,  0.5f, -3.0f, 2.5f,  0.25f};
  while (column.size() < 70) column.push_back(column[column.size() % 17]);

  const KernelTable* scalar = table_for(Level::kScalar);
  std::vector<std::uint8_t> ref(column.size());
  scalar->bin_transform(column.data(), column.size(), thresholds.data(),
                        static_cast<int>(thresholds.size()), ref.data());
  // The scalar lane is lower_bound: NaN compares false against every
  // threshold, so it lands in bin 0 like -inf.
  EXPECT_EQ(static_cast<int>(ref[0]), 0);
  EXPECT_EQ(static_cast<int>(ref[1]), 0);
  EXPECT_EQ(static_cast<int>(ref[2]), static_cast<int>(thresholds.size()));

  for (Level level : supported_levels()) {
    const KernelTable* table = table_for(level);
    std::vector<std::uint8_t> got(column.size());
    table->bin_transform(column.data(), column.size(), thresholds.data(),
                         static_cast<int>(thresholds.size()), got.data());
    EXPECT_EQ(got, ref) << level_name(level);
  }
}

TEST(SimdKernels, GainScanHonorsPaddedContractOnEveryLane) {
  // count deliberately not a multiple of kGainScanPad; arrays padded with
  // zeros as the contract requires. All lanes must agree bitwise on the
  // first `count` gains (pad slots are unspecified).
  const int count = 43;
  const int padded = (count + kGainScanPad - 1) & ~(kGainScanPad - 1);
  std::vector<double> left_total(padded, 0.0), left_pos(padded, 0.0);
  memfp::Rng rng(17);
  double lt = 0.0, lp = 0.0;
  for (int b = 0; b < count; ++b) {
    const double w = 1.0 + rng.uniform() * 50.0;
    lt += w;
    lp += w * rng.uniform();
    left_total[b] = lt;
    left_pos[b] = lp;
  }
  const double total = lt + 25.0, pos = lp + 10.0;
  const double parent = 2.0 * (pos / total) * (1.0 - pos / total) * total;

  const KernelTable* scalar = table_for(Level::kScalar);
  std::vector<double> ref(padded, 0.0);
  scalar->gini_gain_scan(left_total.data(), left_pos.data(), count, total,
                         pos, parent, 8.0, ref.data());

  for (Level level : supported_levels()) {
    const KernelTable* table = table_for(level);
    std::vector<double> got(padded, 0.0);
    table->gini_gain_scan(left_total.data(), left_pos.data(), count, total,
                          pos, parent, 8.0, got.data());
    for (int b = 0; b < count; ++b) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[b]),
                std::bit_cast<std::uint64_t>(ref[b]))
          << level_name(level) << " bin " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Flat-ensemble pack failure: the SIMD block kernels need 16-bit left-child
// deltas; a wide-enough tree level overflows them and the scorer must fall
// back to the scalar block loop with identical results.
// ---------------------------------------------------------------------------

/// Perfect binary tree of the given depth over feature 0: the level-order
/// flat layout puts >65535 nodes between a deep level's first parent and
/// its children, overflowing the packed delta on purpose.
Tree perfect_tree(int depth) {
  Tree tree;
  auto& nodes = tree.mutable_nodes();
  nodes.resize((std::size_t{2} << depth) - 1);  // pre-sized: indices stable
  struct Todo {
    int index;
    int level;
    float lo, hi;
  };
  int next = 1;
  std::vector<Todo> stack = {{0, 0, -4.0f, 4.0f}};
  while (!stack.empty()) {
    const Todo todo = stack.back();
    stack.pop_back();
    TreeNode& node = nodes[static_cast<std::size_t>(todo.index)];
    if (todo.level == depth) {
      node.feature = -1;
      node.value = static_cast<double>(todo.lo);
      continue;
    }
    const float mid = 0.5f * (todo.lo + todo.hi);
    node.feature = 0;
    node.threshold = mid;
    node.left = next;
    node.right = next + 1;
    next += 2;
    stack.push_back({node.left, todo.level + 1, todo.lo, mid});
    stack.push_back({node.right, todo.level + 1, mid, todo.hi});
  }
  return tree;
}

TEST(SimdFlatEnsemble, PackOverflowFallsBackIdentically) {
  // Depth 17 => a level of 2^16 internal nodes => left-child deltas beyond
  // 0xFFFF. (The packed kernels cap at depth ~16 trees; real forests stay
  // far below this.)
  std::vector<Tree> trees;
  trees.push_back(perfect_tree(17));
  const FlatEnsemble flat = FlatEnsemble::build(trees, 1.0);

  memfp::Rng rng(77);
  Matrix x;
  for (int r = 0; r < 80; ++r) {
    std::vector<float> row(3);
    for (float& v : row) v = static_cast<float>(rng.normal() * 2.0);
    x.push_row(row);
  }

  std::vector<double> walker;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    walker.push_back(trees[0].predict(x.row(r)));
  }
  for (Level level : supported_levels()) {
    ScopedLevel active(level);
    std::vector<double> scores(x.rows());
    flat.predict(x, 0.0, scores);
    EXPECT_EQ(hash_scores(scores), hash_scores(walker)) << level_name(level);
  }
}

}  // namespace
}  // namespace memfp::simd

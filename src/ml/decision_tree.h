// Histogram-based decision trees.
//
// One tree structure serves two trainers:
//  - ClassificationTreeTrainer: weighted-gini CART used by the random
//    forest (depth-wise growth, per-split feature subsampling).
//  - GradientTreeTrainer: second-order gradient trees used by the GBDT
//    (leaf-wise, best-gain-first growth, as LightGBM grows its trees).
//
// Both search splits over pre-binned uint8 feature codes, so a split scan
// is O(rows + bins) per feature. Training is built around three coupled
// layout optimizations (see DESIGN.md "Binned training memory layout"):
//  - feature-major bin codes: one contiguous uint8 column per feature, so a
//    histogram build streams sequentially instead of striding rows x cols;
//  - histogram subtraction: a split builds the histogram of the smaller
//    child only and derives the sibling as parent - child, roughly halving
//    histogram work (the signature LightGBM trick);
//  - in-place row partitioning: a node is a contiguous [begin, end) slice
//    of one reusable index arena, stable-partitioned at each split, so deep
//    trees allocate no per-node row vectors.
// Inference walks raw float thresholds, so a fitted tree needs no bin
// mapper.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "ml/binning.h"
#include "ml/dataset.h"

namespace memfp::ml {

/// Pre-binned view of a dataset shared by all trees in an ensemble.
///
/// Codes are feature-major (one contiguous uint8 column per feature) and
/// the (weight, weight-if-positive) pair of every row is pre-bundled into a
/// row-indexed SoA so the per-row gather of the classification trainer
/// touches a single cache line per row.
struct BinnedDataset {
  const Dataset* dataset = nullptr;
  BinMapper mapper;
  std::vector<std::uint8_t> codes;  // cols x rows, feature-major
  /// The same codes row-major (rows x cols): the classification trainer's
  /// all-feature histogram build reads every feature of a row, so row-major
  /// turns its gather into one sequential uint8 run per row.
  std::vector<std::uint8_t> row_codes;
  std::size_t rows = 0;
  /// Prefix sum of mapper.bins(f): feature f's histogram slice covers bins
  /// [bin_offset[f], bin_offset[f + 1]) of a pooled node histogram.
  std::vector<std::uint32_t> bin_offset;
  /// Interleaved {weight, weight if y == 1 else 0} per row (2 * rows).
  std::vector<double> weight_pairs;

  static BinnedDataset build(const Dataset& dataset, int max_bins = 48);
  const std::uint8_t* feature_codes(std::size_t feature) const {
    return codes.data() + feature * rows;
  }
  std::uint8_t code(std::size_t row, std::size_t feature) const {
    return codes[feature * rows + row];
  }
  std::uint32_t total_bins() const { return bin_offset.back(); }
};

struct TreeNode {
  int feature = -1;  ///< -1 marks a leaf
  float threshold = 0.0f;
  int left = -1;
  int right = -1;
  double value = 0.0;  ///< leaf output
};

class Tree {
 public:
  double predict(std::span<const float> features) const;
  const std::vector<TreeNode>& nodes() const { return nodes_; }
  std::vector<TreeNode>& mutable_nodes() { return nodes_; }
  std::size_t leaves() const;

  Json to_json() const;
  /// Throws std::runtime_error naming tree `index` (its position in the
  /// ensemble) and the node when a child index does not point past its
  /// parent and inside the tree.
  static Tree from_json(const Json& json, std::size_t index = 0);

 private:
  std::vector<TreeNode> nodes_;
};

struct ClassificationTreeParams {
  int max_depth = 12;
  double min_samples_leaf = 8.0;  ///< by total weight
  double feature_fraction = 0.6;  ///< per split
};

/// Fits a weighted-gini CART; leaf value = weighted positive fraction.
/// `rows` selects the (bootstrap) subset to train on.
Tree fit_classification_tree(const BinnedDataset& data,
                             std::span<const std::size_t> rows,
                             const ClassificationTreeParams& params, Rng& rng);

struct GradientTreeParams {
  int max_leaves = 31;
  int max_depth = 12;
  double min_child_hessian = 2.0;
  double lambda = 1.0;            ///< L2 regularization on leaf values
  double feature_fraction = 0.8;  ///< per tree
};

/// Fits a second-order gradient tree on (grad, hess); leaf value =
/// -G / (H + lambda). `rows` selects the (subsampled) training rows.
Tree fit_gradient_tree(const BinnedDataset& data,
                       std::span<const std::size_t> rows,
                       std::span<const double> grad,
                       std::span<const double> hess,
                       const GradientTreeParams& params, Rng& rng);

}  // namespace memfp::ml

#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "ml/metrics.h"

namespace memfp::ml {
namespace {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

Gbdt::Gbdt(GbdtParams params) : params_(params) {}

void Gbdt::fit(const Dataset& train, Rng& rng) {
  MEMFP_CHECK_GT(train.size(), std::size_t{0})
      << "cannot fit a GBDT on an empty dataset";
  MEMFP_CHECK_EQ(train.y.size(), train.size());
  MEMFP_CHECK_EQ(train.weight.size(), train.size());
  trees_.clear();
  flat_.invalidate();

  // Hold out a validation fold (by row; the caller already split by DIMM,
  // this fold only drives early stopping).
  std::vector<std::size_t> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  const std::size_t val_count =
      params_.early_stopping_rounds > 0
          ? static_cast<std::size_t>(static_cast<double>(train.size()) *
                                     params_.validation_fraction)
          : 0;
  std::vector<std::size_t> val_rows(order.begin(),
                                    order.begin() + static_cast<std::ptrdiff_t>(
                                                        val_count));
  std::vector<std::size_t> fit_rows(order.begin() + static_cast<std::ptrdiff_t>(
                                                        val_count),
                                    order.end());

  // Base score: weighted log-odds of the positive class.
  double pos = 0.0, total = 0.0;
  for (std::size_t r : fit_rows) {
    total += train.weight[r];
    if (train.y[r] == 1) pos += train.weight[r];
  }
  const double prior = std::clamp(total > 0.0 ? pos / total : 0.5, 1e-6,
                                  1.0 - 1e-6);
  base_score_ = std::log(prior / (1.0 - prior));

  const BinnedDataset binned = BinnedDataset::build(train);
  std::vector<double> score(train.size(), base_score_);
  std::vector<double> grad(train.size()), hess(train.size());

  double best_val_loss = 1e30;
  int rounds_since_best = 0;
  std::size_t best_tree_count = 0;

  // Per-round buffers, hoisted so the boosting loop reuses their capacity.
  std::vector<std::size_t> rows;
  rows.reserve(fit_rows.size());
  std::vector<double> val_scores;
  std::vector<int> val_labels;
  val_scores.reserve(val_rows.size());
  val_labels.reserve(val_rows.size());

  ThreadPool& pool = ThreadPool::global();
  for (int round = 0; round < params_.max_rounds; ++round) {
    // Logistic-loss gradients, sample-weighted. Elementwise: each row writes
    // its own slot, so the parallel result is exact.
    pool.parallel_for(train.size(), [&](std::size_t r) {
      const double p = sigmoid(score[r]);
      const double w = train.weight[r];
      grad[r] = w * (p - (train.y[r] == 1 ? 1.0 : 0.0));
      hess[r] = w * std::max(p * (1.0 - p), 1e-6);
    });

    rows.clear();
    for (std::size_t r : fit_rows) {
      if (params_.subsample >= 1.0 || rng.bernoulli(params_.subsample)) {
        rows.push_back(r);
      }
    }
    if (rows.empty()) break;

    Tree tree = fit_gradient_tree(binned, rows, grad, hess, params_.tree, rng);
    if (tree.leaves() <= 1) break;  // no useful split left

    // Per-round rescoring: fold only the new tree's contribution into the
    // running scores, over the binned training codes — the tree's
    // thresholds come from binned.mapper, so the uint8 comparison reaches
    // the identical leaf as the float walk (no re-quantization drift), and
    // shrinkage is baked into the flat leaf values, so each score gains the
    // identical `learning_rate * leaf` double the old per-row walk added.
    FlatEnsemble round_flat = FlatEnsemble::build({&tree, 1},
                                                  params_.learning_rate);
    if (round_flat.bind(binned.mapper)) {
      round_flat.accumulate_binned(binned.codes.data(), binned.rows, score);
    } else {
      // Unreachable for a tree trained on `binned`; kept as the documented
      // float fallback of the binned fast path.
      round_flat.accumulate(train.x, score);
    }
    trees_.push_back(std::move(tree));

    if (val_count > 0) {
      val_scores.clear();
      val_labels.clear();
      for (std::size_t r : val_rows) {
        val_scores.push_back(sigmoid(score[r]));
        val_labels.push_back(train.y[r]);
      }
      const double loss = log_loss(val_scores, val_labels);
      if (loss < best_val_loss - 1e-6) {
        best_val_loss = loss;
        rounds_since_best = 0;
        best_tree_count = trees_.size();
      } else if (++rounds_since_best >= params_.early_stopping_rounds) {
        trees_.resize(best_tree_count);
        break;
      }
    }
  }
  MEMFP_DEBUG << "gbdt: fitted " << trees_.size() << " trees";
}

double Gbdt::raw_score(std::span<const float> features) const {
  // Flat single-row traversal; the pre-scaled leaf values accumulate onto
  // the prior in tree order, bit-identical to the pointer walker's
  // `base + lr * leaf_0 + lr * leaf_1 + ...`.
  if (trees_.empty()) return base_score_;
  return flat_.get(trees_, params_.learning_rate)
      ->predict_row(features, base_score_);
}

double Gbdt::predict(std::span<const float> features) const {
  return sigmoid(raw_score(features));
}

std::vector<double> Gbdt::predict_batch(const Matrix& x) const {
  std::vector<double> scores(x.rows(), sigmoid(base_score_));
  if (trees_.empty() || x.rows() == 0) return scores;
  flat_.get(trees_, params_.learning_rate)->predict(x, base_score_, scores);
  for (double& score : scores) score = sigmoid(score);
  return scores;
}

Json Gbdt::to_json() const {
  Json trees = Json::array();
  for (const Tree& tree : trees_) trees.push_back(tree.to_json());
  Json out = Json::object();
  out.set("type", "gbdt");
  out.set("base_score", base_score_);
  out.set("learning_rate", params_.learning_rate);
  out.set("trees", std::move(trees));
  return out;
}

Gbdt Gbdt::from_json(const Json& json) {
  Gbdt model;
  model.base_score_ = json.at("base_score").as_number();
  model.params_.learning_rate = json.at("learning_rate").as_number();
  for (const Json& tree : json.at("trees").as_array()) {
    model.trees_.push_back(Tree::from_json(tree, model.trees_.size()));
  }
  model.flat_.invalidate();  // recompile lazily against the loaded trees
  return model;
}

std::vector<double> Gbdt::feature_split_counts(std::size_t features) const {
  std::vector<double> counts(features, 0.0);
  for (const Tree& tree : trees_) {
    for (const TreeNode& node : tree.nodes()) {
      if (node.feature >= 0 &&
          static_cast<std::size_t>(node.feature) < features) {
        counts[static_cast<std::size_t>(node.feature)] += 1.0;
      }
    }
  }
  return counts;
}

}  // namespace memfp::ml

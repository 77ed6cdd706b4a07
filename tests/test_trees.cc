#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "ml/serialize.h"

namespace memfp::ml {
namespace {

/// y = 1 iff x0 > 0.5 (plus an irrelevant second feature).
Dataset threshold_dataset(std::size_t n, Rng& rng) {
  Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    const float x0 = static_cast<float>(rng.uniform());
    const float x1 = static_cast<float>(rng.uniform());
    d.x.push_row(std::vector<float>{x0, x1});
    d.y.push_back(x0 > 0.5f ? 1 : 0);
    d.weight.push_back(1.0f);
    d.dimm.push_back(static_cast<dram::DimmId>(i));
    d.time.push_back(0);
  }
  return d;
}

std::vector<std::size_t> all_rows(const Dataset& d) {
  std::vector<std::size_t> rows(d.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return rows;
}

TEST(ClassificationTree, LearnsAxisAlignedSplit) {
  Rng rng(1);
  const Dataset d = threshold_dataset(500, rng);
  const BinnedDataset binned = BinnedDataset::build(d);
  ClassificationTreeParams params;
  params.feature_fraction = 1.0;
  const Tree tree = fit_classification_tree(binned, all_rows(d), params, rng);
  int correct = 0;
  for (std::size_t r = 0; r < d.size(); ++r) {
    const double p = tree.predict(d.x.row(r));
    correct += (p > 0.5) == (d.y[r] == 1);
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(d.size()), 0.97);
}

TEST(ClassificationTree, PureNodeIsLeaf) {
  Rng rng(2);
  Dataset d;
  for (int i = 0; i < 20; ++i) {
    d.x.push_row(std::vector<float>{static_cast<float>(i)});
    d.y.push_back(1);  // all positive
    d.weight.push_back(1.0f);
    d.dimm.push_back(0);
    d.time.push_back(0);
  }
  const BinnedDataset binned = BinnedDataset::build(d);
  const Tree tree =
      fit_classification_tree(binned, all_rows(d), {}, rng);
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(d.x.row(0)), 1.0);
}

TEST(ClassificationTree, RespectsMaxDepth) {
  Rng rng(3);
  const Dataset d = threshold_dataset(500, rng);
  const BinnedDataset binned = BinnedDataset::build(d);
  ClassificationTreeParams params;
  params.max_depth = 1;
  params.feature_fraction = 1.0;
  const Tree tree = fit_classification_tree(binned, all_rows(d), params, rng);
  // Depth-1 tree: at most 3 nodes.
  EXPECT_LE(tree.nodes().size(), 3u);
}

TEST(ClassificationTree, WeightsShiftLeafValues) {
  Rng rng(4);
  Dataset d;
  for (int i = 0; i < 100; ++i) {
    d.x.push_row(std::vector<float>{0.0f});
    d.y.push_back(i < 50 ? 1 : 0);
    d.weight.push_back(i < 50 ? 3.0f : 1.0f);
    d.dimm.push_back(0);
    d.time.push_back(0);
  }
  const BinnedDataset binned = BinnedDataset::build(d);
  const Tree tree = fit_classification_tree(binned, all_rows(d), {}, rng);
  EXPECT_NEAR(tree.predict(d.x.row(0)), 0.75, 1e-9);
}

TEST(GradientTree, FitsResiduals) {
  Rng rng(5);
  const Dataset d = threshold_dataset(500, rng);
  const BinnedDataset binned = BinnedDataset::build(d);
  // Gradients of squared loss from a zero prediction: grad = -y, hess = 1.
  std::vector<double> grad(d.size()), hess(d.size(), 1.0);
  for (std::size_t r = 0; r < d.size(); ++r) grad[r] = -(d.y[r] == 1 ? 1.0 : 0.0);
  GradientTreeParams params;
  params.feature_fraction = 1.0;
  const Tree tree =
      fit_gradient_tree(binned, all_rows(d), grad, hess, params, rng);
  // Leaf values approximate the class mean in each region.
  double pos_pred = 0.0;
  int pos_count = 0;
  for (std::size_t r = 0; r < d.size(); ++r) {
    if (d.y[r] == 1) {
      pos_pred += tree.predict(d.x.row(r));
      ++pos_count;
    }
  }
  EXPECT_GT(pos_pred / pos_count, 0.8);
}

TEST(GradientTree, RespectsMaxLeaves) {
  Rng rng(6);
  const Dataset d = threshold_dataset(1000, rng);
  const BinnedDataset binned = BinnedDataset::build(d);
  std::vector<double> grad(d.size()), hess(d.size(), 1.0);
  for (std::size_t r = 0; r < d.size(); ++r) {
    grad[r] = static_cast<double>(r % 7) - 3.0;  // noisy gradients
  }
  GradientTreeParams params;
  params.max_leaves = 4;
  const Tree tree =
      fit_gradient_tree(binned, all_rows(d), grad, hess, params, rng);
  EXPECT_LE(tree.leaves(), 4u);
}

TEST(GradientTree, MinHessianStopsSplitting) {
  Rng rng(7);
  const Dataset d = threshold_dataset(50, rng);
  const BinnedDataset binned = BinnedDataset::build(d);
  std::vector<double> grad(d.size(), -1.0), hess(d.size(), 0.001);
  GradientTreeParams params;
  params.min_child_hessian = 10.0;  // unreachable with tiny hessians
  const Tree tree =
      fit_gradient_tree(binned, all_rows(d), grad, hess, params, rng);
  EXPECT_EQ(tree.leaves(), 1u);
}

TEST(Tree, JsonRoundTripPreservesPredictions) {
  Rng rng(8);
  const Dataset d = threshold_dataset(300, rng);
  const BinnedDataset binned = BinnedDataset::build(d);
  ClassificationTreeParams params;
  params.feature_fraction = 1.0;
  const Tree tree = fit_classification_tree(binned, all_rows(d), params, rng);
  const Tree restored = Tree::from_json(Json::parse(tree.to_json().dump()));
  for (std::size_t r = 0; r < d.size(); ++r) {
    EXPECT_DOUBLE_EQ(tree.predict(d.x.row(r)), restored.predict(d.x.row(r)));
  }
}

/// A two-tree GBDT artifact whose second tree splits its root on feature
/// `feature` into nodes `left` and `right` (nodes 1 and 2 are leaves). The
/// three fields are spliced in as raw JSON number text.
Json gbdt_artifact(const std::string& left, const std::string& right,
                   const std::string& feature = "0") {
  const std::string leaf = R"({"f":-1,"t":0,"l":-1,"r":-1,"v":0.25})";
  return Json::parse(
      R"({"type":"gbdt","base_score":0,"learning_rate":0.1,"trees":[)"
      R"({"nodes":[)" + leaf + R"(]},{"nodes":[{"f":)" + feature +
      R"(,"t":0.5,"l":)" + left + R"(,"r":)" + right + R"(,"v":0},)" + leaf +
      "," + leaf + "]}]}");
}

Json gbdt_artifact(int left, int right) {
  return gbdt_artifact(std::to_string(left), std::to_string(right));
}

/// The message model_from_json throws for `artifact` ("" if none).
std::string decode_error(const Json& artifact) {
  try {
    model_from_json(artifact);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(Tree, FromJsonAcceptsChildrenAfterTheirParent) {
  EXPECT_EQ(decode_error(gbdt_artifact(1, 2)), "");
  const std::vector<float> row{0.0f};
  EXPECT_NO_THROW(model_from_json(gbdt_artifact(2, 1))->predict(row));
}

TEST(Tree, FromJsonRejectsOutOfRangeChild) {
  const std::string error = decode_error(gbdt_artifact(1, 7));
  EXPECT_NE(error.find("tree 1 node 0"), std::string::npos) << error;
  EXPECT_NE(decode_error(gbdt_artifact(-1, 2)), "");
}

TEST(Tree, FromJsonRejectsSelfLoop) {
  const std::string error = decode_error(gbdt_artifact(0, 2));
  EXPECT_NE(error.find("tree 1 node 0"), std::string::npos) << error;
}

TEST(Tree, FromJsonRejectsNonIntegralOrOutOfRangeFields) {
  // Each of these used to load: 2^32 wrapped to a split on feature 0, 1.9
  // truncated to child 1, and 1e30 was an out-of-range float-to-integer
  // cast (UB).
  const struct {
    Json artifact;
    const char* message;
  } cases[] = {
      {gbdt_artifact("1", "2", "4294967296"), "out of int range"},
      {gbdt_artifact("1.9", "2"), "not an integer"},
      {gbdt_artifact("1", "2", "1e30"), "not an integer"},
  };
  for (const auto& c : cases) {
    const std::string error = decode_error(c.artifact);
    EXPECT_NE(error.find(c.message), std::string::npos) << error;
  }
}

TEST(TreeDeathTest, PredictRejectsRowNarrowerThanASplitFeature) {
  // A registry artifact may name any int32 feature; scoring a row too narrow
  // for it used to read past the row (a SEGV for feature 10^8).
  const std::vector<float> row(40, 0.0f);
  const Matrix batch(3, 40);
  for (const char* feature : {"100000000", "40"}) {
    const auto model = model_from_json(gbdt_artifact("1", "2", feature));
    const std::string message =
        std::string("40 features but a split reads feature ") + feature;
    EXPECT_DEATH(model->predict(row), message) << feature;
    EXPECT_DEATH(model->predict_batch(batch), message) << feature;
  }
  // The widest row-reading split that fits still scores.
  const auto model = model_from_json(gbdt_artifact("1", "2", "39"));
  EXPECT_NO_THROW(model->predict(row));
  EXPECT_EQ(model->predict_batch(batch).size(), 3u);
}

TEST(Tree, EmptyTreePredictsZero) {
  const Tree tree;
  const std::vector<float> row{1.0f};
  EXPECT_EQ(tree.predict(row), 0.0);
}

}  // namespace
}  // namespace memfp::ml

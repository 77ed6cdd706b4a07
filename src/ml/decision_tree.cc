#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace memfp::ml {

BinnedDataset BinnedDataset::build(const Dataset& dataset, int max_bins) {
  BinnedDataset binned;
  binned.dataset = &dataset;
  binned.rows = dataset.x.rows();
  binned.mapper = BinMapper::fit(dataset, max_bins);
  binned.codes = binned.mapper.transform(dataset.x);

  const std::size_t features = dataset.x.cols();
  binned.bin_offset.resize(features + 1, 0);
  for (std::size_t f = 0; f < features; ++f) {
    binned.bin_offset[f + 1] =
        binned.bin_offset[f] + static_cast<std::uint32_t>(binned.mapper.bins(f));
  }

  // Row-major mirror of the codes for the classification trainer's
  // all-feature histogram kernel. Pure transpose, so parallel chunking
  // cannot change the result.
  binned.row_codes.resize(binned.rows * features);
  ThreadPool::global().parallel_for_chunks(
      binned.rows, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          std::uint8_t* dst = binned.row_codes.data() + r * features;
          for (std::size_t f = 0; f < features; ++f) {
            dst[f] = binned.codes[f * binned.rows + r];
          }
        }
      });

  binned.weight_pairs.resize(2 * binned.rows);
  for (std::size_t r = 0; r < binned.rows; ++r) {
    const double w = dataset.weight[r];
    binned.weight_pairs[2 * r] = w;
    binned.weight_pairs[2 * r + 1] = dataset.y[r] == 1 ? w : 0.0;
  }
  return binned;
}

double Tree::predict(std::span<const float> features) const {
  if (nodes_.empty()) return 0.0;
  int index = 0;
  while (nodes_[static_cast<std::size_t>(index)].feature >= 0) {
    const TreeNode& node = nodes_[static_cast<std::size_t>(index)];
    index = features[static_cast<std::size_t>(node.feature)] <= node.threshold
                ? node.left
                : node.right;
  }
  return nodes_[static_cast<std::size_t>(index)].value;
}

std::size_t Tree::leaves() const {
  std::size_t count = 0;
  for (const TreeNode& node : nodes_) count += node.feature < 0;
  return count;
}

Json Tree::to_json() const {
  Json nodes = Json::array();
  for (const TreeNode& node : nodes_) {
    Json entry = Json::object();
    entry.set("f", node.feature);
    entry.set("t", static_cast<double>(node.threshold));
    entry.set("l", node.left);
    entry.set("r", node.right);
    entry.set("v", node.value);
    nodes.push_back(std::move(entry));
  }
  Json out = Json::object();
  out.set("nodes", std::move(nodes));
  return out;
}

Tree Tree::from_json(const Json& json, std::size_t index) {
  Tree tree;
  for (const Json& entry : json.at("nodes").as_array()) {
    TreeNode node;
    node.feature = entry.at("f").as_int32();
    node.threshold = static_cast<float>(entry.at("t").as_number());
    node.left = entry.at("l").as_int32();
    node.right = entry.at("r").as_int32();
    node.value = entry.at("v").as_number();
    tree.nodes_.push_back(node);
  }
  // The trainers append both children after their parent, so a child index
  // outside (node, size) would make predict() read out of bounds or loop.
  const auto size = static_cast<std::int64_t>(tree.nodes_.size());
  for (std::int64_t n = 0; n < size; ++n) {
    const TreeNode& node = tree.nodes_[static_cast<std::size_t>(n)];
    if (node.feature < 0) continue;
    for (const int child : {node.left, node.right}) {
      if (child <= n || child >= size) {
        throw std::runtime_error(
            "Tree::from_json: tree " + std::to_string(index) + " node " +
            std::to_string(n) + " has child " + std::to_string(child) +
            ", outside (" + std::to_string(n) + ", " + std::to_string(size) +
            ")");
      }
    }
  }
  return tree;
}

namespace {

/// Reusable flat node histograms recycled across the nodes of one tree, so
/// deep trees allocate O(depth) buffers instead of O(nodes). A buffer holds
/// 2 * slots doubles of interleaved (a, b) pairs — (grad, hess) for the
/// gradient trainer, (weight, positive weight) for the classification
/// trainer — with feature f's bins at [2 * offset[f], 2 * offset[f + 1]).
class HistogramPool {
 public:
  explicit HistogramPool(std::size_t slots) : slots_(slots) {}

  std::vector<double> acquire() {
    if (free_.empty()) return std::vector<double>(2 * slots_, 0.0);
    std::vector<double> buffer = std::move(free_.back());
    free_.pop_back();
    std::fill(buffer.begin(), buffer.end(), 0.0);
    return buffer;
  }

  /// For buffers every slot of which is about to be overwritten (histogram
  /// subtraction): skips the zero fill — ~2 * slots doubles of memset per
  /// split otherwise.
  std::vector<double> acquire_unfilled() {
    if (free_.empty()) return std::vector<double>(2 * slots_);
    std::vector<double> buffer = std::move(free_.back());
    free_.pop_back();
    return buffer;
  }

  void release(std::vector<double>&& buffer) {
    if (buffer.size() == 2 * slots_) free_.push_back(std::move(buffer));
  }

 private:
  std::size_t slots_;
  std::vector<std::vector<double>> free_;
};

/// Single index arena for in-place node partitioning: a node owns the
/// contiguous slice [begin, end) and a split stable-partitions it, so row
/// order within each child matches the order the old per-node row vectors
/// were filled in (the accumulation-order part of the determinism
/// contract). One scratch buffer serves every split of the tree.
class RowArena {
 public:
  explicit RowArena(std::span<const std::size_t> rows) {
    MEMFP_CHECK_LT(rows.size(), std::numeric_limits<std::uint32_t>::max());
    rows_.reserve(rows.size());
    for (std::size_t r : rows) rows_.push_back(static_cast<std::uint32_t>(r));
    scratch_.resize(rows_.size());
  }

  std::size_t size() const { return rows_.size(); }
  std::span<const std::uint32_t> slice(std::size_t begin,
                                       std::size_t end) const {
    return {rows_.data() + begin, end - begin};
  }

  /// Stable partition of [begin, end) by code <= bin; returns the boundary.
  /// `guard` is the number of bytes readable from `codes` (the kernel's
  /// gather-overread bound, see simd::KernelTable::partition).
  std::size_t partition(std::size_t begin, std::size_t end,
                        const std::uint8_t* codes, std::uint8_t bin,
                        std::size_t guard) {
    if (auto* kernel = simd::kernels().partition) {
      return begin + kernel(rows_.data() + begin, end - begin, codes, bin,
                            scratch_.data(), guard);
    }
    std::size_t write = begin;
    std::size_t right = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = rows_[i];
      if (codes[r] <= bin) {
        rows_[write++] = r;
      } else {
        scratch_[right++] = r;
      }
    }
    std::copy(scratch_.begin(), scratch_.begin() + static_cast<std::ptrdiff_t>(right),
              rows_.begin() + static_cast<std::ptrdiff_t>(write));
    return write;
  }

 private:
  std::vector<std::uint32_t> rows_;
  std::vector<std::uint32_t> scratch_;
};

struct FeatureBest {
  double gain = 0.0;
  int bin = -1;
};

double gini_impurity(double pos, double total) {
  if (total <= 0.0) return 0.0;
  const double p = pos / total;
  return 2.0 * p * (1.0 - p) * total;  // weighted impurity mass
}

std::vector<std::size_t> sample_features(std::size_t count, double fraction,
                                         Rng& rng) {
  std::vector<std::size_t> features(count);
  for (std::size_t i = 0; i < count; ++i) features[i] = i;
  // Round (not floor): with very few features, flooring can silently strand
  // every tree on a single column.
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(static_cast<double>(count) * fraction)));
  if (keep >= count) return features;
  rng.shuffle(features);
  features.resize(keep);
  std::sort(features.begin(), features.end());
  return features;
}

}  // namespace

Tree fit_classification_tree(const BinnedDataset& data,
                             std::span<const std::size_t> rows,
                             const ClassificationTreeParams& params,
                             Rng& rng) {
  const std::size_t features = data.dataset->x.cols();
  const std::vector<std::uint32_t>& offset = data.bin_offset;
  const double* wp = data.weight_pairs.data();
  // One table fetch per fit: the dispatch level is pinned for the whole
  // tree, so a concurrent ScopedLevel swap cannot mix lanes mid-build.
  const simd::KernelTable& kt = simd::kernels();
  Tree tree;
  auto& nodes = tree.mutable_nodes();

  RowArena arena(rows);
  HistogramPool hist_pool(data.total_bins());

  struct Work {
    int node = 0;
    std::size_t begin = 0, end = 0;
    int depth = 0;
    double pos = 0.0, total = 0.0;
    bool live = false;             // passed the pre-split checks
    std::vector<double> hist{};    // all-feature histogram; empty if !live
  };

  // Weighted class stats of a slice, summed in row order (bitwise-stable:
  // adding the 0.0 stored for negative rows leaves the positive sum's bits
  // unchanged).
  const auto stats = [&](Work& work) {
    const auto slice = arena.slice(work.begin, work.end);
    kt.pair_sum(slice.data(), slice.size(), wp, &work.total, &work.pos);
  };
  const auto check_live = [&](const Work& work) {
    const bool pure =
        work.pos <= 1e-12 || work.pos >= work.total - 1e-12;
    return work.depth < params.max_depth && !pure &&
           work.total >= 2.0 * params.min_samples_leaf;
  };
  // Direct histogram: one row-major pass over the node's rows fills every
  // feature's slice (each accumulator still sees its adds in row order, so
  // this matches the historical feature-major build bit for bit).
  const auto build_hist = [&](Work& work) {
    work.hist = hist_pool.acquire();
    const auto slice = arena.slice(work.begin, work.end);
    kt.hist_rowmajor(slice.data(), slice.size(), wp, data.row_codes.data(),
                     features, work.hist.data(), offset.data());
  };
  const auto subtract_hist = [&](Work& work, const std::vector<double>& parent,
                                 const std::vector<double>& sibling) {
    work.hist = hist_pool.acquire_unfilled();
    kt.hist_subtract(work.hist.data(), parent.data(), sibling.data(),
                     work.hist.size());
  };

  nodes.push_back({});
  std::vector<Work> stack;
  {
    Work root{0, 0, arena.size(), 0};
    stats(root);
    root.live = check_live(root);
    if (root.live) build_hist(root);
    stack.push_back(std::move(root));
  }

  while (!stack.empty()) {
    Work work = std::move(stack.back());
    stack.pop_back();

    if (!work.live) {
      nodes[static_cast<std::size_t>(work.node)].feature = -1;
      nodes[static_cast<std::size_t>(work.node)].value =
          work.total > 0.0 ? work.pos / work.total : 0.0;
      continue;
    }

    // Best split over a random feature subset, scanned on the node's pooled
    // histogram.
    double best_gain = 1e-12;
    int best_feature = -1;
    int best_bin = -1;
    const double parent_impurity = gini_impurity(work.pos, work.total);
    // Prefix sums feed the vectorized gain scan; candidates failing
    // min_samples_leaf come back as -inf, so the strict-> argmax below picks
    // the same (feature, bin) — earliest maximum first — as the historical
    // fused loop. Bin counts are capped at 256 by the uint8 codes.
    double left_total[256], left_pos[256], gains[256];
    for (std::size_t f : sample_features(features, params.feature_fraction,
                                         rng)) {
      const int bins = data.mapper.bins(f);
      if (bins < 2) continue;
      const double* hist = work.hist.data() + 2 * offset[f];
      const int count = bins - 1;
      double lt = 0.0, lp = 0.0;
      for (int b = 0; b < count; ++b) {
        lt += hist[2 * b];
        lp += hist[2 * b + 1];
        left_total[b] = lt;
        left_pos[b] = lp;
      }
      // Zero the kGainScanPad round-up so the scan's full-width last block
      // reads defined values (see KernelTable::gini_gain_scan).
      const int padded = (count + simd::kGainScanPad - 1) &
                         ~(simd::kGainScanPad - 1);
      for (int b = count; b < padded; ++b) {
        left_total[b] = 0.0;
        left_pos[b] = 0.0;
      }
      kt.gini_gain_scan(left_total, left_pos, count, work.total, work.pos,
                        parent_impurity, params.min_samples_leaf, gains);
      for (int b = 0; b < count; ++b) {
        if (gains[b] > best_gain) {
          best_gain = gains[b];
          best_feature = static_cast<int>(f);
          best_bin = b;
        }
      }
    }

    if (best_feature < 0) {
      nodes[static_cast<std::size_t>(work.node)].feature = -1;
      nodes[static_cast<std::size_t>(work.node)].value =
          work.total > 0.0 ? work.pos / work.total : 0.0;
      hist_pool.release(std::move(work.hist));
      continue;
    }

    const std::size_t mid = arena.partition(
        work.begin, work.end,
        data.feature_codes(static_cast<std::size_t>(best_feature)),
        static_cast<std::uint8_t>(best_bin),
        data.codes.size() - static_cast<std::size_t>(best_feature) * data.rows);

    const int left_index = static_cast<int>(nodes.size());
    const int right_index = left_index + 1;
    nodes.push_back({});
    nodes.push_back({});
    TreeNode& parent = nodes[static_cast<std::size_t>(work.node)];
    parent.feature = best_feature;
    parent.threshold =
        data.mapper.threshold(static_cast<std::size_t>(best_feature), best_bin);
    parent.left = left_index;
    parent.right = right_index;

    Work left{left_index, work.begin, mid, work.depth + 1};
    Work right{right_index, mid, work.end, work.depth + 1};
    stats(left);
    stats(right);
    left.live = check_live(left);
    right.live = check_live(right);

    // Histogram subtraction: build the smaller child directly, derive the
    // sibling as parent - child.
    Work& small = (left.end - left.begin) <= (right.end - right.begin)
                      ? left
                      : right;
    Work& large = &small == &left ? right : left;
    if (large.live) {
      build_hist(small);
      subtract_hist(large, work.hist, small.hist);
      if (!small.live) hist_pool.release(std::move(small.hist));
    } else if (small.live) {
      build_hist(small);
    }
    hist_pool.release(std::move(work.hist));

    stack.push_back(std::move(left));
    stack.push_back(std::move(right));
  }
  return tree;
}

Tree fit_gradient_tree(const BinnedDataset& data,
                       std::span<const std::size_t> rows,
                       std::span<const double> grad,
                       std::span<const double> hess,
                       const GradientTreeParams& params, Rng& rng) {
  const std::size_t features = data.dataset->x.cols();
  const std::vector<std::size_t> tree_features =
      sample_features(features, params.feature_fraction, rng);

  // Per-tree histogram offsets over the sampled features only.
  std::vector<std::uint32_t> offset(tree_features.size() + 1, 0);
  for (std::size_t fi = 0; fi < tree_features.size(); ++fi) {
    offset[fi + 1] = offset[fi] +
                     static_cast<std::uint32_t>(
                         data.mapper.bins(tree_features[fi]));
  }

  // Row-indexed (grad, hess) pairs: the per-row gather of a histogram build
  // touches one cache line instead of two arrays.
  std::vector<double> gh(2 * data.rows);
  ThreadPool::global().parallel_for(data.rows, [&](std::size_t r) {
    gh[2 * r] = grad[r];
    gh[2 * r + 1] = hess[r];
  });

  Tree tree;
  auto& nodes = tree.mutable_nodes();
  const simd::KernelTable& kt = simd::kernels();
  RowArena arena(rows);
  HistogramPool hist_pool(offset.back());

  struct NodeData {
    int node = 0;
    std::size_t begin = 0, end = 0;
    int depth = 0;
    double gain = 0.0;
    int feature = -1;
    int bin = -1;
    double g = 0.0, h = 0.0;
    std::vector<double> hist{};  // retained until the node is split or leafed
  };

  const auto leaf_score = [&](double g, double h) {
    return -g / (h + params.lambda);
  };
  const auto node_objective = [&](double g, double h) {
    return g * g / (h + params.lambda);
  };
  const auto node_stats = [&](NodeData& nd) {
    const auto slice = arena.slice(nd.begin, nd.end);
    kt.pair_sum(slice.data(), slice.size(), gh.data(), &nd.g, &nd.h);
  };
  const auto terminal = [&](const NodeData& nd) {
    return nd.depth >= params.max_depth ||
           nd.h < 2.0 * params.min_child_hessian;
  };

  // Builds nd's histogram — directly from its rows, or (when parent and
  // sibling are given) as parent - sibling — then scans every sampled
  // feature for the best split. The per-feature slices are independent, so
  // they are filled across the thread pool when the node is large enough to
  // amortize the dispatch; the winning (feature, bin) is then folded in
  // ascending tree_features order, making the chosen split a pure function
  // of the node — identical for every thread count.
  const auto build_and_scan = [&](NodeData& nd,
                                  const std::vector<double>* parent,
                                  const std::vector<double>* sibling,
                                  bool scan) {
    // Subtraction overwrites every per-feature slice, so the derived child
    // can skip the acquire-time zero fill.
    nd.hist =
        parent != nullptr ? hist_pool.acquire_unfilled() : hist_pool.acquire();
    const auto slice = arena.slice(nd.begin, nd.end);
    const double parent_obj = node_objective(nd.g, nd.h);
    std::vector<FeatureBest> best(tree_features.size());

    const auto per_feature = [&](std::size_t fi) {
      double* hist = nd.hist.data() + 2 * offset[fi];
      if (parent != nullptr) {
        const double* p = parent->data() + 2 * offset[fi];
        const double* s = sibling->data() + 2 * offset[fi];
        kt.hist_subtract(hist, p, s, 2 * (offset[fi + 1] - offset[fi]));
      } else {
        kt.hist_column(slice.data(), slice.size(), gh.data(),
                       data.feature_codes(tree_features[fi]), hist);
      }
      const int bins = data.mapper.bins(tree_features[fi]);
      if (!scan || bins < 2) return;
      double gl = 0.0, hl = 0.0;
      for (int b = 0; b + 1 < bins; ++b) {
        gl += hist[2 * b];
        hl += hist[2 * b + 1];
        const double gr = nd.g - gl;
        const double hr = nd.h - hl;
        if (hl < params.min_child_hessian || hr < params.min_child_hessian) {
          continue;
        }
        const double gain =
            node_objective(gl, hl) + node_objective(gr, hr) - parent_obj;
        if (gain > best[fi].gain + 1e-12) {
          best[fi].gain = gain;
          best[fi].bin = b;
        }
      }
    };

    // Histogram cost ~ rows x features; below the cutoff the serial loop
    // beats the dispatch overhead.
    const bool parallel =
        tree_features.size() >= 2 &&
        slice.size() * tree_features.size() >= 16384;
    if (parallel) {
      ThreadPool::global().parallel_for(tree_features.size(), per_feature,
                                        /*grain=*/1);
    } else {
      for (std::size_t fi = 0; fi < tree_features.size(); ++fi) {
        per_feature(fi);
      }
    }

    nd.gain = 0.0;
    nd.feature = -1;
    for (std::size_t fi = 0; fi < tree_features.size(); ++fi) {
      if (best[fi].bin >= 0 && best[fi].gain > nd.gain + 1e-12) {
        nd.gain = best[fi].gain;
        nd.feature = static_cast<int>(tree_features[fi]);
        nd.bin = best[fi].bin;
      }
    }
  };

  nodes.push_back({});
  // Frontier candidates live in `store`; the priority queue holds (gain,
  // slot) pairs compared on gain exactly as the old Candidate queue was, so
  // the pop order — ties included — is unchanged.
  std::vector<NodeData> store;
  store.reserve(static_cast<std::size_t>(std::max(2 * params.max_leaves, 2)));
  {
    NodeData root{0, 0, arena.size(), 0};
    node_stats(root);
    if (!terminal(root)) build_and_scan(root, nullptr, nullptr, /*scan=*/true);
    store.push_back(std::move(root));
  }

  struct QEntry {
    double gain;
    std::size_t slot;
  };
  auto by_gain = [](const QEntry& a, const QEntry& b) {
    return a.gain < b.gain;
  };
  std::priority_queue<QEntry, std::vector<QEntry>, decltype(by_gain)>
      frontier(by_gain);
  frontier.push({store[0].gain, 0});
  int leaves = 1;

  // Leaf-wise growth: repeatedly split the frontier leaf with highest gain.
  while (!frontier.empty() && leaves < params.max_leaves) {
    const QEntry top = frontier.top();
    frontier.pop();
    NodeData cand = std::move(store[top.slot]);
    if (cand.feature < 0 || cand.gain <= 1e-12) {
      nodes[static_cast<std::size_t>(cand.node)].feature = -1;
      nodes[static_cast<std::size_t>(cand.node)].value =
          leaf_score(cand.g, cand.h);
      hist_pool.release(std::move(cand.hist));
      continue;
    }

    const std::size_t mid = arena.partition(
        cand.begin, cand.end,
        data.feature_codes(static_cast<std::size_t>(cand.feature)),
        static_cast<std::uint8_t>(cand.bin),
        data.codes.size() - static_cast<std::size_t>(cand.feature) * data.rows);

    const int left_index = static_cast<int>(nodes.size());
    const int right_index = left_index + 1;
    nodes.push_back({});
    nodes.push_back({});
    TreeNode& node = nodes[static_cast<std::size_t>(cand.node)];
    node.feature = cand.feature;
    node.threshold = data.mapper.threshold(
        static_cast<std::size_t>(cand.feature), cand.bin);
    node.left = left_index;
    node.right = right_index;
    ++leaves;  // one leaf became two

    NodeData left{left_index, cand.begin, mid, cand.depth + 1};
    NodeData right{right_index, mid, cand.end, cand.depth + 1};
    node_stats(left);
    node_stats(right);
    const bool left_live = !terminal(left);
    const bool right_live = !terminal(right);

    // Histogram subtraction: build only the smaller child, derive the
    // sibling as parent - child.
    NodeData& small =
        (left.end - left.begin) <= (right.end - right.begin) ? left : right;
    NodeData& large = &small == &left ? right : left;
    const bool small_live = &small == &left ? left_live : right_live;
    const bool large_live = &small == &left ? right_live : left_live;
    if (large_live) {
      build_and_scan(small, nullptr, nullptr, small_live);
      build_and_scan(large, &cand.hist, &small.hist, /*scan=*/true);
      if (!small_live) hist_pool.release(std::move(small.hist));
    } else if (small_live) {
      build_and_scan(small, nullptr, nullptr, /*scan=*/true);
    }
    hist_pool.release(std::move(cand.hist));

    store.push_back(std::move(left));
    frontier.push({store.back().gain, store.size() - 1});
    store.push_back(std::move(right));
    frontier.push({store.back().gain, store.size() - 1});
  }

  // Finalize any unexpanded frontier leaves.
  while (!frontier.empty()) {
    NodeData& cand = store[frontier.top().slot];
    nodes[static_cast<std::size_t>(cand.node)].feature = -1;
    nodes[static_cast<std::size_t>(cand.node)].value =
        leaf_score(cand.g, cand.h);
    frontier.pop();
  }
  return tree;
}

}  // namespace memfp::ml

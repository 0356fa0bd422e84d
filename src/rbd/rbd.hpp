// Reliability block diagrams.
//
// RAScad translates every MG diagram into a serial RBD over its blocks and
// lets GMB users draw general series / parallel / K-of-N structures. Blocks
// are assumed independent (the paper's stated modeling assumption), so
// structure probabilities compose by products and convolutions.
//
// A leaf carries a steady-state availability plus optional time-dependent
// point-availability and reliability functions (typically closures over a
// solved Markov model), so the same tree answers steady-state, transient,
// and reliability queries.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace rascad::rbd {

class RbdNode;
using RbdNodePtr = std::shared_ptr<const RbdNode>;

/// Time-dependent probability (point availability or reliability at t).
using TimeFunction = std::function<double(double)>;

enum class RbdKind { kLeaf, kSeries, kParallel, kKofN };

class RbdNode {
 public:
  /// Leaf with a constant steady-state availability and optional
  /// time-dependent curves. Probabilities must lie in [0, 1].
  static RbdNodePtr leaf(std::string name, double availability,
                         TimeFunction point_availability = nullptr,
                         TimeFunction reliability = nullptr);

  /// All children required (the MG diagram structure).
  static RbdNodePtr series(std::string name, std::vector<RbdNodePtr> children);

  /// At least one child required.
  static RbdNodePtr parallel(std::string name,
                             std::vector<RbdNodePtr> children);

  /// At least k of the children required (1 <= k <= n). Children may be
  /// heterogeneous; the up-count distribution is computed by convolution.
  static RbdNodePtr k_of_n(std::string name, std::size_t k,
                           std::vector<RbdNodePtr> children);

  RbdKind kind() const noexcept { return kind_; }
  const std::string& name() const noexcept { return name_; }
  const std::vector<RbdNodePtr>& children() const noexcept { return children_; }
  std::size_t required() const noexcept { return k_; }

  /// Steady-state availability of the subtree.
  double availability() const;

  /// Point availability at time t. Leaves without a point-availability
  /// curve fall back to their steady-state value.
  double point_availability(double t) const;

  /// Reliability at time t (no-repair survival). Leaves without a
  /// reliability curve are treated as perfectly reliable; the callers that
  /// need strict semantics should set curves on every leaf.
  double reliability(double t) const;

  /// Interval availability over (0, horizon): numeric integration
  /// (composite Simpson) of the composed point availability.
  double interval_availability(double horizon, std::size_t intervals = 512) const;

  /// Total number of leaves in the subtree.
  std::size_t leaf_count() const;

  /// Text rendering of the diagram tree with availabilities.
  void print(std::ostream& os, int indent = 0) const;

 private:
  RbdNode() = default;

  /// Generic structure evaluation given per-child probabilities.
  double combine(const std::vector<double>& child_probs) const;
  double evaluate(const std::function<double(const RbdNode&)>& leaf_value) const;

  RbdKind kind_ = RbdKind::kLeaf;
  std::string name_;
  std::vector<RbdNodePtr> children_;
  std::size_t k_ = 0;  // for kKofN
  double availability_ = 1.0;
  TimeFunction point_availability_;
  TimeFunction reliability_;
};

std::ostream& operator<<(std::ostream& os, const RbdNode& node);

/// P(at least k of the independent events with probabilities p occur),
/// by exact convolution of the up-count distribution. Exposed for tests
/// and the baselines module.
double at_least_k_of(const std::vector<double>& p, std::size_t k);

}  // namespace rascad::rbd

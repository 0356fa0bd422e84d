// Reliability block diagrams.
//
// RAScad translates every MG diagram into a serial RBD over its blocks and
// lets GMB users draw general series / parallel / K-of-N structures. Blocks
// are assumed independent (the paper's stated modeling assumption), so
// structure probabilities compose by products and convolutions.
//
// A leaf carries a probability (an MG block's steady-state availability, a
// GMB leaf's value). The tree answers steady-state structure queries; it
// does not integrate: MG's time-dependent system measures are products
// over the solved block table (mg::SystemModel).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace rascad::rbd {

class RbdNode;
using RbdNodePtr = std::shared_ptr<const RbdNode>;

enum class RbdKind { kLeaf, kSeries, kParallel, kKofN };

class RbdNode {
 public:
  /// Leaf with a steady-state availability in [0, 1].
  static RbdNodePtr leaf(std::string name, double availability);

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

  /// Total number of leaves in the subtree.
  std::size_t leaf_count() const;

  /// Text rendering of the diagram tree with availabilities.
  void print(std::ostream& os, int indent = 0) const;

 private:
  RbdNode() = default;

  /// Structure function given per-child probabilities.
  double combine(const std::vector<double>& child_probs) const;

  RbdKind kind_ = RbdKind::kLeaf;
  std::string name_;
  std::vector<RbdNodePtr> children_;
  std::size_t k_ = 0;  // for kKofN
  double availability_ = 1.0;
};

std::ostream& operator<<(std::ostream& os, const RbdNode& node);

/// `p` clamped into [0, 1]; throws std::invalid_argument naming `what`
/// when it is NaN or outside by more than 1e-12.
double checked_probability(double p, const char* what);

/// P(at least k of the independent events with probabilities p occur),
/// by exact convolution of the up-count distribution. Exposed for tests
/// and the baselines module.
double at_least_k_of(const std::vector<double>& p, std::size_t k);

}  // namespace rascad::rbd

#include "rbd/rbd.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace rascad::rbd {

double checked_probability(double p, const char* what) {
  if (std::isnan(p) || p < -1e-12 || p > 1.0 + 1e-12) {
    throw std::invalid_argument(std::string(what) +
                                ": probability outside [0, 1]");
  }
  return std::min(1.0, std::max(0.0, p));
}

double at_least_k_of(const std::vector<double>& p, std::size_t k) {
  if (k > p.size()) return 0.0;
  if (k == 0) return 1.0;
  // dist[j] = P(exactly j of the first i components up); convolve one
  // component at a time.
  std::vector<double> dist(p.size() + 1, 0.0);
  dist[0] = 1.0;
  std::size_t seen = 0;
  for (double pi : p) {
    checked_probability(pi, "at_least_k_of");
    ++seen;
    for (std::size_t j = seen; j-- > 0;) {
      dist[j + 1] += dist[j] * pi;
      dist[j] *= (1.0 - pi);
    }
  }
  double acc = 0.0;
  for (std::size_t j = k; j <= p.size(); ++j) acc += dist[j];
  return std::min(1.0, acc);
}

RbdNodePtr RbdNode::leaf(std::string name, double availability) {
  auto node = std::shared_ptr<RbdNode>(new RbdNode());
  node->kind_ = RbdKind::kLeaf;
  node->name_ = std::move(name);
  node->availability_ = checked_probability(availability, "RbdNode::leaf");
  return node;
}

RbdNodePtr RbdNode::series(std::string name, std::vector<RbdNodePtr> children) {
  if (children.empty()) {
    throw std::invalid_argument("RbdNode::series: no children");
  }
  for (const auto& c : children) {
    if (!c) throw std::invalid_argument("RbdNode::series: null child");
  }
  auto node = std::shared_ptr<RbdNode>(new RbdNode());
  node->kind_ = RbdKind::kSeries;
  node->name_ = std::move(name);
  node->children_ = std::move(children);
  return node;
}

RbdNodePtr RbdNode::parallel(std::string name,
                             std::vector<RbdNodePtr> children) {
  if (children.empty()) {
    throw std::invalid_argument("RbdNode::parallel: no children");
  }
  for (const auto& c : children) {
    if (!c) throw std::invalid_argument("RbdNode::parallel: null child");
  }
  auto node = std::shared_ptr<RbdNode>(new RbdNode());
  node->kind_ = RbdKind::kParallel;
  node->name_ = std::move(name);
  node->children_ = std::move(children);
  return node;
}

RbdNodePtr RbdNode::k_of_n(std::string name, std::size_t k,
                           std::vector<RbdNodePtr> children) {
  if (children.empty()) {
    throw std::invalid_argument("RbdNode::k_of_n: no children");
  }
  if (k == 0 || k > children.size()) {
    throw std::invalid_argument("RbdNode::k_of_n: k must be in [1, n]");
  }
  for (const auto& c : children) {
    if (!c) throw std::invalid_argument("RbdNode::k_of_n: null child");
  }
  auto node = std::shared_ptr<RbdNode>(new RbdNode());
  node->kind_ = RbdKind::kKofN;
  node->name_ = std::move(name);
  node->children_ = std::move(children);
  node->k_ = k;
  return node;
}

double RbdNode::combine(const std::vector<double>& child_probs) const {
  switch (kind_) {
    case RbdKind::kLeaf:
      throw std::logic_error("RbdNode::combine called on a leaf");
    case RbdKind::kSeries: {
      double acc = 1.0;
      for (double p : child_probs) acc *= p;
      return acc;
    }
    case RbdKind::kParallel: {
      double acc = 1.0;
      for (double p : child_probs) acc *= (1.0 - p);
      return 1.0 - acc;
    }
    case RbdKind::kKofN:
      return at_least_k_of(child_probs, k_);
  }
  throw std::logic_error("RbdNode::combine: unknown kind");
}

double RbdNode::availability() const {
  // Leaf values are clamped on construction.
  if (kind_ == RbdKind::kLeaf) return availability_;
  std::vector<double> probs;
  probs.reserve(children_.size());
  for (const auto& c : children_) probs.push_back(c->availability());
  return combine(probs);
}

std::size_t RbdNode::leaf_count() const {
  if (kind_ == RbdKind::kLeaf) return 1;
  std::size_t acc = 0;
  for (const auto& c : children_) acc += c->leaf_count();
  return acc;
}

void RbdNode::print(std::ostream& os, int indent) const {
  for (int i = 0; i < indent; ++i) os << "  ";
  switch (kind_) {
    case RbdKind::kLeaf:
      os << name_ << "  A=" << availability_ << '\n';
      return;
    case RbdKind::kSeries:
      os << name_ << " [series]  A=" << availability() << '\n';
      break;
    case RbdKind::kParallel:
      os << name_ << " [parallel]  A=" << availability() << '\n';
      break;
    case RbdKind::kKofN:
      os << name_ << " [" << k_ << "-of-" << children_.size()
         << "]  A=" << availability() << '\n';
      break;
  }
  for (const auto& c : children_) c->print(os, indent + 1);
}

std::ostream& operator<<(std::ostream& os, const RbdNode& node) {
  node.print(os);
  return os;
}

}  // namespace rascad::rbd

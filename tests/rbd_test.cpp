// Tests for the RBD engine: structure algebra against the baselines
// module and k-of-n convolution properties.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/baselines.hpp"
#include "rbd/rbd.hpp"

namespace {

using rascad::rbd::at_least_k_of;
using rascad::rbd::RbdNode;
using rascad::rbd::RbdNodePtr;

TEST(AtLeastKOf, MatchesBinomialForIdentical) {
  // 2-of-3 with p = 0.9: 3 p^2 (1-p) + p^3.
  const double p = 0.9;
  const double expected = 3 * p * p * (1 - p) + p * p * p;
  EXPECT_NEAR(at_least_k_of({p, p, p}, 2), expected, 1e-12);
}

TEST(AtLeastKOf, EdgeCases) {
  EXPECT_DOUBLE_EQ(at_least_k_of({0.5, 0.5}, 0), 1.0);
  EXPECT_DOUBLE_EQ(at_least_k_of({0.5, 0.5}, 3), 0.0);
  EXPECT_NEAR(at_least_k_of({0.3}, 1), 0.3, 1e-15);
}

TEST(AtLeastKOf, HeterogeneousHandComputed) {
  // P(at least 1 of {0.2, 0.5}) = 1 - 0.8*0.5 = 0.6.
  EXPECT_NEAR(at_least_k_of({0.2, 0.5}, 1), 0.6, 1e-12);
  // P(both) = 0.1.
  EXPECT_NEAR(at_least_k_of({0.2, 0.5}, 2), 0.1, 1e-12);
}

TEST(AtLeastKOf, RejectsBadProbability) {
  EXPECT_THROW(at_least_k_of({1.5}, 1), std::invalid_argument);
  EXPECT_THROW(at_least_k_of({-0.1}, 1), std::invalid_argument);
}

TEST(RbdNode, SeriesMatchesBaseline) {
  const auto tree = RbdNode::series(
      "sys", {RbdNode::leaf("a", 0.99), RbdNode::leaf("b", 0.98),
              RbdNode::leaf("c", 0.97)});
  EXPECT_NEAR(tree->availability(),
              rascad::baselines::series_availability({0.99, 0.98, 0.97}),
              1e-12);
  EXPECT_EQ(tree->leaf_count(), 3u);
}

TEST(RbdNode, ParallelMatchesBaseline) {
  const auto tree = RbdNode::parallel(
      "sys", {RbdNode::leaf("a", 0.9), RbdNode::leaf("b", 0.8)});
  EXPECT_NEAR(tree->availability(),
              rascad::baselines::parallel_availability({0.9, 0.8}), 1e-12);
}

TEST(RbdNode, KofNSpecialCases) {
  std::vector<RbdNodePtr> leaves = {RbdNode::leaf("a", 0.9),
                                    RbdNode::leaf("b", 0.8),
                                    RbdNode::leaf("c", 0.7)};
  // n-of-n == series; 1-of-n == parallel.
  const auto all = RbdNode::k_of_n("all", 3, leaves);
  EXPECT_NEAR(all->availability(), 0.9 * 0.8 * 0.7, 1e-12);
  const auto any = RbdNode::k_of_n("any", 1, leaves);
  EXPECT_NEAR(any->availability(), 1.0 - 0.1 * 0.2 * 0.3, 1e-12);
}

TEST(RbdNode, NestedComposition) {
  // series(parallel(0.9, 0.9), 0.99)
  const auto tree = RbdNode::series(
      "sys",
      {RbdNode::parallel("pair",
                         {RbdNode::leaf("m1", 0.9), RbdNode::leaf("m2", 0.9)}),
       RbdNode::leaf("bus", 0.99)});
  EXPECT_NEAR(tree->availability(), (1.0 - 0.01) * 0.99, 1e-12);
}

TEST(RbdNode, ConstructionErrors) {
  EXPECT_THROW(RbdNode::series("s", {}), std::invalid_argument);
  EXPECT_THROW(RbdNode::parallel("p", {}), std::invalid_argument);
  EXPECT_THROW(RbdNode::k_of_n("k", 0, {RbdNode::leaf("a", 1.0)}),
               std::invalid_argument);
  EXPECT_THROW(RbdNode::k_of_n("k", 3, {RbdNode::leaf("a", 1.0)}),
               std::invalid_argument);
  EXPECT_THROW(RbdNode::leaf("bad", 1.5), std::invalid_argument);
  EXPECT_THROW(RbdNode::series("s", {nullptr}), std::invalid_argument);
}

TEST(RbdNode, AvailabilityMonotoneInLeafValue) {
  double prev = -1.0;
  for (double p = 0.5; p <= 1.0; p += 0.05) {
    const auto tree = RbdNode::series(
        "sys", {RbdNode::leaf("a", p),
                RbdNode::k_of_n("k", 2,
                                {RbdNode::leaf("x", p), RbdNode::leaf("y", p),
                                 RbdNode::leaf("z", p)})});
    const double a = tree->availability();
    EXPECT_GT(a, prev);
    prev = a;
  }
}

}  // namespace

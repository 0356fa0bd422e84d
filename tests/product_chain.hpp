// Test-local oracle: the Kronecker product of independent block chains.
// One state per tuple of block states, each block moving on its own; a
// state's reward is the product of the block rewards. With 0/1 rewards
// that is the availability of the blocks in series under the independence
// the RBD assumes, so the product chain's transient measures are an exact
// oracle for the composed ones.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "markov/ctmc.hpp"
#include "mg/system.hpp"

namespace rascad::testing {

struct ProductChain {
  markov::Ctmc chain;
  markov::StateIndex initial = 0;  // the tuple of the blocks' initial states
};

inline ProductChain product_chain(
    const std::vector<const mg::SystemModel::BlockEntry*>& blocks) {
  // Mixed radix: block i's state is digit i, with stride[i] its weight.
  std::vector<std::size_t> stride(blocks.size() + 1, 1);
  for (std::size_t i = blocks.size(); i-- > 0;) {
    stride[i] = stride[i + 1] * blocks[i]->chain->size();
  }
  const auto digit = [&](std::size_t s, std::size_t i) {
    return s / stride[i + 1] % blocks[i]->chain->size();
  };
  markov::CtmcBuilder builder;
  for (std::size_t s = 0; s < stride[0]; ++s) {
    double reward = 1.0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      reward *= blocks[i]->chain->reward(digit(s, i));
    }
    builder.add_state("s" + std::to_string(s), reward);
  }
  for (std::size_t s = 0; s < stride[0]; ++s) {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const std::size_t d = digit(s, i);
      const auto row = blocks[i]->chain->generator().row(d);
      for (std::size_t k = 0; k < row.size; ++k) {
        if (row.cols[k] == d) continue;
        builder.add_transition(
            s, s - d * stride[i + 1] + row.cols[k] * stride[i + 1],
            row.values[k]);
      }
    }
  }
  ProductChain out;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    out.initial += blocks[i]->initial * stride[i + 1];
  }
  out.chain = builder.build();
  return out;
}

/// The product of every block of `system`.
inline ProductChain product_chain(const mg::SystemModel& system) {
  std::vector<const mg::SystemModel::BlockEntry*> blocks;
  for (const auto& b : system.blocks()) blocks.push_back(&b);
  return product_chain(blocks);
}

}  // namespace rascad::testing

#include "sim/system_sim.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/event_engine.hpp"
#include "sim/rng.hpp"
#include "spec/validate.hpp"

namespace rascad::sim {

namespace {

/// Depth-first collection of every failing block reachable from the root.
void collect_blocks(const spec::ModelSpec& model,
                    const spec::DiagramSpec& diagram,
                    std::vector<const spec::BlockSpec*>& out) {
  for (const auto& block : diagram.blocks) {
    if (block.has_own_failures()) out.push_back(&block);
    if (block.subdiagram) {
      const spec::DiagramSpec* sub = model.find_diagram(*block.subdiagram);
      if (!sub) {
        throw std::invalid_argument("simulate_system: dangling subdiagram '" +
                                    *block.subdiagram + "'");
      }
      collect_blocks(model, *sub, out);
    }
  }
}

}  // namespace

std::vector<const spec::BlockSpec*> collect_failing_blocks(
    const spec::ModelSpec& model) {
  std::vector<const spec::BlockSpec*> blocks;
  collect_blocks(model, model.root(), blocks);
  return blocks;
}

SystemSimResult simulate_system_common_cause(const spec::ModelSpec& model,
                                             double horizon,
                                             std::uint64_t seed,
                                             double shock_rate_per_hour,
                                             double p_component_fault,
                                             const BlockSimOptions& base) {
  if (shock_rate_per_hour < 0.0 || p_component_fault < 0.0 ||
      p_component_fault > 1.0) {
    throw std::invalid_argument(
        "simulate_system_common_cause: bad shock parameters");
  }
  // One shared schedule: the correlation channel.
  std::vector<double> shocks;
  if (shock_rate_per_hour > 0.0) {
    Xoshiro256 rng(seed, 0xCCULL);
    double t = 0.0;
    for (;;) {
      t += -std::log(rng.uniform01()) / shock_rate_per_hour;
      if (t >= horizon) break;
      shocks.push_back(t);
    }
  }
  BlockSimOptions opts = base;
  opts.common_cause_times = &shocks;
  opts.p_common_cause = p_component_fault;
  return simulate_system(model, horizon, seed, opts);
}

SystemSimResult simulate_system(const spec::ModelSpec& model, double horizon,
                                std::uint64_t seed,
                                const BlockSimOptions& opts) {
  spec::validate_or_throw(model);
  if (!(horizon > 0.0)) {
    throw std::invalid_argument("simulate_system: horizon must be positive");
  }
  return simulate_replication_events(collect_failing_blocks(model),
                                     model.globals, horizon, seed, opts);
}

}  // namespace rascad::sim

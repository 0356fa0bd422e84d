#include "core/importance.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "markov/steady_state.hpp"
#include "mg/generator.hpp"
#include "obs/trace.hpp"

namespace rascad::core {

std::vector<BlockImportance> block_importance(const mg::SystemModel& system,
                                              const exec::ParallelOptions& par) {
  obs::Span run_span("importance.run");
  if (run_span.active()) {
    run_span.set_detail("blocks=" + std::to_string(system.blocks().size()));
  }
  const double a_sys = system.availability();
  const double u_sys = std::max(1.0 - a_sys, 1e-300);
  const auto& blocks = system.blocks();
  std::vector<BlockImportance> out(blocks.size());
  const auto evaluate_block = [&](std::size_t i) {
    const auto& entry = blocks[i];
    obs::Span block_span("importance.block");
    if (block_span.active()) {
      block_span.set_detail(entry.diagram + "/" + entry.block.name);
    }
    BlockImportance imp;
    imp.diagram = entry.diagram;
    imp.block = entry.block.name;
    imp.availability = entry.availability;
    imp.yearly_downtime_min = entry.yearly_downtime_min;
    imp.solve_source = markov::to_string(entry.solve_trace.source);
    const double a_perfect = system.availability_with_override(
        entry.diagram, entry.block.name, 1.0);
    const double a_failed = system.availability_with_override(
        entry.diagram, entry.block.name, 0.0);
    imp.birnbaum = a_perfect - a_failed;
    imp.criticality = imp.birnbaum * (1.0 - entry.availability) / u_sys;
    imp.raw = (1.0 - a_failed) / u_sys;
    const double u_perfect = 1.0 - a_perfect;
    imp.rrw = u_perfect > 0.0 ? u_sys / u_perfect
                              : std::numeric_limits<double>::infinity();
    out[i] = imp;
  };
  if (par.cancel.valid()) {
    // Degraded mode: rows the token kept from completing are returned
    // with their status instead of failing the whole ranking.
    std::vector<char> done(blocks.size(), 0);
    exec::parallel_for_status(
        blocks.size(),
        [&](std::size_t i) {
          try {
            evaluate_block(i);
          } catch (...) {
            const auto folded =
                robust::point_status_from_exception(std::current_exception());
            out[i] = BlockImportance{};
            out[i].status = folded.first;
            out[i].status_detail = folded.second;
          }
          done[i] = 1;
        },
        par);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (done[i]) continue;
      const robust::StopReason r = par.cancel.reason();
      out[i].status = robust::point_status_from(r);
      out[i].status_detail =
          std::string("importance skipped (") + robust::to_string(r) + ")";
    }
    // Degraded rows keep their identity and zero measures.
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (out[i].ok()) continue;
      out[i].diagram = blocks[i].diagram;
      out[i].block = blocks[i].block.name;
      out[i].availability = 0.0;
      out[i].yearly_downtime_min = 0.0;
      out[i].criticality = 0.0;
      out[i].solve_source = "none";
    }
  } else {
    exec::parallel_for(blocks.size(), evaluate_block, par);
  }
  std::sort(out.begin(), out.end(),
            [](const BlockImportance& a, const BlockImportance& b) {
              return a.criticality > b.criticality;
            });
  return out;
}

std::vector<ParameterSensitivity> parameter_sensitivity(
    const mg::SystemModel& system, double relative_step,
    const exec::ParallelOptions& par) {
  obs::Span run_span("sensitivity.run");
  if (run_span.active()) {
    run_span.set_detail("blocks=" + std::to_string(system.blocks().size()));
  }
  if (!(relative_step > 0.0) || relative_step >= 1.0) {
    throw std::invalid_argument(
        "parameter_sensitivity: relative_step must be in (0, 1)");
  }
  const spec::GlobalParams& globals = system.spec().globals;

  // Perturbed probes go through the same memoized block solver the system
  // build used: symmetric perturbations shared across blocks (and repeat
  // sensitivity runs) hit the memo table instead of re-solving, and every
  // probe is solved by the identical checked episode, so elasticities
  // are bit-identical with and without the cache.
  // The loop token fans into the probe solves too, so a cancelled
  // sensitivity run stops inside the solve instead of finishing a doomed
  // probe. Tokens are not keyed, so memo keys (and the numbers) are
  // unchanged.
  cache::SolveCache* const probe_cache = system.options().cache;
  const auto block_availability = [&](const std::string& diagram,
                                      const spec::BlockSpec& block) {
    return mg::solve_block_cached(diagram, block, globals, par.cancel,
                                  probe_cache)
        .availability;
  };

  // ln U_sys with one block's availability replaced.
  const auto log_u_with = [&](const mg::SystemModel::BlockEntry& entry,
                              double block_availability_value) {
    const double a = system.availability_with_override(
        entry.diagram, entry.block.name, block_availability_value);
    return std::log(std::max(1.0 - a, 1e-300));
  };

  const auto sensitivity_for = [&](const mg::SystemModel::BlockEntry& entry) {
    ParameterSensitivity s;
    s.diagram = entry.diagram;
    s.block = entry.block.name;

    const auto elasticity = [&](auto&& set_param, double base) {
      if (base <= 0.0) return 0.0;
      spec::BlockSpec lo = entry.block;
      spec::BlockSpec hi = entry.block;
      set_param(lo, base * (1.0 - relative_step));
      set_param(hi, base * (1.0 + relative_step));
      const double u_lo =
          log_u_with(entry, block_availability(entry.diagram, lo));
      const double u_hi =
          log_u_with(entry, block_availability(entry.diagram, hi));
      return (u_hi - u_lo) / (std::log(1.0 + relative_step) -
                              std::log(1.0 - relative_step));
    };

    s.mtbf_elasticity = elasticity(
        [](spec::BlockSpec& b, double v) { b.mtbf_h = v; },
        entry.block.mtbf_h);
    s.mttr_elasticity = elasticity(
        [](spec::BlockSpec& b, double v) {
          const double total = b.mttr_diagnosis_min + b.mttr_corrective_min +
                               b.mttr_verification_min;
          if (total <= 0.0) return;
          const double scale = v / total;
          b.mttr_diagnosis_min *= scale;
          b.mttr_corrective_min *= scale;
          b.mttr_verification_min *= scale;
        },
        entry.block.mttr_diagnosis_min + entry.block.mttr_corrective_min +
            entry.block.mttr_verification_min);
    s.tresp_elasticity = elasticity(
        [](spec::BlockSpec& b, double v) { b.service_response_h = v; },
        entry.block.service_response_h);
    return s;
  };

  const auto& blocks = system.blocks();
  std::vector<ParameterSensitivity> out(blocks.size());
  exec::parallel_for(
      blocks.size(),
      [&](std::size_t i) { out[i] = sensitivity_for(blocks[i]); }, par);
  return out;
}

}  // namespace rascad::core

#include "gmb/workspace.hpp"

#include <stdexcept>
#include <utility>

#include "markov/absorbing.hpp"
#include "mg/measures.hpp"

namespace rascad::gmb {

void Workspace::add_markov(const std::string& name, markov::Ctmc chain,
                           markov::StateIndex initial) {
  if (contains(name)) {
    throw std::invalid_argument("Workspace: duplicate model name '" + name +
                                "'");
  }
  if (initial >= chain.size()) {
    throw std::out_of_range("Workspace: initial state out of range");
  }
  models_.emplace(name, MarkovEntry{std::move(chain), initial});
}

void Workspace::add_semi_markov(const std::string& name,
                                semimarkov::SemiMarkovProcess process) {
  if (contains(name)) {
    throw std::invalid_argument("Workspace: duplicate model name '" + name +
                                "'");
  }
  models_.emplace(name, SemiMarkovEntry{std::move(process)});
}

void Workspace::add_rbd(const std::string& name, rbd::RbdNodePtr tree) {
  if (contains(name)) {
    throw std::invalid_argument("Workspace: duplicate model name '" + name +
                                "'");
  }
  if (!tree) {
    throw std::invalid_argument("Workspace: null RBD tree");
  }
  models_.emplace(name, RbdEntry{std::move(tree)});
}

std::vector<std::string> Workspace::model_names() const {
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, entry] : models_) names.push_back(name);
  return names;
}

const ModelEntry& Workspace::entry(const std::string& name) const {
  const auto it = models_.find(name);
  if (it == models_.end()) {
    throw std::invalid_argument("Workspace: no model named '" + name + "'");
  }
  return it->second;
}

double Workspace::availability(const std::string& name) const {
  const auto cached = availability_cache_.find(name);
  if (cached != availability_cache_.end()) return cached->second;
  const ModelEntry& e = entry(name);
  double a = 1.0;
  if (const auto* m = std::get_if<MarkovEntry>(&e)) {
    markov::SolveTrace trace;
    const markov::SteadyStateResult steady =
        markov::solve_steady_state(m->chain, {}, &trace);
    a = markov::expected_reward(m->chain, steady.pi);
    trace_cache_[name] = std::move(trace);
  } else if (const auto* s = std::get_if<SemiMarkovEntry>(&e)) {
    markov::SolveTrace trace;
    const linalg::Vector pi = s->process.steady_state({}, &trace);
    a = 0.0;
    for (std::size_t i = 0; i < pi.size(); ++i) {
      a += pi[i] * s->process.reward(i);
    }
    trace_cache_[name] = std::move(trace);
  } else if (const auto* r = std::get_if<RbdEntry>(&e)) {
    a = r->tree->availability();
  }
  availability_cache_.emplace(name, a);
  return a;
}

const markov::SolveTrace* Workspace::solve_trace(
    const std::string& name) const {
  const auto it = trace_cache_.find(name);
  return it == trace_cache_.end() ? nullptr : &it->second;
}

double Workspace::yearly_downtime_min(const std::string& name) const {
  return mg::yearly_downtime_minutes(availability(name));
}

double Workspace::mttf_h(const std::string& name) const {
  const ModelEntry& e = entry(name);
  const auto* m = std::get_if<MarkovEntry>(&e);
  if (!m) {
    throw std::invalid_argument(
        "Workspace::mttf_h: '" + name + "' is not a Markov model");
  }
  if (m->chain.down_states().empty()) return 0.0;
  return markov::mttf(m->chain, m->initial);
}

rbd::RbdNodePtr Workspace::ref_leaf(const std::string& referenced_model) const {
  return rbd::RbdNode::leaf(referenced_model, availability(referenced_model));
}

}  // namespace rascad::gmb

// Graphical Model Builder (GMB) engine.
//
// GMB is RAScad's expert-mode module: general Markov chains, semi-Markov
// processes, and reliability block diagrams built state-by-state /
// block-by-block, composed hierarchically (an RBD leaf can reference a
// Markov model, an RBD can reference another RBD). This library provides
// the engine under the GUI: a workspace of named models with cross-model
// references and solution dispatch. The availability/reliability numbers it
// produces serve as the independent comparator for validating MG-generated
// chains, the role SHARPE/MEADEP play in the paper's Section 5.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "markov/ctmc.hpp"
#include "markov/health.hpp"
#include "markov/steady_state.hpp"
#include "rbd/rbd.hpp"
#include "semimarkov/smp.hpp"

namespace rascad::gmb {

/// A named model slot: exactly one of the three GMB model types.
struct MarkovEntry {
  markov::Ctmc chain;
  markov::StateIndex initial = 0;
};

struct SemiMarkovEntry {
  semimarkov::SemiMarkovProcess process;
};

struct RbdEntry {
  rbd::RbdNodePtr tree;
};

using ModelEntry = std::variant<MarkovEntry, SemiMarkovEntry, RbdEntry>;

class Workspace {
 public:
  /// Registers a model under `name`. Throws std::invalid_argument on a
  /// duplicate name or (for RBDs) a null tree.
  void add_markov(const std::string& name, markov::Ctmc chain,
                  markov::StateIndex initial = 0);
  void add_semi_markov(const std::string& name,
                       semimarkov::SemiMarkovProcess process);
  void add_rbd(const std::string& name, rbd::RbdNodePtr tree);

  bool contains(const std::string& name) const {
    return models_.count(name) != 0;
  }
  std::vector<std::string> model_names() const;

  const ModelEntry& entry(const std::string& name) const;

  /// Steady-state availability of the named model (solves on demand,
  /// memoizes). Markov and semi-Markov entries are solved in one checked
  /// episode; the episode is recorded and retrievable via
  /// `solve_trace`. RBD leaves created via `ref_leaf` resolve recursively.
  double availability(const std::string& name) const;

  /// Solve episode of the last `availability` solve for `name`, or
  /// nullptr if the model has not been solved (or is an RBD, which needs
  /// no numerical solve of its own).
  const markov::SolveTrace* solve_trace(const std::string& name) const;

  /// Yearly downtime in minutes of the named model.
  double yearly_downtime_min(const std::string& name) const;

  /// MTTF of a Markov model (down states made absorbing). Throws for RBD
  /// and semi-Markov entries (use model-specific analysis instead).
  double mttf_h(const std::string& name) const;

  /// An RBD leaf whose availability is the (lazily solved) availability of
  /// another model in this workspace — the hierarchical-composition hook.
  rbd::RbdNodePtr ref_leaf(const std::string& referenced_model) const;

 private:
  std::map<std::string, ModelEntry> models_;
  mutable std::map<std::string, double> availability_cache_;
  mutable std::map<std::string, markov::SolveTrace> trace_cache_;
};

}  // namespace rascad::gmb

#include "mg/measures.hpp"

#include <cmath>

#include "markov/absorbing.hpp"
#include "markov/steady_state.hpp"
#include "markov/transient.hpp"

namespace rascad::mg {

namespace {

/// Time increment of the hazard-rate estimate at the mission time (hours).
constexpr double kHazardDtH = 1.0;

}  // namespace

double yearly_downtime_minutes(double availability) {
  // 365 days * 24 h * 60 min.
  return (1.0 - availability) * 525'600.0;
}

BlockMeasures compute_measures(const GeneratedModel& model,
                               const spec::GlobalParams& globals) {
  BlockMeasures m;
  const markov::Ctmc& chain = model.chain;
  const markov::SteadyStateResult steady =
      markov::solve_steady_state(chain, {}, &m.solve_trace);
  m.availability = markov::expected_reward(chain, steady.pi);
  m.yearly_downtime_min = yearly_downtime_minutes(m.availability);
  m.eq_failure_rate = markov::equivalent_failure_rate(chain, steady.pi);
  m.eq_recovery_rate = markov::equivalent_recovery_rate(chain, steady.pi);
  m.outages_per_year = m.eq_failure_rate * m.availability * 8760.0;

  const bool can_fail = !chain.down_states().empty();
  const double mission = globals.mission_time_h;
  const linalg::Vector pi0 = markov::point_mass(chain, model.initial);

  if (can_fail && mission > 0.0) {
    const markov::IntervalMeasures interval =
        markov::interval_measures(chain, pi0, mission);
    m.interval_availability = interval.availability;
    m.interval_eq_failure_rate = interval.failure_rate;
    m.interval_eq_recovery_rate = interval.recovery_rate;
  }

  if (can_fail) {
    const markov::Ctmc rel = markov::make_down_states_absorbing(chain);
    m.mttf_h = markov::mttf(chain, model.initial);
    if (mission > 0.0) {
      m.reliability_at_mission = markov::reliability_at(rel, pi0, mission);
      if (m.reliability_at_mission > 0.0) {
        m.interval_failure_rate =
            -std::log(m.reliability_at_mission) / mission;
      } else {
        m.interval_failure_rate =
            m.mttf_h > 0.0 ? 1.0 / m.mttf_h : 0.0;
      }
      m.hazard_rate_at_mission =
          markov::hazard_rate(rel, pi0, mission, kHazardDtH);
    }
  }
  return m;
}

}  // namespace rascad::mg

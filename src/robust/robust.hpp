// Obs-integrated half of the robustness layer.
//
// cancel.hpp is header-only and dependency-free so the low layers can poll
// tokens; everything that talks to the metrics registry lives here, in
// rascad_robust (links rascad_obs):
//
//   * record_stop(token, site) — called once per stopped episode by the
//     layer that owns the token (a checked solve, a degraded sweep).
//     Bumps robust.cancelled / robust.deadline_exceeded and, when a
//     checkpoint observed the stop, feeds robust.cancel_latency_ms.
//   * StallWatchdog (watchdog.hpp) — flags solves that fail to observe
//     their token within a budget.
#pragma once

#include "robust/cancel.hpp"

namespace rascad::robust {

/// Records a stopped token's outcome in the global metrics registry:
/// robust.cancelled or robust.deadline_exceeded (by reason), and the
/// robust.cancel_latency_ms histogram when a checkpoint observed the stop.
/// `site` tags a robust.stop event in the trace buffer (e.g.
/// "mttf", "sweep"). No-op for tokens that have not stopped.
void record_stop(const CancelToken& token, const char* site);

}  // namespace rascad::robust

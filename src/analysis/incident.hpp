// Checker -> incident wiring: both violation sources reduced to seeds.
//
// obs::IncidentReport (obs/incident.hpp) assembles forensic bundles from
// IncidentSeed rows and an event stream; it deliberately knows nothing
// about checkers. This header is the other half: the post-hoc oracles
// (CheckReport over an assembled Execution) and the streaming checker
// (seeds recorded live at detection time) each map onto the same build
// call, so the bundle format — and everything downstream: its rendering,
// the e26 harness, the CI artifact — is identical no matter which checker
// fired.
//
// The two sources differ in exactly the way the epoch-attribution rule
// predicts: post-hoc seeds carry no detection instant (the oracle replays
// a finished run), so their detected epoch falls back to the last chain
// event; streaming seeds carry the simulated time the online checker
// actually flagged the violation.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/streaming.hpp"
#include "core/execution.hpp"
#include "obs/incident.hpp"

namespace analysis {

/// Seeds from a post-hoc report: one per violation with an attributed
/// transaction index, carrying the exact violation message and the
/// transaction's timestamp from the assembled execution.
template <core::Application App>
std::vector<obs::IncidentSeed> incident_seeds(
    const CheckReport& report, const core::Execution<App>& exec) {
  std::vector<obs::IncidentSeed> seeds;
  for (std::size_t i = 0; i < report.violations().size(); ++i) {
    const std::size_t tx = report.violation_tx(i);
    if (tx == CheckReport::kNoTx || tx >= exec.size()) continue;
    obs::IncidentSeed s;
    s.message = report.violations()[i];
    s.tx_index = tx;
    s.ts_logical = exec.tx(tx).ts.logical;
    s.ts_node = exec.tx(tx).ts.node;
    seeds.push_back(std::move(s));
  }
  return seeds;
}

/// Assemble the forensic bundle for a post-hoc report: seeds from the
/// report/execution pairing, attribution over `events` (the retained ring
/// or a full capture). Empty report => empty bundle.
template <core::Application App>
obs::IncidentReport build_incident_report(
    const CheckReport& report, const core::Execution<App>& exec,
    const std::vector<obs::Event>& events,
    const std::vector<obs::PinnedWindow>& pinned = {},
    const obs::MetricsRegistry* metrics = nullptr) {
  return obs::IncidentReport::build(
      report.title().empty() ? "check" : report.title(), events,
      incident_seeds(report, exec), pinned, metrics);
}

/// Assemble the forensic bundle for a streaming checker: its live-recorded
/// seeds (violations and divergence events, with detection instants) plus
/// the windows it pinned when each fired.
template <core::Application App>
obs::IncidentReport build_incident_report(
    const StreamingChecker<App>& checker, const std::vector<obs::Event>& events,
    const obs::MetricsRegistry* metrics = nullptr) {
  return obs::IncidentReport::build("streaming checker", events,
                                    checker.incident_seeds(),
                                    checker.pinned_windows(), metrics);
}

}  // namespace analysis

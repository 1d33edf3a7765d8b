// Counter-example context from the event trace.
//
// When an execution checker rejects, the violation string names a
// transaction index but says nothing about *how* the system got there —
// which merges, drops, crashes and repairs surrounded the offending update.
// This pass joins the two observability worlds: it maps each violating
// transaction index back to its globally-unique timestamp, prints the
// update's CAUSAL CHAIN (originate -> fan-out -> per-replica deliver ->
// merge, joined by obs::CausalGraph over the retained ring), its
// per-replica provenance (the update's obs::FlameProfile timing row), and
// finally the ring window around every event that mentions the update —
// chain first, because "which path did this update take" is the question a
// violated theorem poses.
#pragma once

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>

#include "analysis/report.hpp"
#include "core/execution.hpp"
#include "obs/causal.hpp"
#include "obs/epoch.hpp"
#include "obs/flame.hpp"
#include "obs/incident.hpp"
#include "obs/tracer.hpp"

namespace analysis {

/// Render an assembled incident bundle (analysis/incident.hpp) — the
/// epoch-attributed successor of the per-tx overloads below: instead of
/// re-deriving chain and window per violating transaction, it prints the
/// bundle's admission/detection epochs, critical-path decomposition and
/// contributing updates next to them. Empty bundle => empty string.
inline std::string trace_dump(const obs::IncidentReport& incidents) {
  if (incidents.empty()) return {};
  return incidents.render();
}

/// Render the trace context for every transaction a report's violations
/// attribute (CheckReport::violating_txs). Empty string when the report is
/// clean. `context` = events of surrounding context kept on each side of
/// every matching trace event (obs::TraceSource::slice_around). Provenance
/// is printed whenever the update's originate event is still in the ring;
/// it lists every node of the ring's node tracks, so a node that never
/// delivered the update shows as such.
template <core::Application App>
std::string trace_dump(const CheckReport& report,
                       const core::Execution<App>& exec,
                       const obs::TraceSource& tracer,
                       std::size_t context = 6) {
  if (report.ok()) return {};
  std::ostringstream os;
  os << "trace context for "
     << (report.title().empty() ? "check" : report.title()) << ":\n";
  const std::vector<obs::Event> ring = tracer.ring();
  const obs::CausalGraph graph = obs::CausalGraph::build(ring);
  const obs::FlameProfile flame =
      obs::FlameProfile::build(ring, graph, obs::EpochIndex::build(ring));
  // The ring comes from a live run, so its node ids are the cluster's.
  std::size_t nodes = 0;
  for (const obs::Event& e : ring) {
    if (e.node != obs::kControlNode) {
      nodes = std::max<std::size_t>(nodes, std::size_t{e.node} + 1);
    }
  }
  for (std::size_t i : report.violating_txs()) {
    if (i >= exec.size()) continue;
    const core::Timestamp& ts = exec.tx(i).ts;
    os << "-- tx " << i << " ts=" << ts.logical << ":" << ts.node << " --\n";
    const std::vector<std::size_t> chain =
        graph.update_chain(ts.logical, ts.node);
    if (!chain.empty()) {
      os << "causal chain (" << chain.size() << " events in ring):\n";
      for (const std::size_t k : chain) {
        os << "  [" << k << "] " << obs::serialize({ring[k]});
      }
    }
    for (const obs::UpdateTiming& ut : flame.timings()) {
      if (ut.key == obs::CausalGraph::UpdateKey{ts.logical, ts.node}) {
        os << "provenance:\n" << ut.render_provenance(nodes);
        break;
      }
    }
    const std::vector<obs::Event> slice =
        tracer.slice_around(ts.logical, ts.node, context);
    if (slice.empty()) {
      os << "(no events for this update retained in the trace ring)\n";
    } else {
      os << "ring window:\n" << obs::serialize(slice);
    }
  }
  return os.str();
}

/// Render pinned counter-example windows (obs::PinnedWindow, captured by a
/// StreamingChecker at the moment each violation was detected). Unlike the
/// live-ring overload above, this cannot come back empty just because the
/// run kept going: the slice was taken before the ring could wrap past the
/// offending update.
template <core::Application App>
std::string trace_dump(const CheckReport& report,
                       const core::Execution<App>& exec,
                       const std::vector<obs::PinnedWindow>& pinned) {
  if (report.ok()) return {};
  std::ostringstream os;
  os << "pinned trace context for "
     << (report.title().empty() ? "check" : report.title()) << ":\n";
  for (std::size_t i : report.violating_txs()) {
    if (i >= exec.size()) continue;
    const core::Timestamp& ts = exec.tx(i).ts;
    os << "-- tx " << i << " ts=" << ts.logical << ":" << ts.node << " --\n";
    bool found = false;
    for (const obs::PinnedWindow& w : pinned) {
      if (w.ts_logical != ts.logical || w.ts_node != ts.node) continue;
      found = true;
      if (w.events.empty()) {
        os << "(window pinned with no ring events)\n";
      } else {
        os << "pinned window:\n" << obs::serialize(w.events);
      }
      break;
    }
    if (!found) os << "(no window pinned for this update)\n";
  }
  return os.str();
}

}  // namespace analysis

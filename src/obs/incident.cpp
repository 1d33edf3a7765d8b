#include "obs/incident.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "obs/causal.hpp"

namespace obs {

namespace {

std::int64_t to_us(double seconds) {
  return std::llround(seconds * 1e6);
}

/// Shortest decimal that round-trips the double — same convention as the
/// flame/tracer exporters, so bundle bytes are exact.
void put_time(std::ostream& os, double t) {
  std::array<char, 32> buf;
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), t);
  os << std::string_view(buf.data(), static_cast<std::size_t>(end - buf.data()));
}

/// Minimal JSON string escaping. Messages and labels are ASCII by
/// construction; this keeps the bundle well-formed even if one ever is not.
void put_escaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf;
          std::snprintf(buf.data(), buf.size(), "\\u%04x", c);
          os << buf.data();
        } else {
          os << c;
        }
    }
  }
}

/// One event as its canonical serialize() line, trailing newline stripped.
std::string event_line(const Event& e) {
  std::string line = serialize({e});
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

void put_event_array(std::ostream& os, const std::vector<Event>& events) {
  os << '[';
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) os << ',';
    os << '"';
    put_escaped(os, event_line(events[i]));
    os << '"';
  }
  os << ']';
}

void put_indented(std::ostream& os, const std::vector<Event>& events,
                  const char* indent) {
  for (const Event& e : events) {
    os << indent << event_line(e) << '\n';
  }
}

bool registry_empty(const MetricsRegistry& reg) {
  return reg.counters().empty() && reg.gauges().empty() &&
         reg.histograms().empty();
}

bool forensic_name(const std::string& name) {
  return name.rfind("checker.", 0) == 0 || name.rfind("epoch.", 0) == 0;
}

}  // namespace

IncidentReport IncidentReport::build(std::string title,
                                     const std::vector<Event>& events,
                                     const std::vector<IncidentSeed>& seeds,
                                     const std::vector<PinnedWindow>& pinned,
                                     const MetricsRegistry* metrics,
                                     std::size_t window_context) {
  IncidentReport report;
  report.title_ = std::move(title);
  report.epochs_ = EpochIndex::build(events);
  for (const Event& e : events) {
    if (e.node != kControlNode) {
      report.nodes_ = std::max<std::size_t>(report.nodes_, e.node + 1);
    }
  }
  const CausalGraph graph = CausalGraph::build(events);
  const FlameProfile flame = FlameProfile::build(events, graph, report.epochs_);

  if (metrics != nullptr) {
    for (const auto& [name, v] : metrics->counters()) {
      if (forensic_name(name)) report.metrics_.set_counter(name, v);
    }
    for (const auto& [name, v] : metrics->gauges()) {
      if (forensic_name(name)) report.metrics_.set_gauge(name, v);
    }
    for (const auto& [name, h] : metrics->histograms()) {
      if (forensic_name(name)) {
        report.metrics_.histogram(name, Histogram(h.bounds())).merge_from(h);
      }
    }
  }

  report.incidents_.reserve(seeds.size());
  for (const IncidentSeed& seed : seeds) {
    Incident inc;
    inc.seed = seed;

    const std::vector<std::size_t> chain =
        graph.update_chain(seed.ts_logical, seed.ts_node);
    inc.in_stream = !chain.empty();
    std::size_t originate_idx = static_cast<std::size_t>(-1);
    for (const std::size_t i : chain) {
      if (events[i].type == EventType::kBroadcastOriginate) {
        originate_idx = i;
        break;
      }
    }
    // Attribution by ADMISSION: the epoch of the originate event. A chain
    // whose originate fell off the ring attributes to its earliest
    // retained event — still the best available lower bound on admission.
    const std::size_t anchor =
        originate_idx != static_cast<std::size_t>(-1) ? originate_idx
        : inc.in_stream                               ? chain.front()
                                                      : 0;
    if (inc.in_stream) {
      inc.admitted_epoch = report.epochs_.epoch_of_event(anchor);
      inc.admitted_label = report.epochs_.epoch(inc.admitted_epoch).label();
      inc.chain.reserve(chain.size());
      for (const std::size_t i : chain) inc.chain.push_back(events[i]);
    }
    if (seed.detected_at >= 0.0) {
      inc.detected_epoch = report.epochs_.epoch_at(seed.detected_at);
    } else if (inc.in_stream) {
      inc.detected_epoch = report.epochs_.epoch_of_event(chain.back());
    }

    for (const UpdateTiming& t : flame.timings()) {
      if (t.key.first == seed.ts_logical && t.key.second == seed.ts_node) {
        inc.timing = t;
        inc.timing_known = true;
        break;
      }
    }

    // Contributing updates: every distinct update in the causal ancestry
    // of the admission, each attributed to the epoch that admitted IT.
    if (inc.in_stream) {
      std::map<CausalGraph::UpdateKey, bool> keys;
      for (const std::size_t i : graph.ancestry(anchor)) {
        const Event& e = events[i];
        if (e.ts_logical == 0 && e.ts_node == 0) continue;
        if (e.ts_logical == seed.ts_logical && e.ts_node == seed.ts_node) {
          continue;
        }
        keys.emplace(CausalGraph::UpdateKey{e.ts_logical, e.ts_node}, true);
      }
      for (const auto& [key, unused] : keys) {
        IncidentContributor c;
        c.ts_logical = key.first;
        c.ts_node = key.second;
        std::size_t c_anchor = static_cast<std::size_t>(-1);
        for (const std::size_t i : graph.update_chain(key.first, key.second)) {
          c_anchor = i;
          if (events[i].type == EventType::kBroadcastOriginate) break;
        }
        if (c_anchor == static_cast<std::size_t>(-1)) continue;
        c.admitted_epoch = report.epochs_.epoch_of_event(c_anchor);
        c.epoch_label = report.epochs_.epoch(c.admitted_epoch).label();
        c.originate_us = to_us(events[c_anchor].time);
        inc.contributors.push_back(std::move(c));
      }
    }

    for (const PinnedWindow& w : pinned) {
      if (w.ts_logical == seed.ts_logical && w.ts_node == seed.ts_node) {
        inc.window = w.events;
        break;
      }
    }
    if (inc.window.empty()) {
      inc.window = slice_window(events, seed.ts_logical, seed.ts_node,
                                window_context);
    }
    report.incidents_.push_back(std::move(inc));
  }
  return report;
}

std::string IncidentReport::to_json() const {
  std::ostringstream os;
  os << "{\"title\":\"";
  put_escaped(os, title_);
  os << "\",\"epochs\":[";
  for (std::size_t i = 0; i < epochs_.size(); ++i) {
    const Epoch& e = epochs_.epoch(i);
    if (i > 0) os << ',';
    os << "{\"index\":" << i << ",\"label\":\"";
    put_escaped(os, e.label());
    os << "\",\"start\":";
    put_time(os, e.start);
    os << ",\"end\":";
    put_time(os, e.end);
    os << '}';
  }
  os << "],\"incidents\":[";
  for (std::size_t i = 0; i < incidents_.size(); ++i) {
    const Incident& inc = incidents_[i];
    if (i > 0) os << ',';
    os << "{\"message\":\"";
    put_escaped(os, inc.seed.message);
    os << '"';
    if (inc.seed.tx_index != static_cast<std::size_t>(-1)) {
      os << ",\"tx_index\":" << inc.seed.tx_index;
    }
    os << ",\"ts\":\"" << inc.seed.ts_logical << ':' << inc.seed.ts_node
       << '"';
    if (inc.seed.detected_at >= 0.0) {
      os << ",\"detected_at_us\":" << to_us(inc.seed.detected_at);
    }
    os << ",\"in_stream\":" << (inc.in_stream ? "true" : "false");
    if (inc.in_stream) {
      os << ",\"admitted_epoch\":" << inc.admitted_epoch
         << ",\"admitted_label\":\"";
      put_escaped(os, inc.admitted_label);
      os << "\",\"detected_epoch\":" << inc.detected_epoch;
    }
    if (inc.timing_known) {
      os << ",\"critical\":{\"flood_wait_us\":" << inc.timing.crit_flood_us
         << ",\"deliver_us\":" << inc.timing.crit_deliver_us
         << ",\"merge_us\":" << inc.timing.crit_merge_us
         << ",\"total_us\":" << inc.timing.critical_us()
         << ",\"replicas\":" << inc.timing.replicas
         << ",\"complete\":" << (inc.timing.complete ? "true" : "false")
         << ",\"dominant\":\"";
      put_escaped(os, inc.timing.dominant);
      os << "\"}";
    }
    os << ",\"contributors\":[";
    for (std::size_t c = 0; c < inc.contributors.size(); ++c) {
      const IncidentContributor& ic = inc.contributors[c];
      if (c > 0) os << ',';
      os << "{\"ts\":\"" << ic.ts_logical << ':' << ic.ts_node
         << "\",\"epoch\":" << ic.admitted_epoch << ",\"label\":\"";
      put_escaped(os, ic.epoch_label);
      os << "\",\"originate_us\":" << ic.originate_us << '}';
    }
    os << "],\"chain\":";
    put_event_array(os, inc.chain);
    os << ",\"window\":";
    put_event_array(os, inc.window);
    os << '}';
  }
  os << "],\"metrics\":";
  if (registry_empty(metrics_)) {
    os << "null";
  } else {
    os << metrics_.to_json();
  }
  os << "}\n";
  return os.str();
}

std::string IncidentReport::folded() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < incidents_.size(); ++i) {
    const Incident& inc = incidents_[i];
    if (!inc.timing_known) continue;
    const std::string prefix = "incident" + std::to_string(i) + ":epoch" +
                               std::to_string(inc.admitted_epoch) + ":" +
                               inc.admitted_label + ";";
    if (inc.timing.crit_flood_us > 0) {
      os << prefix << "flood_wait " << inc.timing.crit_flood_us << '\n';
    }
    if (inc.timing.crit_deliver_us > 0) {
      os << prefix << "deliver " << inc.timing.crit_deliver_us << '\n';
    }
    if (inc.timing.crit_merge_us > 0) {
      os << prefix << "merge " << inc.timing.crit_merge_us << '\n';
    }
  }
  return os.str();
}

std::string IncidentReport::render() const {
  if (incidents_.empty()) return {};
  std::ostringstream os;
  os << "incident report: " << (title_.empty() ? "check" : title_) << " — "
     << incidents_.size() << " incident(s)\n";
  for (std::size_t i = 0; i < incidents_.size(); ++i) {
    const Incident& inc = incidents_[i];
    os << "-- incident " << i << ": " << inc.seed.message << "\n";
    os << "   update ts=" << inc.seed.ts_logical << ':' << inc.seed.ts_node;
    if (inc.seed.tx_index != static_cast<std::size_t>(-1)) {
      os << " tx=" << inc.seed.tx_index;
    }
    os << '\n';
    if (!inc.in_stream) {
      os << "   (update not in the supplied stream; no epoch attribution)\n";
    } else {
      const Epoch& adm = epochs_.epoch(inc.admitted_epoch);
      os << "   admitted in epoch " << inc.admitted_epoch << " ["
         << inc.admitted_label << "] spanning [";
      put_time(os, adm.start);
      os << ", ";
      put_time(os, adm.end);
      os << "); detected in epoch " << inc.detected_epoch << " ["
         << epochs_.epoch(inc.detected_epoch).label() << "]\n";
    }
    if (inc.timing_known) {
      os << "   critical path: flood_wait=" << inc.timing.crit_flood_us
         << "us deliver=" << inc.timing.crit_deliver_us
         << "us merge=" << inc.timing.crit_merge_us
         << "us dominant=" << inc.timing.dominant
         << " replicas=" << inc.timing.replicas << '\n';
      os << "   provenance:\n";
      std::istringstream lines(inc.timing.render_provenance(nodes_));
      for (std::string line; std::getline(lines, line);) {
        os << "     " << line << '\n';
      }
    }
    if (!inc.contributors.empty()) {
      os << "   contributing updates (" << inc.contributors.size() << "):\n";
      for (const IncidentContributor& c : inc.contributors) {
        os << "     ts=" << c.ts_logical << ':' << c.ts_node
           << " admitted in epoch " << c.admitted_epoch << " ["
           << c.epoch_label << "]\n";
      }
    }
    if (!inc.chain.empty()) {
      os << "   causal chain (" << inc.chain.size() << " events):\n";
      put_indented(os, inc.chain, "     ");
    }
    if (inc.window.empty()) {
      os << "   (no trace window available)\n";
    } else {
      os << "   trace window (" << inc.window.size() << " events):\n";
      put_indented(os, inc.window, "     ");
    }
  }
  return os.str();
}

}  // namespace obs

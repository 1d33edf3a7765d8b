#include "obs/flame.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <sstream>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"

namespace obs {

namespace {

std::int64_t to_us(double seconds) {
  return std::llround(seconds * 1e6);
}

/// Shortest decimal that round-trips the double — keeps the JSON exporter
/// byte-exact (same convention as serialize() in tracer.cpp).
void put_time(std::ostream& os, double t) {
  std::array<char, 32> buf;
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), t);
  os << std::string_view(buf.data(), static_cast<std::size_t>(end - buf.data()));
}

/// Attribute one stage instance at root -> frame [-> sub].
void add_leaf(FlameNode& root, const std::string& frame,
              const std::string& sub, std::int64_t us) {
  FlameNode* n = &root.children[frame];
  if (!sub.empty()) n = &n->children[sub];
  n->self_us += us;
  ++n->samples;
}

void finalize_totals(FlameNode& n) {
  n.total_us = n.self_us;
  for (auto& [name, child] : n.children) {
    finalize_totals(child);
    n.total_us += child.total_us;
  }
}

void collect_leaves(const FlameNode& n, const std::string& path,
                    std::vector<StageShare>& out) {
  if (n.children.empty()) {
    out.push_back({path, n.self_us, n.samples});
    return;
  }
  for (const auto& [name, child] : n.children) {
    collect_leaves(child, path.empty() ? name : path + ';' + name, out);
  }
}

/// The cell of `node`, or nullptr. A linear scan: there is one cell per
/// node that delivered, and the id may come from a file.
template <typename Cells>
auto find_cell(Cells& cells, sim::NodeId node) -> decltype(&cells.front()) {
  for (auto& c : cells) {
    if (c.node == node) return &c;
  }
  return nullptr;
}

void emit_tree_json(std::ostream& os, const FlameNode& n) {
  os << "{\"self_us\":" << n.self_us << ",\"total_us\":" << n.total_us
     << ",\"samples\":" << n.samples << ",\"children\":{";
  bool first = true;
  for (const auto& [name, child] : n.children) {
    if (!first) os << ',';
    first = false;
    os << '"' << name << "\":";
    emit_tree_json(os, child);
  }
  os << "}}";
}

}  // namespace

FlameProfile FlameProfile::build(const std::vector<Event>& events,
                                 const CausalGraph& graph,
                                 const EpochIndex& epochs) {
  FlameProfile p;
  p.epochs_.reserve(epochs.size());
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const Epoch& e = epochs.epoch(i);
    EpochProfile ep;
    ep.epoch = i;
    ep.label = e.label();
    ep.start = e.start;
    ep.end = e.end;
    p.epochs_.push_back(std::move(ep));
  }

  for (const CausalGraph::UpdateKey& key : graph.update_keys()) {
    // Walk the chain once (record order): originate, the origin's flood
    // send, then per node its first deliver and the first merge after it.
    UpdateTiming ut;
    ut.key = key;
    std::size_t originate_idx = static_cast<std::size_t>(-1);
    double t_send = -1.0;
    for (const std::size_t i : graph.update_chain(key.first, key.second)) {
      const Event& e = events[i];
      switch (e.type) {
        case EventType::kBroadcastOriginate:
          originate_idx = i;
          ut.origin = e.node;
          ut.originate = e.time;
          break;
        case EventType::kBroadcastSend:
          if (t_send < 0.0) t_send = e.time;
          ut.flooded = true;
          ut.fanout += e.b;
          break;
        case EventType::kBroadcastDeliver:
          if (originate_idx != static_cast<std::size_t>(-1) &&
              find_cell(ut.cells, e.node) == nullptr) {
            ut.cells.push_back({e.node, e.time});
          }
          break;
        case EventType::kMergeTailAppend:
        case EventType::kMergeMidInsert:
          if (ReplicaCell* c = find_cell(ut.cells, e.node);
              c != nullptr && c->merge < 0.0) {
            c->merge = e.time;
            c->mid_insert = e.type == EventType::kMergeMidInsert;
            c->displaced = c->mid_insert ? e.a : 0;
          }
          break;
        default:
          break;
      }
    }
    if (originate_idx == static_cast<std::size_t>(-1)) {
      // Truncated stream: the originate fell off the ring, so neither the
      // epoch nor t0 is known. Skip rather than misattribute.
      continue;
    }
    const double t0 = ut.originate;
    if (t_send < 0.0) t_send = t0;
    ut.epoch = epochs.epoch_of_event(originate_idx);
    ut.send = t_send;
    EpochProfile& ep = p.epochs_[ut.epoch];
    ++ep.updates;

    // The flame attributes the remote replicas only.
    std::vector<const ReplicaCell*> replicas;
    for (const ReplicaCell& c : ut.cells) {
      if (c.node != ut.origin) replicas.push_back(&c);
    }
    add_leaf(ep.root, "flood_wait", "", to_us(t_send - t0));
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      const char* rank = r == 0                  ? "first"
                         : r == replicas.size() - 1 ? "last"
                                                    : "mid";
      add_leaf(ep.root, "deliver", rank, to_us(replicas[r]->deliver - t_send));
      if (replicas[r]->merge >= 0.0) {
        ++ut.replicas;
        add_leaf(ep.root, "merge",
                 replicas[r]->mid_insert ? "mid_insert" : "tail_append",
                 to_us(replicas[r]->merge - replicas[r]->deliver));
      }
    }

    // Critical path: the replica whose first merge completes last. Strict
    // comparison keeps ties on the earliest-delivered replica — chain order
    // is record order, so this is deterministic.
    const ReplicaCell* crit = nullptr;
    for (const ReplicaCell* r : replicas) {
      if (r->merge < 0.0) continue;
      if (crit == nullptr || r->merge > crit->merge) crit = r;
    }
    ut.complete = crit != nullptr;
    if (crit == nullptr) {
      ++ep.incomplete;
    } else {
      ut.critical_end = crit->merge;
      ut.critical_node = crit->node;
      ut.crit_flood_us = to_us(t_send - t0);
      ut.crit_deliver_us = to_us(crit->deliver - t_send);
      ut.crit_merge_us = to_us(crit->merge - crit->deliver);
      ut.dominant = "flood_wait";
      std::int64_t best = ut.crit_flood_us;
      if (ut.crit_deliver_us > best) {
        best = ut.crit_deliver_us;
        ut.dominant = "deliver";
      }
      if (ut.crit_merge_us > best) {
        best = ut.crit_merge_us;
        ut.dominant = "merge";
      }
      ep.critical_total_us += ut.critical_us();
      ep.critical_max_us = std::max(ep.critical_max_us, ut.critical_us());
      ++ep.dominant_counts[ut.dominant];
    }
    p.timings_.push_back(std::move(ut));
  }

  for (EpochProfile& ep : p.epochs_) finalize_totals(ep.root);
  return p;
}

std::vector<StageShare> FlameProfile::top_stages(std::size_t i,
                                                 std::size_t k) const {
  std::vector<StageShare> leaves;
  if (i >= epochs_.size()) return leaves;
  collect_leaves(epochs_[i].root, "", leaves);
  std::sort(leaves.begin(), leaves.end(),
            [](const StageShare& a, const StageShare& b) {
              if (a.us != b.us) return a.us > b.us;
              return a.stage < b.stage;
            });
  if (leaves.size() > k) leaves.resize(k);
  return leaves;
}

std::string FlameProfile::folded() const {
  std::ostringstream os;
  for (const EpochProfile& ep : epochs_) {
    std::vector<StageShare> leaves;
    collect_leaves(ep.root, "", leaves);
    for (const StageShare& s : leaves) {
      os << "epoch" << ep.epoch << ':' << ep.label << ';' << s.stage << ' '
         << s.us << '\n';
    }
  }
  return os.str();
}

std::string FlameProfile::to_json() const {
  std::ostringstream os;
  os << "{\"epochs\":[";
  for (std::size_t i = 0; i < epochs_.size(); ++i) {
    const EpochProfile& ep = epochs_[i];
    if (i != 0) os << ',';
    os << "{\"epoch\":" << ep.epoch << ",\"label\":\"" << ep.label
       << "\",\"start\":";
    put_time(os, ep.start);
    os << ",\"end\":";
    put_time(os, ep.end);
    os << ",\"updates\":" << ep.updates << ",\"incomplete\":" << ep.incomplete
       << ",\"critical_total_us\":" << ep.critical_total_us
       << ",\"critical_max_us\":" << ep.critical_max_us << ",\"dominant\":{";
    bool first = true;
    for (const auto& [stage, n] : ep.dominant_counts) {
      if (!first) os << ',';
      first = false;
      os << '"' << stage << "\":" << n;
    }
    os << "},\"tree\":";
    emit_tree_json(os, ep.root);
    os << '}';
  }
  os << "]}\n";
  return os.str();
}

std::string FlameProfile::perfetto_json() const {
  // Track layout: tid 0 = epoch banners, tid 1..3 = the pipeline stages of
  // each update's critical path laid on the simulated timeline. Every ts /
  // dur is integer microseconds, so the document is byte-exact.
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const EpochProfile& ep : epochs_) {
    sep();
    const std::int64_t start = to_us(ep.start);
    const std::int64_t dur = std::max<std::int64_t>(to_us(ep.end) - start, 1);
    os << "{\"name\":\"" << ep.label << "\",\"ph\":\"X\",\"ts\":" << start
       << ",\"dur\":" << dur << ",\"pid\":0,\"tid\":0,\"args\":{\"epoch\":"
       << ep.epoch << ",\"updates\":" << ep.updates << "}}";
  }
  struct Seg {
    const char* name;
    long long tid;
  };
  for (const UpdateTiming& ut : timings_) {
    if (!ut.complete) continue;
    const std::array<Seg, 3> segs = {{{"flood_wait", 1}, {"deliver", 2},
                                      {"merge", 3}}};
    const std::array<std::int64_t, 3> durs = {ut.crit_flood_us,
                                              ut.crit_deliver_us,
                                              ut.crit_merge_us};
    std::int64_t at = to_us(ut.originate);
    for (std::size_t s = 0; s < segs.size(); ++s) {
      if (durs[s] <= 0) continue;  // zero-length slices only add clutter
      sep();
      os << "{\"name\":\"" << segs[s].name << "\",\"ph\":\"X\",\"ts\":" << at
         << ",\"dur\":" << durs[s] << ",\"pid\":0,\"tid\":" << segs[s].tid
         << ",\"args\":{\"ts\":\"" << ut.key.first << ':' << ut.key.second
         << "\",\"epoch\":" << ut.epoch << ",\"dominant\":\"" << ut.dominant
         << "\"}}";
      at += durs[s];
    }
  }
  for (const Seg& t : {Seg{"epochs", 0}, Seg{"critical.flood_wait", 1},
                       Seg{"critical.deliver", 2}, Seg{"critical.merge", 3}}) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << t.tid
       << ",\"args\":{\"name\":\"" << t.name << "\"}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

std::string UpdateTiming::render_provenance(std::size_t nodes) const {
  std::ostringstream os;
  os << "update " << key.first << ':' << key.second << " originated at t="
     << originate << " on node " << key.second << ", flood fan-out "
     << fanout << '\n';
  for (std::size_t n = 0; n < nodes; ++n) {
    os << "  node " << n << ':';
    const ReplicaCell* c = find_cell(cells, static_cast<sim::NodeId>(n));
    if (c == nullptr) {
      os << " never delivered\n";
      continue;
    }
    os << " deliver +" << c->deliver - originate;
    if (c->merge >= 0.0) {
      os << " merge +" << c->merge - originate;
      if (c->displaced > 0) os << " (displaced " << c->displaced << ")";
    } else {
      os << " merge MISSING";
    }
    os << '\n';
  }
  return os.str();
}

void FlameProfile::export_to(MetricsRegistry& reg, const EpochIndex& epochs,
                             std::size_t cluster_size) const {
  namespace mn = metric_names;
  reg.add_counter(mn::kEpochCount, epochs.size());
  reg.add_counter(mn::kEpochTransitions, epochs.transitions());
  reg.add_counter(mn::kEpochCoalesced, epochs.coalesced());
  std::uint64_t updates = 0, incomplete = 0;
  std::int64_t crit_total = 0, crit_max = 0;
  double quiet_s = 0.0, degraded_s = 0.0;
  std::map<std::string, std::uint64_t> dominant;
  for (const EpochProfile& ep : epochs_) {
    updates += ep.updates;
    incomplete += ep.incomplete;
    crit_total += ep.critical_total_us;
    crit_max = std::max(crit_max, ep.critical_max_us);
    (epochs.epoch(ep.epoch).quiet() ? quiet_s : degraded_s) +=
        ep.end - ep.start;
    for (const auto& [stage, n] : ep.dominant_counts) dominant[stage] += n;
  }
  reg.add_counter(mn::kEpochUpdatesProfiled, updates);
  reg.add_counter(mn::kEpochUpdatesIncomplete, incomplete);
  reg.add_counter(mn::kEpochCriticalPathUsTotal,
                  static_cast<std::uint64_t>(crit_total));
  reg.add_counter(mn::kEpochCriticalPathUsMax,
                  static_cast<std::uint64_t>(crit_max));
  for (const auto& [stage, n] : dominant) {
    reg.add_counter(mn::kEpochDominantPrefix + stage, n);
  }
  reg.set_gauge(mn::kEpochQuietSeconds, quiet_s);
  reg.set_gauge(mn::kEpochDegradedSeconds, degraded_s);

  Histogram& critical = reg.histogram(mn::kEpochCriticalPathSeconds);
  Histogram& replication = reg.histogram(mn::kLifecycleReplicationLatency);
  Histogram& churn =
      reg.histogram(mn::kLifecycleUndoChurn, Histogram::counts());
  Histogram& deliver = reg.histogram(mn::kCausalDeliverLatency);
  Histogram& first = reg.histogram(mn::kCausalFirstDeliverLatency);
  Histogram& last = reg.histogram(mn::kCausalLastDeliverLatency);
  Histogram& mid = reg.histogram(mn::kCausalMidInsertLatency);
  Histogram& fanout =
      reg.histogram(mn::kCausalFanoutDegree, Histogram::counts());
  std::uint64_t fully_replicated = 0, churn_total = 0;
  // missing[i * cluster_size + j] = updates node i merged and node j did not.
  std::vector<std::uint64_t> missing(cluster_size * cluster_size, 0);
  std::vector<char> merged_at(cluster_size);
  for (const UpdateTiming& ut : timings_) {
    if (ut.complete) {
      critical.add(static_cast<double>(ut.critical_us()) / 1e6);
    }
    if (ut.flooded) fanout.add(static_cast<double>(ut.fanout));
    std::size_t delivered = 0, merged = 0;
    double last_deliver = 0.0, last_merge = 0.0;
    bool remote_seen = false;
    std::fill(merged_at.begin(), merged_at.end(), 0);
    for (const ReplicaCell& c : ut.cells) {
      if (c.node >= cluster_size) continue;
      ++delivered;
      last_deliver = c.deliver;
      deliver.add(c.deliver - ut.originate);
      if (c.node != ut.origin && !remote_seen) {
        remote_seen = true;
        first.add(c.deliver - ut.originate);
      }
      if (c.merge < 0.0) continue;
      ++merged;
      merged_at[c.node] = 1;
      last_merge = std::max(last_merge, c.merge);
      churn.add(static_cast<double>(c.displaced));
      churn_total += c.displaced;
      if (c.mid_insert) mid.add(c.merge - ut.originate);
    }
    if (delivered == cluster_size) last.add(last_deliver - ut.originate);
    if (merged == cluster_size) {
      ++fully_replicated;
      replication.add(last_merge - ut.originate);
    }
    for (std::size_t i = 0; i < cluster_size; ++i) {
      if (!merged_at[i]) continue;
      for (std::size_t j = 0; j < cluster_size; ++j) {
        if (!merged_at[j]) ++missing[i * cluster_size + j];
      }
    }
  }
  reg.set_counter(mn::kLifecycleUpdatesOriginated, timings_.size());
  reg.set_counter(mn::kLifecycleUpdatesFullyReplicated, fully_replicated);
  reg.set_counter(mn::kLifecycleUndoChurnTotal, churn_total);
  const auto divergence = std::max_element(missing.begin(), missing.end());
  reg.set_gauge(mn::kLifecycleDivergenceMaxMissing,
                divergence == missing.end()
                    ? 0.0
                    : static_cast<double>(*divergence));
}

void export_replication_metrics(const std::vector<Event>& ring,
                                std::size_t cluster_size,
                                MetricsRegistry& reg) {
  const EpochIndex epochs = EpochIndex::build(ring);
  FlameProfile::build(ring, CausalGraph::build(ring), epochs)
      .export_to(reg, epochs, cluster_size);
}

}  // namespace obs

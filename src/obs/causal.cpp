#include "obs/causal.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_map>

#include "obs/tracer.hpp"

namespace obs {

namespace {

/// Pair hash for the (origin, seq) / (node, update) join maps.
struct PairHash {
  std::size_t operator()(
      const std::pair<std::uint64_t, std::uint64_t>& p) const {
    return std::hash<std::uint64_t>{}(p.first * 0x9E3779B97F4A7C15ull ^
                                      p.second);
  }
};

}  // namespace

std::string CausalIssues::summary() const {
  const auto line = [](std::ostringstream& os, const char* what,
                       const std::vector<std::size_t>& v) {
    if (v.empty()) return;
    os << what << ": " << v.size() << " (first at ";
    for (std::size_t i = 0; i < std::min<std::size_t>(v.size(), 4); ++i) {
      os << (i ? ", " : "") << v[i];
    }
    os << ")\n";
  };
  std::ostringstream os;
  line(os, "backward edges", backward_edges);
  line(os, "net delivers without a send", orphan_net_delivers);
  line(os, "broadcast delivers without an originate",
       orphan_broadcast_delivers);
  line(os, "merges without a deliver", orphan_merges);
  line(os, "delivers never merged", unmerged_delivers);
  if (os.str().empty()) return "no causal issues\n";
  return os.str();
}

CausalGraph CausalGraph::build(const std::vector<Event>& events) {
  CausalGraph g;
  g.num_events_ = events.size();
  g.edges_.reserve(events.size() * 2);

  // Per-track last event (program order). kControlNode is its own track.
  std::unordered_map<std::uint64_t, std::size_t> last_at;
  // Message id -> net.send index (ids are unique per send, so 1:1).
  std::unordered_map<std::uint64_t, std::size_t> send_by_id;
  // (origin, seq) -> originate index; also yields the update's timestamp.
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, std::size_t,
                     PairHash>
      originate_by_seq;
  // (node, originate index) -> deliver index awaiting its merge.
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, std::size_t,
                     PairHash>
      pending_merge;
  // (ts_logical, ts_node) -> originate index, for merge-event joins.
  std::map<UpdateKey, std::size_t> originate_by_ts;

  const auto chain_push = [&g](const UpdateKey& key, std::size_t idx,
                               sim::NodeId node) -> Chain& {
    Chain& c = g.chains_[key];
    c.events.push_back(idx);
    c.nodes.push_back(node);
    return c;
  };

  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];

    // Program order on every track.
    const auto [it, fresh] =
        last_at.emplace(static_cast<std::uint64_t>(e.node), i);
    if (!fresh) {
      g.edges_.push_back({it->second, i, EdgeKind::kProgram});
      it->second = i;
    }

    switch (e.type) {
      case EventType::kNetSend:
        // a = destination, b = message id (unique per accepted send).
        if (e.b != 0) send_by_id.emplace(e.b, i);
        break;
      case EventType::kNetDeliver:
      case EventType::kNetDropCrashed: {
        // net.deliver: a = source, b = id. A crash drop with b != 0 is the
        // delivery-time variant (the datagram travelled, then found its
        // destination down); b == 0 means it was swallowed at send time —
        // no message ever existed, so no edge.
        if (e.b == 0) break;
        const auto sit = send_by_id.find(e.b);
        if (sit == send_by_id.end()) {
          g.issues_.orphan_net_delivers.push_back(i);
          break;
        }
        g.edges_.push_back({sit->second, i, EdgeKind::kMessage});
        send_by_id.erase(sit);
        break;
      }
      case EventType::kBroadcastOriginate: {
        // node = origin, ts set, a = origin_seq.
        originate_by_seq.emplace(
            std::make_pair(static_cast<std::uint64_t>(e.node), e.a), i);
        const UpdateKey key{e.ts_logical, e.ts_node};
        originate_by_ts.emplace(key, i);
        chain_push(key, i, e.node).originate = i;
        break;
      }
      case EventType::kBroadcastSend: {
        // Flood fan-out at the origin: a = origin_seq, b = peers.
        const auto oit = originate_by_seq.find(
            std::make_pair(static_cast<std::uint64_t>(e.node), e.a));
        if (oit != originate_by_seq.end()) {
          const Event& origin = events[oit->second];
          chain_push({origin.ts_logical, origin.ts_node}, i, e.node);
        }
        break;
      }
      case EventType::kBroadcastDeliver:
      case EventType::kBroadcastDuplicate: {
        // node = deliverer, a = origin, b = origin_seq.
        const auto oit = originate_by_seq.find(std::make_pair(e.a, e.b));
        if (oit == originate_by_seq.end()) {
          if (e.type == EventType::kBroadcastDeliver) {
            g.issues_.orphan_broadcast_delivers.push_back(i);
          }
          break;
        }
        const Event& origin = events[oit->second];
        chain_push({origin.ts_logical, origin.ts_node}, i, e.node);
        if (e.type == EventType::kBroadcastDuplicate) break;
        g.edges_.push_back({oit->second, i, EdgeKind::kReplicate});
        // The merge this deliver triggers carries the update's timestamp;
        // key the expectation by (deliverer, originate index).
        pending_merge[std::make_pair(
            static_cast<std::uint64_t>(e.node),
            static_cast<std::uint64_t>(oit->second))] = i;
        break;
      }
      case EventType::kMergeTailAppend:
      case EventType::kMergeMidInsert: {
        const UpdateKey key{e.ts_logical, e.ts_node};
        chain_push(key, i, e.node);
        const auto tit = originate_by_ts.find(key);
        if (tit == originate_by_ts.end()) {
          g.issues_.orphan_merges.push_back(i);
          break;
        }
        const auto pit = pending_merge.find(std::make_pair(
            static_cast<std::uint64_t>(e.node),
            static_cast<std::uint64_t>(tit->second)));
        if (pit == pending_merge.end()) {
          g.issues_.orphan_merges.push_back(i);
          break;
        }
        g.edges_.push_back({pit->second, i, EdgeKind::kMerge});
        pending_merge.erase(pit);
        break;
      }
      case EventType::kMergeUndo:
      case EventType::kMergeRedo:
        // Undo/redo churn is attributed to the update whose arrival caused
        // it (same ts as the mid-insert); program order already links it.
        chain_push({e.ts_logical, e.ts_node}, i, e.node);
        break;
      default:
        break;
    }
  }

  // Delivers whose merge never arrived: a deliver MUST synchronously merge
  // (the broadcast hands every delivered payload straight to the engine),
  // so any leftover means a truncated stream or a protocol bug.
  for (const auto& [key, idx] : pending_merge) {
    g.issues_.unmerged_delivers.push_back(idx);
  }
  std::sort(g.issues_.unmerged_delivers.begin(),
            g.issues_.unmerged_delivers.end());

  // Certify the topological embedding: every edge must point forward in
  // record order (this is what makes the relation provably acyclic).
  for (std::size_t k = 0; k < g.edges_.size(); ++k) {
    if (g.edges_[k].to <= g.edges_[k].from) {
      g.issues_.backward_edges.push_back(k);
    }
  }

  // Parent CSR: edges grouped by target event.
  g.parent_start_.assign(g.num_events_ + 1, 0);
  for (const CausalEdge& e : g.edges_) ++g.parent_start_[e.to + 1];
  for (std::size_t i = 1; i <= g.num_events_; ++i) {
    g.parent_start_[i] += g.parent_start_[i - 1];
  }
  g.parent_edge_ids_.resize(g.edges_.size());
  std::vector<std::size_t> fill = g.parent_start_;
  for (std::size_t k = 0; k < g.edges_.size(); ++k) {
    g.parent_edge_ids_[fill[g.edges_[k].to]++] = k;
  }
  return g;
}

std::vector<std::size_t> CausalGraph::parent_edges(std::size_t i) const {
  if (i >= num_events_) return {};
  return {parent_edge_ids_.begin() +
              static_cast<std::ptrdiff_t>(parent_start_[i]),
          parent_edge_ids_.begin() +
              static_cast<std::ptrdiff_t>(parent_start_[i + 1])};
}

std::vector<std::size_t> CausalGraph::update_chain(std::uint64_t ts_logical,
                                                   sim::NodeId ts_node) const {
  const auto it = chains_.find({ts_logical, ts_node});
  if (it == chains_.end()) return {};
  return it->second.events;  // appended in stream order, already ascending
}

std::vector<CausalGraph::UpdateKey> CausalGraph::update_keys() const {
  std::vector<UpdateKey> out;
  out.reserve(chains_.size());
  for (const auto& [key, chain] : chains_) out.push_back(key);
  return out;  // std::map iteration => ascending (logical, node)
}

std::vector<std::size_t> CausalGraph::ancestry(std::size_t i,
                                               std::size_t limit) const {
  std::vector<std::size_t> out;
  if (i >= num_events_ || limit == 0) return out;
  std::vector<char> seen(i + 1, 0);
  std::deque<std::size_t> frontier{i};
  seen[i] = 1;
  while (!frontier.empty() && out.size() < limit) {
    const std::size_t cur = frontier.front();
    frontier.pop_front();
    for (std::size_t p = parent_start_[cur]; p < parent_start_[cur + 1];
         ++p) {
      const std::size_t from = edges_[parent_edge_ids_[p]].from;
      if (seen[from]) continue;
      seen[from] = 1;
      out.push_back(from);
      if (out.size() >= limit) break;
      frontier.push_back(from);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> CausalGraph::path_to_node(std::uint64_t ts_logical,
                                                   sim::NodeId ts_node,
                                                   sim::NodeId node) const {
  const auto it = chains_.find({ts_logical, ts_node});
  if (it == chains_.end()) return {};
  const Chain& c = it->second;
  std::vector<std::size_t> out;
  if (c.originate != static_cast<std::size_t>(-1)) {
    out.push_back(c.originate);
  }
  for (std::size_t k = 0; k < c.events.size(); ++k) {
    if (c.nodes[k] == node && c.events[k] != c.originate) {
      out.push_back(c.events[k]);
    }
  }
  return out;
}

TraceDivergence trace_diff(const std::vector<Event>& a,
                           const std::vector<Event>& b) {
  TraceDivergence d;
  d.a_size = a.size();
  d.b_size = b.size();
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a[i] == b[i])) {
      d.diverged = true;
      d.index = i;
      return d;
    }
  }
  if (a.size() != b.size()) {
    d.diverged = true;
    d.index = n;
  }
  return d;
}

std::string divergence_report(const TraceDivergence& d,
                              const std::vector<Event>& a,
                              const std::vector<Event>& b,
                              std::size_t ancestry_limit) {
  std::ostringstream os;
  if (!d.diverged) {
    os << "streams identical (" << d.a_size << " events)\n";
    return os.str();
  }
  os << "first divergence at index " << d.index << " (stream a: " << d.a_size
     << " events, stream b: " << d.b_size << " events)\n";
  const auto side = [&](const char* name, const std::vector<Event>& ev) {
    os << name << ": ";
    if (d.index >= ev.size()) {
      os << "(stream ended)\n";
      return;
    }
    os << serialize({ev[d.index]});
    const CausalGraph g = CausalGraph::build(ev);
    const std::vector<std::size_t> anc = g.ancestry(d.index, ancestry_limit);
    if (anc.empty()) {
      os << "  (no causal ancestors in stream)\n";
      return;
    }
    os << "  causal ancestry (nearest " << anc.size() << "):\n";
    for (std::size_t idx : anc) {
      os << "  [" << idx << "] " << serialize({ev[idx]});
    }
  };
  side("a", a);
  side("b", b);
  return os.str();
}

}  // namespace obs

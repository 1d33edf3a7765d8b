// Reliable broadcast with optional causal delivery and anti-entropy repair.
//
// Paper section 1.2: "information about the transaction is broadcast
// reliably to all the other nodes ... The broadcast algorithm [GLBKSS]
// ensures that, barring permanent communication failures, every node will
// eventually receive information about every transaction." [GLBKSS] is an
// unpublished CCA technical report; we build the natural protocol with the
// same guarantee (see DESIGN.md substitutions):
//
//   * flooding — the origin sends each payload to every peer immediately;
//   * anti-entropy — each node periodically sends a digest of what it holds
//     to a peer, which responds with everything the digest lacks. This is
//     what recovers messages lost to partitions and random drops.
//
// Causal mode implements the paper's section 3.3 remark that "an appropriate
// distributed communication protocol could guarantee transitivity, perhaps
// by piggybacking information about known transactions on messages": every
// payload carries the origin's delivery vector clock, and delivery is held
// until those dependencies are satisfied. With causal delivery, the set of
// transactions a node has merged is causally closed, so the induced
// execution is transitive (checked by analysis::is_transitive and the
// protocol tests).
#pragma once

#include <algorithm>
#include <any>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <optional>

#include "core/prefix.hpp"
#include "net/broadcast_stats.hpp"
#include "obs/tracer.hpp"
#include "runtime/api.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"

namespace net {

struct BroadcastOptions {
  /// Send to all peers at origination. Disabling leaves anti-entropy as the
  /// only propagation path (pure gossip mode).
  bool flood = true;
  /// Hold deliveries until causal dependencies are satisfied. This is what
  /// gives transitive executions. Non-causal mode delivers in arrival order
  /// (still at-most-once), producing possibly non-transitive executions —
  /// useful for the paper's section 3.2 counterexample discussions.
  bool causal = true;
  /// Period of anti-entropy digests; 0 disables anti-entropy.
  sim::Time anti_entropy_interval = 0.5;
  /// Uniform jitter added to each period so nodes don't gossip in lockstep.
  sim::Time anti_entropy_jitter = 0.1;
  /// Cap on wire payloads per repair reply; 0 = unlimited. A capped reply
  /// is flagged truncated and the requester immediately re-digests, so
  /// repair after a long partition proceeds in bounded batches instead of
  /// one giant burst. Every batch extends the requester's contiguous
  /// prefix, so the continuation chain terminates; a lost batch falls back
  /// to the periodic digest.
  std::size_t max_repairs_per_message = 0;
  /// Drop repair-store entries every live peer is known (via received
  /// digests) to already hold — the store then tracks the repair *window*
  /// instead of all history. Incompatible with amnesia recovery, which
  /// relies on peers retaining everything an amnesiac node may re-request
  /// and on the node's own complete stable outbox (Cluster validates).
  bool prune_repair_store = false;
  /// Batched floods + group commit: broadcasts staged within one scheduler
  /// dispatch are flushed together at its end (Scheduler::defer) — one
  /// stable-outbox sync for the burst, and flood wires coalesced into
  /// packets of up to `max_batch` wires each (so a burst of k submissions
  /// costs ceil(k/max_batch) packets per peer instead of k). 0 flushes each
  /// broadcast on its own, immediately (the E25 ablation baseline). A
  /// single-wire flush is recorded the same way either way, so batched
  /// configs are byte-identical to unbatched ones whenever bursts never
  /// actually form.
  std::size_t max_batch = 0;
};

/// One endpoint of the cluster-wide broadcast. `Payload` is the application
/// update envelope; it must be copyable.
template <class Payload>
class ReliableBroadcast {
 public:
  /// What travels on the wire and is handed to the delivery callback.
  struct Wire {
    sim::NodeId origin = 0;
    /// 1-based sequence number among `origin`'s own broadcasts.
    std::uint64_t origin_seq = 0;
    /// Origin's delivery vector clock at broadcast time: deps[n] payloads
    /// from node n had been delivered at the origin. Causal mode delays
    /// delivery until the local clock dominates this.
    std::vector<std::uint64_t> deps;
    Payload payload;
  };

  using DeliverFn = std::function<void(const Wire&)>;
  /// Mixed-mode hook (paper section 3.3 / 6): announcements carry the
  /// sender's *promise timestamp* T and issued-count, promising "every
  /// future transaction of mine has timestamp >= T" — where T accounts for
  /// timestamps the sender has already RESERVED for pending serializable
  /// transactions (otherwise a reservation made before the announcement
  /// would break the promise). PromiseFn supplies (T.logical, T.node);
  /// AnnounceFn receives peers' announcements.
  using PromiseFn = std::function<std::pair<std::uint64_t, sim::NodeId>()>;
  using AnnounceFn = std::function<void(sim::NodeId src,
                                        std::uint64_t promise_logical,
                                        sim::NodeId promise_node,
                                        std::uint64_t issued)>;
  /// Fault-injection probe at the write-ahead intention-log boundary: called
  /// with the origin sequence number after the stable-outbox append (and
  /// local delivery) but before the first flood send. Returning true means
  /// "the node just crashed": the broadcast suppresses the flood — the wire
  /// reaches peers only through post-restart anti-entropy, which is exactly
  /// the guarantee under test (sim::MidBroadcastCrash).
  using MidBroadcastCrashFn = std::function<bool(std::uint64_t origin_seq)>;
  /// Byzantine corruption hook: substitute the application part of `target`
  /// using `donor` (a previously seen payload) while PRESERVING target's
  /// identity/timestamp fields — only the owner of the Payload type knows
  /// which fields are which, so the Node installs this. Must return false
  /// (leaving target untouched) when the substitution would be a no-op;
  /// those draws count as provably masked (byz_corrupt_noops).
  using CorruptFn = std::function<bool(Payload& target, const Payload& donor)>;

  /// The endpoint runs against the redesigned execution API: an Executor
  /// for time/timers/deferred flushes and a Transport for datagrams — any
  /// backend (deterministic simulator or the threaded runtime) works.
  /// `byzantine` is the fault plan's receive-path adversary
  /// (sim::FaultPlan::byzantine_payload): seeded corruption, duplication
  /// and reordering of incoming wires before accept(). Unarmed by default;
  /// an unarmed endpoint draws no adversary randomness.
  ReliableBroadcast(runtime::Executor& executor, runtime::Transport& transport,
                    sim::NodeId self, std::size_t cluster_size,
                    BroadcastOptions options, std::uint64_t seed,
                    DeliverFn deliver,
                    sim::ByzantineOptions byzantine = sim::ByzantineOptions{})
      : exec_(&executor),
        net_(&transport),
        self_(self),
        options_(options),
        rng_(seed),
        deliver_(std::move(deliver)),
        delivered_count_(cluster_size, 0),
        store_(cluster_size),
        seen_extra_(cluster_size),
        byzantine_(byzantine) {
    net_->register_node(self_,
                        [this](const runtime::Message& m) { on_message(m); });
  }

  ReliableBroadcast(const ReliableBroadcast&) = delete;
  ReliableBroadcast& operator=(const ReliableBroadcast&) = delete;

  /// Arm the periodic anti-entropy timer (if enabled).
  void start() {
    if (options_.anti_entropy_interval > 0.0) schedule_anti_entropy();
  }

  /// Broadcast `payload`; delivers it locally (synchronously) first so the
  /// origin's own state always reflects its own transactions. Returns the
  /// origin sequence number.
  std::uint64_t broadcast(Payload payload) {
    assert(!down_ && "a crashed node cannot broadcast");
    Wire w;
    w.origin = self_;
    w.origin_seq = ++own_seq_;
    w.deps = delivered_count_;
    w.payload = std::move(payload);
    ++stats_.originated;
    accept(w);  // local delivery; also places it in the store for repair
    // The outbox append above is write-ahead; the sync and the flood happen
    // in flush_flood(). Unbatched, this broadcast is its own commit group and
    // flushes now (after any broadcast nested in the local delivery above
    // flushed its own). Batched, the flush waits for the end of the current
    // scheduler dispatch, so a submit burst shares one commit and its wires
    // coalesce into multi-wire packets.
    staged_floods_.push_back(w.origin_seq);
    if (options_.max_batch == 0) {
      flush_flood();
    } else if (!flush_scheduled_) {
      flush_scheduled_ = true;
      exec_->defer([this] { flush_flood(); });
    }
    return w.origin_seq;
  }

  /// Delivery vector clock: how many payloads from each origin have been
  /// delivered here. In causal mode these are contiguous prefixes.
  const std::vector<std::uint64_t>& delivered_vector() const {
    return delivered_count_;
  }

  /// Per-origin counts of the contiguously MERGED prefix: seqs 1..k of each
  /// origin have been delivered to the application here. In causal mode the
  /// delivery vector is exactly that; in non-causal mode delivery can outrun
  /// sequence order (delivered_count_ may count {1,2,5}), so the contiguous
  /// received prefix is the honest bound. The stability machinery
  /// (compaction, serializable promises) must use THIS, not
  /// delivered_vector(): "I merged everything m issued" is a statement about
  /// the contiguous prefix, and using a mere count lets a low-timestamp
  /// straggler arrive below a compaction cut.
  const std::vector<std::uint64_t>& merged_prefix() const {
    return options_.causal ? delivered_count_ : contiguous_have_;
  }

  /// The delivered set as an interned prefix reference (core/prefix.hpp),
  /// produced in O(#nodes). Causal mode delivers per-origin contiguously,
  /// so the delivery vector IS the set; non-causal mode delivers every
  /// accepted wire immediately, so the set is the contiguous received
  /// prefix plus the out-of-order extras.
  core::PrefixRef delivered_prefix() const {
    core::PrefixRef p;
    if (options_.causal) {
      p.contiguous = delivered_count_;
    } else {
      p.contiguous = contiguous_have_;
      for (std::size_t o = 0; o < seen_extra_.size(); ++o) {
        for (const std::uint64_t seq : seen_extra_[o]) {
          p.extras.emplace_back(static_cast<sim::NodeId>(o), seq);
        }
      }
      std::sort(p.extras.begin(), p.extras.end());
    }
    return p;
  }

  /// Wire messages currently retained in the repair store (all origins) —
  /// the E20 memory proxy that pruning keeps O(window).
  std::size_t store_retained() const {
    std::size_t n = 0;
    for (const auto& s : store_) n += s.size();
    return n;
  }

  /// Total payloads delivered to the application at this node.
  std::uint64_t total_delivered() const {
    std::uint64_t n = 0;
    for (auto c : delivered_count_) n += c;
    return n;
  }

  const BroadcastStats& stats() const { return stats_; }
  std::uint64_t own_issued() const { return own_seq_; }

  /// Arm the announcement protocol: each anti-entropy round also sends
  /// (promise, issued) to every peer. Announcements drive the section 3.3
  /// waiting protocol for serializable transactions.
  void set_announce_hooks(PromiseFn promise, AnnounceFn on_announce) {
    promise_fn_ = std::move(promise);
    announce_fn_ = std::move(on_announce);
  }

  /// Crash/restart the endpoint. While down, anti-entropy ticks no-op (the
  /// timer keeps running so restarts need no re-arming) and the network
  /// additionally refuses sends/deliveries for this node. Mirrors the down
  /// state into the network so both layers agree.
  void set_down(bool down) {
    down_ = down;
    // Staged-but-unflushed floods are volatile; their intention records are
    // durable in the outbox, so after a restart they reach peers through
    // outbox replay announcements and anti-entropy, never a stale flood.
    if (down) staged_floods_.clear();
    net_->set_node_down(self_, down);
  }
  bool down() const { return down_; }

  /// Attach the execution tracer (nullptr disables; the off path is one
  /// branch per potential event).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Arm the mid-broadcast crash probe (see MidBroadcastCrashFn).
  void set_mid_broadcast_crash_hook(MidBroadcastCrashFn hook) {
    mid_crash_hook_ = std::move(hook);
  }

  /// Install the Byzantine corruption hook (see CorruptFn). Without one,
  /// an armed adversary still duplicates and reorders but cannot corrupt.
  void set_corrupt_hook(CorruptFn hook) { corrupt_fn_ = std::move(hook); }

  /// Restart from a rewound stable point (sim::RecoveryMode::kAmnesia or
  /// kStaleDisk): the node resumes knowing, per origin, only the first
  /// keep[o] payloads — all zeros under amnesia, a stale checkpoint's
  /// delivered counts under a stale disk. Delivery knowledge, the repair
  /// store of other nodes' payloads and the causal buffer all rewind to that
  /// point; the rest is re-learned from peers through the ordinary
  /// digest/repair path (after amnesia the first digest is all zeros, so
  /// peers resend everything they hold). The one exception is the stable
  /// outbox: this node's own wires are written (and synced) before their
  /// external actions fire (see sim::RecoveryMode), so the outbox is complete
  /// even when the merged log is not. Own wires past keep[self] are
  /// re-accepted below, re-announcing them to the cluster, and the complete
  /// outbox stays available for peer repair.
  void rewind(sim::RecoveryMode mode, const std::vector<std::uint64_t>& keep) {
    // A rewound node may re-request anything above its stable point, so the
    // repair stores and the own outbox must be complete; Cluster config
    // validation rejects prune_repair_store with these modes up front.
    assert(!options_.prune_repair_store);
    assert(mode != sim::RecoveryMode::kDurable);
    assert(keep.size() == delivered_count_.size());
    std::vector<Wire> outbox = std::move(store_[self_]);
    store_[self_].clear();
    for (std::size_t o = 0; o < store_.size(); ++o) {
      if (store_[o].size() > keep[o]) store_[o].resize(keep[o]);
    }
    delivered_count_ = keep;
    contiguous_have_ = keep;
    for (auto& e : seen_extra_) e.clear();
    for (auto& buf : pending_) buf.clear();
    held_.reset();  // a wire the adversary held back is volatile state
    ++(mode == sim::RecoveryMode::kAmnesia ? stats_.amnesia_resets
                                           : stats_.stale_resets);
    set_down(false);
    for (std::size_t i = keep[self_]; i < outbox.size(); ++i) {
      ++stats_.outbox_replays;
      accept(outbox[i]);
    }
    // accept() rebuilt only the replayed tail slots of the own-origin store;
    // restore the complete stable outbox so any peer can still be repaired
    // from any point.
    store_[self_] = std::move(outbox);
  }

 private:
  enum class PacketType { kWires, kDigest, kAnnounce };
  struct Packet {
    PacketType type = PacketType::kWires;
    std::vector<Wire> wires;            // kWires: a flood or a repair reply
    bool repair_truncated = false;      // kWires: capped repair; more held
    std::vector<std::uint64_t> digest;  // kDigest: sender's contiguous counts
    std::uint64_t announce_clock = 0;   // kAnnounce: promise logical
    sim::NodeId announce_node = 0;      // kAnnounce: promise tiebreak
    std::uint64_t announce_issued = 0;  // kAnnounce
  };

  /// Flush of the staged broadcasts: one per broadcast when unbatched, one
  /// per scheduler dispatch when batched. One group commit covers every
  /// staged record — each was appended to the stable outbox inside its
  /// broadcast(), write-ahead of any flood — and the sync lands here, before
  /// the first flood send, so the intention-log boundary guarantee holds per
  /// batch exactly as it holds per record.
  void flush_flood() {
    flush_scheduled_ = false;
    std::vector<std::uint64_t> staged = std::move(staged_floods_);
    staged_floods_.clear();
    if (staged.empty() || down_) return;
    ++stats_.outbox_commits;
    stats_.outbox_records_synced += staged.size();
    std::vector<Wire> chunk;
    for (std::size_t i = 0; i < staged.size(); ++i) {
      // The batch is durable; a crash injected at any wire's boundary leaves
      // it durable-but-unsent and suppresses the rest of the flood (those
      // records reach peers only through post-restart anti-entropy — the
      // guarantee under test).
      if (mid_crash_hook_ && mid_crash_hook_(staged[i])) {
        ++stats_.mid_broadcast_crashes;
        return;
      }
      if (!options_.flood) continue;
      chunk.push_back(store_[self_][staged[i] - 1 - store_base_[self_]]);
      if (chunk.size() == options_.max_batch || i + 1 == staged.size()) {
        send_flood_chunk(std::move(chunk));
        chunk.clear();
      }
    }
  }

  /// Flood one chunk of staged wires to all peers in one packet. Only a
  /// multi-wire chunk counts as a batch and records kBroadcastBatchSend, so
  /// a batched config whose bursts never coalesce is byte-identical
  /// (packets, RNG draws, trace stream) to max_batch == 0.
  void send_flood_chunk(std::vector<Wire> chunk) {
    const sim::Time now = exec_->now();
    const std::size_t wires = chunk.size();
    if (wires > 1) {
      ++stats_.flood_batches;
      stats_.flood_batched_wires += wires;
    }
    Packet p;
    p.wires = std::move(chunk);
    const std::any packet = std::move(p);
    const std::size_t peers = net_->send_to_all(self_, packet);
    if (tracer_) {
      // Per-wire send events keep each update's causal chain (and so its
      // flood fan-out) unchanged; the batch event on top carries the
      // coalescing itself.
      for (const Wire& w : std::any_cast<const Packet&>(packet).wires) {
        tracer_->record(obs::EventType::kBroadcastSend, now, self_, 0, 0,
                        w.origin_seq, peers);
      }
      if (wires > 1) {
        tracer_->record(obs::EventType::kBroadcastBatchSend, now, self_, 0, 0,
                        wires, peers);
      }
    }
  }

  void on_message(const runtime::Message& m) {
    if (down_) return;  // defensive: the network drops these before us
    // A wire the adversary held back is released after the NEXT packet is
    // processed — note the hold now so a hold created below isn't flushed
    // by its own message.
    const bool flush_held = held_.has_value();
    const auto& p = std::any_cast<const Packet&>(m.payload);
    switch (p.type) {
      case PacketType::kWires:
        for (const Wire& w : p.wires) ingest_wire(w);
        // A truncated repair means the sender holds more than the cap let
        // through; re-digest immediately (with the just-advanced counts)
        // instead of waiting out the anti-entropy period.
        if (p.repair_truncated) {
          ++stats_.continuation_digests;
          send_digest_to(m.src);
        }
        break;
      case PacketType::kDigest:
        answer_digest(m.src, p.digest);
        break;
      case PacketType::kAnnounce:
        if (announce_fn_) {
          announce_fn_(m.src, p.announce_clock, p.announce_node,
                       p.announce_issued);
        }
        break;
    }
    if (flush_held && held_) {
      Wire w = std::move(*held_);
      held_.reset();
      accept(w);
    }
  }

  /// Receive-path ingestion: the Byzantine adversary (when armed for the
  /// current simulated time) gets one chance to reorder, corrupt and/or
  /// duplicate each incoming wire before accept(). An unarmed endpoint
  /// takes the straight accept() path and draws no adversary randomness.
  void ingest_wire(const Wire& wire) {
    const sim::ByzantineOptions& byz = byzantine_;
    if (!byz.enabled) {
      accept(wire);
      return;
    }
    // The donor stash fills whenever the adversary exists (even outside its
    // window), so corruption at window entry has authentic donors.
    stash_payload(wire.payload);
    const sim::Time now = exec_->now();
    if (now < byz.start || now >= byz.end) {
      accept(wire);
      return;
    }
    if (!held_ && byz_rng_.bernoulli(byz.reorder_probability)) {
      ++stats_.byz_reordered;
      if (tracer_) {
        tracer_->record(obs::EventType::kByzantineReorder, now, self_, 0, 0,
                        wire.origin, wire.origin_seq);
      }
      held_ = wire;
      return;
    }
    Wire w = wire;
    if (corrupt_fn_ && byz_rng_.bernoulli(byz.corrupt_probability) &&
        !stash_.empty()) {
      const Payload& donor = stash_[byz_rng_.uniform_int(
          0, static_cast<std::int64_t>(stash_.size()) - 1)];
      if (corrupt_fn_(w.payload, donor)) {
        ++stats_.byz_corrupted;
        if (tracer_) {
          tracer_->record(obs::EventType::kByzantineCorrupt, now, self_, 0, 0,
                          w.origin, w.origin_seq);
        }
      } else {
        // Donor matched the original: nothing changed, provably masked.
        ++stats_.byz_corrupt_noops;
      }
    }
    const bool duplicate = byz_rng_.bernoulli(byz.duplicate_probability);
    accept(w);
    if (duplicate) {
      ++stats_.byz_duplicated;
      if (tracer_) {
        tracer_->record(obs::EventType::kByzantineDuplicate, now, self_, 0, 0,
                        w.origin, w.origin_seq);
      }
      accept(w);  // dedup (already_have) must swallow this
    }
  }

  /// Bounded ring of previously seen payloads, the corruption donor pool.
  void stash_payload(const Payload& payload) {
    if (stash_.size() < kStashCapacity) {
      stash_.push_back(payload);
    } else {
      stash_[stash_next_ % kStashCapacity] = payload;
    }
    ++stash_next_;
  }

  /// Idempotent ingestion of a wire message; routes through causal buffering
  /// when enabled.
  void accept(const Wire& w) {
    if (already_have(w.origin, w.origin_seq)) {
      ++stats_.duplicates_dropped;
      if (tracer_) {
        tracer_->record(obs::EventType::kBroadcastDuplicate,
                        exec_->now(), self_, 0, 0, w.origin,
                        w.origin_seq);
      }
      return;
    }
    remember(w);
    if (!options_.causal) {
      deliver_now(w);
      return;
    }
    ++stats_.causally_buffered;
    pending_[w.origin].emplace(w.origin_seq, Held{++arrivals_, w});
    drain_pending();
  }

  bool already_have(sim::NodeId origin, std::uint64_t seq) const {
    const auto& extras = seen_extra_[origin];
    return seq <= contiguous_have_[origin] || extras.contains(seq);
  }

  /// Record the wire message in the repair store and advance the contiguous
  /// "have" summary (which is what digests exchange). The store is indexed
  /// relative to store_base_ (seqs at or below it were pruned because every
  /// peer already holds them — nobody can ever re-request those).
  void remember(const Wire& w) {
    const std::uint64_t base = store_base_[w.origin];
    if (w.origin_seq > base) {
      auto& store = store_[w.origin];
      if (w.origin_seq - base > store.size()) store.resize(w.origin_seq - base);
      store[w.origin_seq - 1 - base] = w;
    }
    auto& extras = seen_extra_[w.origin];
    extras.insert(w.origin_seq);
    while (extras.contains(contiguous_have_[w.origin] + 1)) {
      ++contiguous_have_[w.origin];
      extras.erase(contiguous_have_[w.origin]);
    }
  }

  void deliver_now(const Wire& w) {
    ++delivered_count_[w.origin];
    ++stats_.delivered;
    if (tracer_) {
      tracer_->record(obs::EventType::kBroadcastDeliver,
                      exec_->now(), self_, 0, 0, w.origin,
                      w.origin_seq);
    }
    deliver_(w);
  }

  /// Causal drain: deliver any buffered message whose dependencies are met,
  /// repeating until a fixed point. Only an origin's next-in-sequence wire
  /// can be deliverable, so each step looks at one wire per origin and
  /// delivers the ready one that arrived first — among concurrently ready
  /// messages, delivery follows arrival order (deterministic). A delivery
  /// may re-enter accept(): the merge can release a waiting serializable
  /// transaction, which broadcasts. The nested drain runs to its own fixed
  /// point, and this loop then re-reads the buffers.
  void drain_pending() {
    for (;;) {
      std::size_t best = pending_.size();
      for (std::size_t o = 0; o < pending_.size(); ++o) {
        if (pending_[o].empty()) continue;
        const auto& [seq, held] = *pending_[o].begin();
        assert(seq > delivered_count_[o]);
        if (seq != delivered_count_[o] + 1) continue;
        if (best != pending_.size() &&
            pending_[best].begin()->second.arrival < held.arrival) {
          continue;
        }
        if (deps_met(held.wire)) best = o;
      }
      if (best == pending_.size()) return;
      const auto it = pending_[best].begin();
      const Wire w = std::move(it->second.wire);
      pending_[best].erase(it);
      deliver_now(w);
    }
  }

  bool deps_met(const Wire& w) const {
    for (sim::NodeId n = 0; n < delivered_count_.size(); ++n) {
      if (n == w.origin) continue;
      if (w.deps[n] > delivered_count_[n]) return false;
    }
    return true;
  }

  void schedule_anti_entropy() {
    const sim::Time dt = options_.anti_entropy_interval +
                         rng_.uniform(0.0, options_.anti_entropy_jitter);
    exec_->schedule_after(dt, [this] {
      run_anti_entropy_round();
      schedule_anti_entropy();
    });
  }

  void run_anti_entropy_round() {
    // The timer stays armed through a crash; ticks while down do nothing,
    // so restarting needs no timer re-arming and the event sequence stays a
    // pure function of (seed, configuration, crash schedule).
    if (down_) {
      ++stats_.rounds_skipped_down;
      return;
    }
    const std::size_t n = net_->node_count();
    if (n < 2) return;
    if (promise_fn_) {
      Packet a;
      a.type = PacketType::kAnnounce;
      const auto [logical, node] = promise_fn_();
      a.announce_clock = logical;
      a.announce_node = node;
      a.announce_issued = own_seq_;
      net_->send_to_all(self_, std::any(std::move(a)));
    }
    // Random peer each round; randomness is seeded, so runs stay
    // reproducible.
    sim::NodeId peer =
        static_cast<sim::NodeId>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    if (peer >= self_) ++peer;
    ++stats_.anti_entropy_rounds;
    send_digest_to(peer);
  }

  void answer_digest(sim::NodeId requester,
                     const std::vector<std::uint64_t>& have) {
    if (options_.prune_repair_store) note_peer_have(requester, have);
    Packet reply;
    const std::size_t cap = options_.max_repairs_per_message;
    for (sim::NodeId origin = 0;
         origin < store_.size() && !reply.repair_truncated; ++origin) {
      const std::uint64_t their = origin < have.size() ? have[origin] : 0;
      // Send everything we hold above the requester's contiguous prefix.
      // (They may hold some of it as extras; duplicates are dropped. An
      // out-of-date digest may ask below our pruned base — by the pruning
      // invariant the requester already has those, so start at the base.)
      for (std::uint64_t seq = std::max(their, store_base_[origin]) + 1;
           seq <= contiguous_have_[origin]; ++seq) {
        if (cap != 0 && reply.wires.size() >= cap) {
          reply.repair_truncated = true;
          ++stats_.repairs_truncated;
          break;
        }
        reply.wires.push_back(store_[origin][seq - 1 - store_base_[origin]]);
      }
    }
    if (reply.wires.empty()) return;
    stats_.anti_entropy_repairs += reply.wires.size();
    if (tracer_) {
      tracer_->record(obs::EventType::kAntiEntropyRepair,
                      exec_->now(), self_, 0, 0, requester,
                      reply.wires.size());
    }
    net_->send(self_, requester, std::any(std::move(reply)));
  }

  /// One digest to one peer (periodic rounds and repair continuations).
  void send_digest_to(sim::NodeId peer) {
    Packet p;
    p.type = PacketType::kDigest;
    p.digest = contiguous_have_;
    if (tracer_) {
      tracer_->record(obs::EventType::kAntiEntropyDigest,
                      exec_->now(), self_, 0, 0, peer);
    }
    net_->send(self_, peer, std::any(std::move(p)));
  }

  /// Pruning bookkeeping: fold a received digest into the per-peer floor
  /// (element-wise max — digests can arrive out of order) and discard every
  /// store entry at or below min over live floors. Whatever is pruned, every
  /// peer has acknowledged holding, so no future digest can request it.
  void note_peer_have(sim::NodeId peer, const std::vector<std::uint64_t>& have) {
    auto& floor = peer_have_[peer];
    if (floor.size() < have.size()) floor.resize(have.size(), 0);
    for (std::size_t o = 0; o < have.size(); ++o) {
      floor[o] = std::max(floor[o], have[o]);
    }
    for (std::size_t origin = 0; origin < store_.size(); ++origin) {
      std::uint64_t keep_from = contiguous_have_[origin];
      for (sim::NodeId p = 0; p < peer_have_.size(); ++p) {
        if (p == self_) continue;
        const auto& ph = peer_have_[p];
        keep_from = std::min(keep_from, origin < ph.size() ? ph[origin] : 0);
      }
      if (keep_from > store_base_[origin]) {
        const std::uint64_t drop = keep_from - store_base_[origin];
        auto& store = store_[origin];
        store.erase(store.begin(),
                    store.begin() + static_cast<std::ptrdiff_t>(
                                        std::min<std::uint64_t>(drop, store.size())));
        store_base_[origin] = keep_from;
        stats_.store_pruned += drop;
      }
    }
  }

  runtime::Executor* exec_;
  runtime::Transport* net_;
  sim::NodeId self_;
  BroadcastOptions options_;
  sim::Rng rng_;
  DeliverFn deliver_;
  PromiseFn promise_fn_;
  AnnounceFn announce_fn_;
  MidBroadcastCrashFn mid_crash_hook_;
  obs::Tracer* tracer_ = nullptr;  ///< optional; nullptr = tracing off
  bool down_ = false;  ///< crashed: no gossip, no sends (see set_down)

  std::uint64_t own_seq_ = 0;
  /// Group-commit staging: origin seqs broadcast but not yet flushed (when
  /// batched, those of the current scheduler dispatch). Volatile — a crash
  /// drops it (the records are in the outbox).
  std::vector<std::uint64_t> staged_floods_;
  bool flush_scheduled_ = false;
  /// Delivered-to-application counts per origin (vector clock).
  std::vector<std::uint64_t> delivered_count_;
  /// Contiguous received prefix per origin (>= delivered in causal mode
  /// where they coincide; in non-causal mode delivery may outrun it).
  std::vector<std::uint64_t> contiguous_have_ =
      std::vector<std::uint64_t>(delivered_count_.size(), 0);
  /// Repair store: wire messages received, per origin; store_[o][i] holds
  /// seq store_base_[o] + i + 1 (the base is 0 unless pruning is on).
  std::vector<std::vector<Wire>> store_;
  /// Seqs pruned from the front of each origin's store (every peer holds
  /// them). Only advances when options_.prune_repair_store is set.
  std::vector<std::uint64_t> store_base_ =
      std::vector<std::uint64_t>(store_.size(), 0);
  /// Per-peer pruning floors: the largest contiguous counts each peer has
  /// ever digested to us (element-wise max; monotone).
  std::vector<std::vector<std::uint64_t>> peer_have_ =
      std::vector<std::vector<std::uint64_t>>(store_.size());
  /// Received-but-not-contiguous sequence numbers per origin.
  std::vector<std::unordered_set<std::uint64_t>> seen_extra_;
  /// Causal-mode holding buffer: per origin, the buffered wires keyed by
  /// origin_seq, each stamped with its arrival number (arrivals_ counts
  /// every wire ever buffered). Every held seq is above the origin's
  /// delivered count, so begin() is the only candidate for delivery.
  struct Held {
    std::uint64_t arrival = 0;
    Wire wire;
  };
  std::vector<std::map<std::uint64_t, Held>> pending_ =
      std::vector<std::map<std::uint64_t, Held>>(store_.size());
  std::uint64_t arrivals_ = 0;

  // Byzantine adversary state — inert unless byzantine_.enabled. Its RNG
  // is separate from rng_ (anti-entropy peer choice) and seeded from the
  // adversary's own config, so arming it never shifts the protocol's draw
  // stream, and an unarmed run draws nothing at all.
  sim::ByzantineOptions byzantine_;
  CorruptFn corrupt_fn_;
  sim::Rng byz_rng_{byzantine_.seed ^ (0x9E3779B97F4A7C15ull * (self_ + 1))};
  /// Previously seen payloads retained as corruption donors.
  static constexpr std::size_t kStashCapacity = 16;
  std::vector<Payload> stash_;   ///< Donor pool (bounded ring).
  std::size_t stash_next_ = 0;
  std::optional<Wire> held_;     ///< The one wire held back by a reorder.

  BroadcastStats stats_;
};

}  // namespace net

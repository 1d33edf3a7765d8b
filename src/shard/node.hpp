// A SHARD node: full replica + decision execution + update broadcast.
//
// Paper section 1.2 flow, implemented verbatim:
//   1. A transaction is submitted at its origin node. The *decision part*
//      runs once, against the node's current merged state (the apparent
//      state — the effects of the prefix subsequence of transactions this
//      node has so far received).
//   2. The decision's external actions fire immediately and are never
//      redone.
//   3. The decision's *update* gets a globally unique timestamp and is
//      broadcast reliably to all nodes (including merged locally).
//   4. Every node merges every update into its timestamp-ordered log,
//      undoing/redoing as needed (UpdateLog), so replicas converge to the
//      same state once they know the same updates — mutual consistency
//      without any inter-node concurrency control.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/execution.hpp"
#include "core/model.hpp"
#include "core/prefix.hpp"
#include "core/timestamp.hpp"
#include "net/broadcast.hpp"
#include "obs/tracer.hpp"
#include "runtime/api.hpp"
#include "shard/update_log.hpp"
#include "sim/fault_plan.hpp"

namespace obs {
class MetricsRegistry;
}

namespace shard {

template <core::Application App>
class StreamObserver;

/// Everything the origin records about a transaction it initiated; the
/// cluster assembles the formal Execution from these.
template <core::Application App>
struct TxRecord {
  core::Timestamp ts;
  core::NodeId origin = 0;
  sim::Time real_time = 0.0;
  typename App::Request request;
  /// The prefix subsequence (paper section 3.1): every transaction merged
  /// here at decision time, interned as per-origin delivered counts
  /// (core/prefix.hpp) — O(#nodes) per record instead of O(history).
  /// Expand via Cluster::prefix_resolver() to recover the explicit
  /// timestamp set.
  core::PrefixRef prefix;
  typename App::Update update;
  std::vector<core::ExternalAction> external_actions;
  /// Mixed-mode: true if this ran with the serializable (complete-prefix)
  /// protocol; decided_time - real_time is then the waiting latency.
  bool serializable = false;
  sim::Time decided_time = 0.0;
};

template <core::Application App>
class Node {
 public:
  using State = typename App::State;
  using Update = typename App::Update;
  using Request = typename App::Request;
  using Record = TxRecord<App>;
  /// The broadcast payload is the log entry itself: (timestamp, update).
  using Entry = typename UpdateLog<App>::Entry;
  using Broadcast = net::ReliableBroadcast<Entry>;

  /// The node runs against the redesigned execution API — an Executor for
  /// its clock/timers and a Transport for the broadcast layer's datagrams —
  /// so the same protocol code drives the deterministic simulator and the
  /// threaded runtime. `byzantine` is the fault plan's receive-path
  /// adversary, handed to the broadcast endpoint (unarmed by default).
  Node(core::NodeId id, runtime::Executor& executor,
       runtime::Transport& transport, std::size_t cluster_size,
       net::BroadcastOptions broadcast_options, std::size_t checkpoint_interval,
       std::uint64_t seed, bool enable_compaction = false,
       obs::Tracer* tracer = nullptr, std::size_t max_checkpoints = 0,
       sim::ByzantineOptions byzantine = sim::ByzantineOptions{})
      : id_(id),
        clock_(id),
        log_(checkpoint_interval, max_checkpoints),
        peer_announcements_(cluster_size),
        enable_compaction_(enable_compaction),
        tracer_(tracer),
        exec_(&executor),
        broadcast_(executor, transport, id, cluster_size, broadcast_options,
                   seed,
                   [this](const typename Broadcast::Wire& wire) {
                     on_deliver(wire);
                   },
                   byzantine) {
    log_.set_tracer(tracer_, id_, [this] { return exec_->now(); });
    broadcast_.set_tracer(tracer_);
    if (byzantine.enabled) {
      // Timestamp-preserving corruption: substitute only the update field,
      // so the tampered entry still merges at its legitimate position
      // (a forged timestamp would trip UpdateLog's uniqueness invariant
      // rather than model a plausibly-wrong replica). A draw whose donor
      // equals the original changed nothing — report it unapplied so the
      // sensitivity tests can count it as provably masked.
      broadcast_.set_corrupt_hook([](Entry& target, const Entry& donor) {
        if (donor.update == target.update) return false;
        target.update = donor.update;
        return true;
      });
    }
    broadcast_.set_announce_hooks(
        [this] { return promise(); },
        [this](core::NodeId src, std::uint64_t logical, core::NodeId node,
               std::uint64_t issued) {
          on_announce(src, core::Timestamp{logical, node}, issued);
        });
  }

  /// Arm protocol timers.
  void start() { broadcast_.start(); }

  /// Run one transaction originated here, now. Returns a copy of the
  /// record (also retained internally; a reference would dangle when the
  /// next submit grows the record vector). Throws if the node is crashed —
  /// use try_submit for workloads that must tolerate downtime.
  Record submit(const Request& request, sim::Time now) {
    if (down_) throw std::logic_error("submit on a crashed node");
    ++log_.mutable_stats().decisions_run;
    Record rec;
    rec.origin = id_;
    rec.real_time = now;
    rec.request = request;
    // The decision part observes the current merged state; its prefix
    // subsequence is exactly the set of updates merged so far — which is
    // the set the broadcast layer has delivered, interned in O(#nodes).
    // Compaction needs no extra bookkeeping: folding changes storage, not
    // knowledge, and the delivered counts already cover folded entries.
    rec.prefix = broadcast_.delivered_prefix();
    core::DecisionResult<Update> decision = App::decide(request, log_.state());
    rec.update = std::move(decision.update);
    rec.external_actions = std::move(decision.external_actions);
    // Timestamp strictly above everything merged here (LamportClock
    // invariant), so the prefix really is a subsequence of the predecessors.
    rec.ts = clock_.tick();
    rec.decided_time = now;
    originate(std::move(rec), now);
    return originated_.back();
  }

  /// Availability-aware submission: a request reaching a crashed origin is
  /// rejected (counted, never silently executed) — the client sees an
  /// unavailable node and can retry elsewhere. Returns the record on
  /// success, nullopt on rejection.
  std::optional<Record> try_submit(const Request& request, sim::Time now) {
    if (down_) {
      ++log_.mutable_stats().rejected_submissions;
      return std::nullopt;
    }
    return submit(request, now);
  }

  /// Mixed-mode extension (paper sections 3.3 and 6): run this transaction
  /// SERIALIZABLY — with a provably complete prefix. A timestamp position
  /// ts_p is reserved now; the decision is deferred until every peer has
  /// announced a Lamport counter >= ts_p.logical ("I will issue no more
  /// transactions with timestamp earlier than ts_p") AND all their
  /// transactions issued up to that announcement have been merged here.
  /// The decision then runs against the state of exactly the entries with
  /// timestamp < ts_p: the complete prefix. Blocks (logically) through
  /// partitions — the availability price of serializability.
  void submit_serializable(const Request& request, sim::Time now) {
    if (down_) {
      ++log_.mutable_stats().rejected_submissions;
      return;
    }
    PendingSerial p;
    p.request = request;
    p.reserved_ts = clock_.tick();
    p.enqueue_time = now;
    const core::Timestamp reserved = p.reserved_ts;
    pending_.push_back(std::move(p));
    if (stream_obs_) stream_obs_->on_reserve(id_, reserved);
    try_run_pending(now);
  }

  /// Serializable submissions still waiting for peer promises.
  std::size_t pending_serializable() const { return pending_.size(); }

  /// Crash the node at simulated time `now`. The node stops executing,
  /// gossiping, and receiving (the network refuses delivery); pending
  /// serializable reservations are volatile and die with it (their clients
  /// observe unavailability — counted as rejections). Idempotent.
  ///
  /// What happens to *state* is decided at restart time by the recovery
  /// mode: conceptually the crash wipes volatile memory, and restart either
  /// reloads stable storage (kDurable) or finds none (kAmnesia). Already-
  /// executed decisions are in neither case re-run, and their external
  /// actions — fired at decision time, recorded in the stable outbox before
  /// firing — are never re-fired (paper section 1.2: external actions "can
  /// never be undone").
  void crash(sim::Time now) {
    if (down_) return;
    down_ = true;
    down_since_ = now;
    auto& st = log_.mutable_stats();
    ++st.crashes;
    st.rejected_submissions += pending_.size();
    pending_.clear();
    broadcast_.set_down(true);
    if (tracer_) tracer_->record(obs::EventType::kCrash, now, id_);
    // Reservations are volatile: the observer drops its copies too.
    if (stream_obs_) stream_obs_->on_crash(id_, now);
  }

  /// Restart a crashed node at `now`.
  ///
  ///  * kDurable: the merged log survived on stable storage (the engine's
  ///    last checkpoint plus the log suffix — exactly what UpdateLog holds);
  ///    only updates originated while down are missing, and the ordinary
  ///    anti-entropy digests fetch them.
  ///  * kAmnesia: volatile replication state is gone. The log restarts from
  ///    the application's initial state, peer promises and causal buffers
  ///    are dropped, and everything is resynchronized — the node's own
  ///    transactions replay from its stable outbox, the rest arrives
  ///    through repair. The Lamport counter survives in the outbox (each
  ///    record carries its timestamp), so fresh transactions keep receiving
  ///    globally unique timestamps above everything this node ever issued
  ///    or merged.
  ///  * kStaleDisk: stable storage survived but lost its recent suffix —
  ///    the node resumes from a *stale* checkpoint holding only the oldest
  ///    `keep_fraction` of its retained log. Correctness rests on two
  ///    facts: dependencies always carry strictly smaller timestamps than
  ///    their dependents (the Lamport tick is above everything merged), so
  ///    a timestamp-prefix of the merged log is causally closed; and an
  ///    origin's seqs appear in the merged log in increasing timestamp
  ///    order, so the surviving prefix induces contiguous per-origin
  ///    delivered counts — exactly the rewound vector handed to
  ///    ReliableBroadcast::rewind. Requires causal broadcast (the
  ///    Cluster validates); the truncated tail re-merges through outbox
  ///    replay and anti-entropy, exercising deep undo/redo.
  ///
  /// `catch_up_target` is measurement-only omniscience supplied by the
  /// cluster: the number of updates originated cluster-wide by restart
  /// time. Reaching it ends the recovery window (recovery_lag,
  /// catch_up_updates in EngineStats). It never influences protocol
  /// behavior. Idempotent (no-op if the node is up).
  void restart(sim::RecoveryMode mode, sim::Time now,
               std::uint64_t catch_up_target = 0, double keep_fraction = 1.0) {
    if (!down_) return;
    down_ = false;
    auto& st = log_.mutable_stats();
    ++st.recoveries;
    st.downtime += now - down_since_;
    if (tracer_) {
      tracer_->record(obs::EventType::kRestart, now, id_, 0, 0,
                      static_cast<std::uint64_t>(mode));
    }
    restart_time_ = now;
    catch_up_target_ = catch_up_target;
    catching_up_ = true;
    if (mode == sim::RecoveryMode::kDurable) {
      if (stream_obs_) stream_obs_->on_restart(id_, mode, log_.size(), now);
      broadcast_.set_down(false);
    } else {
      // Amnesia keeps nothing and drops peer promises. A stale disk keeps
      // the oldest keep_fraction of the retained entries, with per-origin
      // delivered counts derived by walking the dropped suffix; peer
      // promises are monotone facts about peers and survive.
      std::size_t keep_n = 0;
      std::vector<std::uint64_t> keep(peer_announcements_.size(), 0);
      if (mode == sim::RecoveryMode::kAmnesia) {
        log_.reset_to_initial();
        for (auto& a : peer_announcements_) a = Announcement{};
      } else {
        keep_n = static_cast<std::size_t>(keep_fraction *
                                          static_cast<double>(log_.size()));
        keep = broadcast_.delivered_vector();
        for (std::size_t i = keep_n; i < log_.size(); ++i) {
          --keep[log_.ts_at(i).node];
        }
        log_.truncate_suffix(keep_n);
      }
      // The observer rewinds its shadow BEFORE the broadcast rewind, whose
      // outbox replay re-merges our own updates through on_deliver.
      if (stream_obs_) stream_obs_->on_restart(id_, mode, keep_n, now);
      broadcast_.rewind(mode, keep);
    }
    check_caught_up(now);
  }

  bool down() const { return down_; }
  /// Still re-merging updates missed before/during the last crash.
  bool catching_up() const { return catching_up_; }

  /// Fault injection: arm the broadcast-layer probe that crashes this node
  /// between the stable-outbox append and the first flood send (the
  /// write-ahead intention-log boundary; sim::MidBroadcastCrash). The hook
  /// receives the origin seq and returns true iff it crashed the node.
  void set_mid_broadcast_crash_hook(
      typename Broadcast::MidBroadcastCrashFn hook) {
    broadcast_.set_mid_broadcast_crash_hook(std::move(hook));
  }

  /// Attach a streaming observer (analysis::StreamingChecker or any other
  /// StreamObserver). Must be wired before traffic starts; the observer
  /// sees originations before their broadcast, deliveries after their
  /// merge, and crash/restart transitions in recovery order. Nullptr
  /// detaches. Observation only — the protocol never reads it back.
  void set_stream_observer(StreamObserver<App>* obs) { stream_obs_ = obs; }

  const State& state() const { return log_.state(); }
  const UpdateLog<App>& log() const { return log_; }
  core::NodeId id() const { return id_; }
  const std::vector<Record>& originated() const { return originated_; }
  const EngineStats& engine_stats() const { return log_.stats(); }
  const net::BroadcastStats& broadcast_stats() const {
    return broadcast_.stats();
  }
  /// Updates merged here, including any compacted into the base.
  std::uint64_t updates_known() const { return log_.total_merged(); }
  /// Log entries currently retained (the storage compaction saves).
  std::size_t entries_retained() const { return log_.size(); }
  /// Wire messages held in the broadcast repair store (pruning shrinks it).
  std::size_t repair_store_retained() const {
    return broadcast_.store_retained();
  }
  /// State snapshots held by the merge engine (max_checkpoints bounds it).
  std::size_t checkpoints_retained() const {
    return log_.checkpoints_retained();
  }
  /// Prefix slots retained across every originated record — the E20
  /// memory proxy that interning keeps O(#records * #nodes) instead of
  /// O(#records * history).
  std::size_t prefix_slots_retained() const {
    std::size_t n = 0;
    for (const Record& r : originated_) n += r.prefix.slots();
    return n;
  }

 private:
  struct PendingSerial {
    Request request;
    core::Timestamp reserved_ts;
    sim::Time enqueue_time = 0.0;
  };
  struct Announcement {
    core::Timestamp promise;  ///< sender issues nothing with ts < promise
    std::uint64_t issued = 0;
    bool seen = false;
  };

  void on_deliver(const typename Broadcast::Wire& wire) {
    // Fold the remote timestamp into our clock BEFORE any future local
    // transaction, preserving "local timestamps exceed all merged ones".
    clock_.observe(wire.payload.ts);
    log_.insert(wire.payload);
    // The observer re-merges the TRUE update (looked up by origin seq from
    // its own ledger — the wire payload may have been corrupted en route)
    // and compares our post-merge state against its clean shadow.
    if (stream_obs_) {
      stream_obs_->on_deliver(id_, wire.origin, wire.origin_seq,
                              wire.payload.ts, log_.state(), exec_->now());
    }
    if (catching_up_) {
      ++log_.mutable_stats().catch_up_updates;
      check_caught_up(exec_->now());
    }
    try_run_pending(exec_->now());
  }

  /// Recovery-window bookkeeping: the window closes once this node again
  /// knows every update the cluster had originated by the restart.
  void check_caught_up(sim::Time now) {
    if (!catching_up_ || updates_known() < catch_up_target_) return;
    catching_up_ = false;
    log_.mutable_stats().recovery_lag += now - restart_time_;
  }

  /// Our promise: we will issue nothing with a timestamp below this. With
  /// reservations pending, that is the earliest reserved timestamp; else
  /// the next tick's lower bound (counter+1, self).
  std::pair<std::uint64_t, core::NodeId> promise() const {
    if (!pending_.empty()) {
      const core::Timestamp& t = pending_.front().reserved_ts;
      return {t.logical, t.node};
    }
    return {clock_.counter() + 1, id_};
  }

  void on_announce(core::NodeId src, const core::Timestamp& promise_ts,
                   std::uint64_t issued) {
    auto& a = peer_announcements_[src];
    // Announcements can arrive out of order; keep the strongest promise,
    // paired with the largest issued-count seen (both are monotone in the
    // sender's send order).
    if (!a.seen || promise_ts >= a.promise) {
      a.promise = promise_ts;
      a.issued = std::max(a.issued, issued);
      a.seen = true;
    }
    // A peer's promise also advances our clock, so counters propagate even
    // across quiescent nodes and every reservation is eventually covered
    // (liveness of the waiting protocol). (logical-1: a promise of
    // (L, node) only says future timestamps are >= that; observing L-1
    // keeps our next tick possibly equal to L, which the node tiebreak
    // disambiguates.)
    clock_.observe(core::Timestamp{promise_ts.logical - 1, src});
    try_run_pending(exec_->now());
    if (enable_compaction_) maybe_compact();
  }

  /// The [SL] discard rule: everything below the cluster-wide stability
  /// point — min over all nodes (self included) of their promise, taken
  /// only from peers whose issued updates have all been merged here — can
  /// never be preceded by a new arrival, so it folds into the base state.
  void maybe_compact() {
    const auto [own_logical, own_node] = promise();
    core::Timestamp stable{own_logical, own_node};
    // merged_prefix, not delivered_vector: only a contiguous per-origin
    // prefix proves "everything m issued by then is merged here" (the
    // non-causal delivery count can include later seqs while an earlier,
    // lower-timestamped one is still in flight — folding past it would
    // let an arrival land below the compaction cut).
    const auto& delivered = broadcast_.merged_prefix();
    for (core::NodeId m = 0; m < peer_announcements_.size(); ++m) {
      if (m == id_) continue;
      const Announcement& a = peer_announcements_[m];
      if (!a.seen || delivered[m] < a.issued) return;  // not stable yet
      stable = std::min(stable, a.promise);
    }
    if (!(log_.base_cut() < stable)) return;
    // Knowledge (prefix recording) survives even though the updates'
    // storage is discarded: the interned prefixes reference delivered
    // counts, which folding never rewinds.
    log_.compact_before(stable);
  }

  /// Promise check for the front pending transaction: every peer m
  /// promised to issue nothing with timestamp < promise_m, with
  /// promise_m >= ts_p (so every future m-transaction has a timestamp
  /// strictly above ts_p — node ids differ), and everything m had issued
  /// by that announcement has been merged here. Then the entries with
  /// ts < ts_p form the complete prefix of position ts_p, now and forever.
  bool promises_cover(const core::Timestamp& ts_p) const {
    // Contiguous merged prefix for the same reason as maybe_compact: a
    // complete prefix needs every issued update merged, not merely an
    // equal count of (possibly later) ones.
    const auto& delivered = broadcast_.merged_prefix();
    for (core::NodeId m = 0; m < peer_announcements_.size(); ++m) {
      if (m == id_) continue;
      const Announcement& a = peer_announcements_[m];
      if (!a.seen || a.promise < ts_p) return false;
      if (delivered[m] < a.issued) return false;
    }
    return true;
  }

  void try_run_pending(sim::Time now) {
    while (!pending_.empty() && promises_cover(pending_.front().reserved_ts)) {
      PendingSerial p = std::move(pending_.front());
      pending_.pop_front();
      run_reserved(p, now);
    }
  }

  void run_reserved(const PendingSerial& p, sim::Time now) {
    ++log_.mutable_stats().decisions_run;
    Record rec;
    rec.origin = id_;
    rec.real_time = p.enqueue_time;  // initiation time (timed executions)
    rec.request = p.request;
    rec.ts = p.reserved_ts;
    // The complete prefix: exactly the merged entries with ts < ts_p. The
    // interned reference records everything delivered plus the reserved cut;
    // expansion filters to timestamps below it (core::PrefixRef::cut).
    rec.prefix = broadcast_.delivered_prefix();
    rec.prefix.cut = p.reserved_ts;
    const State view = log_.state_before(p.reserved_ts);
    core::DecisionResult<Update> decision = App::decide(p.request, view);
    rec.update = std::move(decision.update);
    rec.external_actions = std::move(decision.external_actions);
    rec.serializable = true;
    rec.decided_time = now;
    originate(std::move(rec), now);
  }

  /// The origination tail both protocols share: retain the record, then
  /// broadcast its update (which delivers locally first, merging it into
  /// our own log). The tracer and streaming checkers learn the TRUE record
  /// before the broadcast can deliver (and possibly corrupt) it anywhere —
  /// including locally.
  void originate(Record rec, sim::Time now) {
    const Record& r = originated_.emplace_back(std::move(rec));
    const std::uint64_t origin_seq = broadcast_.own_issued() + 1;
    if (tracer_) {
      tracer_->record(obs::EventType::kBroadcastOriginate, now, id_,
                      r.ts.logical, r.ts.node, origin_seq);
    }
    if (stream_obs_) stream_obs_->on_originate(r, origin_seq, now);
    broadcast_.broadcast({r.ts, r.update});
  }

  core::NodeId id_;
  core::LamportClock clock_;
  UpdateLog<App> log_;
  std::vector<Record> originated_;
  std::vector<Announcement> peer_announcements_;
  std::deque<PendingSerial> pending_;
  // Crash/recovery (sim::RecoveryMode): down_ gates every activity; the
  // rest is recovery-window instrumentation.
  bool down_ = false;
  bool catching_up_ = false;
  sim::Time down_since_ = 0.0;
  sim::Time restart_time_ = 0.0;
  std::uint64_t catch_up_target_ = 0;
  bool enable_compaction_ = false;
  obs::Tracer* tracer_ = nullptr;  ///< optional execution tracing
  StreamObserver<App>* stream_obs_ = nullptr;  ///< optional online checking
  runtime::Executor* exec_;
  Broadcast broadcast_;
};

/// Online observation interface for the node's transaction pipeline — the
/// hook surface behind analysis::StreamingChecker. Callbacks fire
/// synchronously inside the node at precisely specified points (see each
/// method); implementations must not call back into the node.
template <core::Application App>
class StreamObserver {
 public:
  virtual ~StreamObserver() = default;

  /// A transaction decided at its origin, BEFORE its broadcast (so the
  /// observer knows the true record before any — possibly Byzantine —
  /// delivery of it, including the origin's own). `origin_seq` is the
  /// 1-based broadcast sequence number the envelope will carry.
  virtual void on_originate(const TxRecord<App>& rec, std::uint64_t origin_seq,
                            sim::Time now) = 0;

  /// An update merged at node `at`, AFTER the log insert. `origin`/
  /// `origin_seq` identify the originating record; `ts` is the envelope's
  /// (tamper-proof) timestamp; `state` is the node's post-merge state.
  virtual void on_deliver(core::NodeId at, core::NodeId origin,
                          std::uint64_t origin_seq, const core::Timestamp& ts,
                          const typename App::State& state, sim::Time now) = 0;

  /// A serializable submission reserved `reserved_ts` at node `at` (its
  /// decision will run later, once promises cover the position).
  virtual void on_reserve(core::NodeId at,
                          const core::Timestamp& reserved_ts) = 0;

  /// Node `at` crashed; its pending reservations died with it.
  virtual void on_crash(core::NodeId at, sim::Time now) = 0;

  /// Node `at` restarted. Fires AFTER the node's log has been reset
  /// (amnesia) or truncated (stale disk) but BEFORE the broadcast layer's
  /// restart — whose outbox replay re-delivers through on_deliver, so the
  /// observer's per-node mirror must rewind first. `keep_n` is the number
  /// of log entries that survived (0 under amnesia, the full size under
  /// durable recovery).
  virtual void on_restart(core::NodeId at, sim::RecoveryMode mode,
                          std::size_t keep_n, sim::Time now) = 0;

  /// Fold observer counters/histograms into a metrics snapshot
  /// (Cluster::metrics calls this when an observer is attached).
  virtual void export_metrics(obs::MetricsRegistry&) const {}
};

}  // namespace shard

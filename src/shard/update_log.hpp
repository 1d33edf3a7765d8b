// Timestamp-ordered update log with undo/redo merging.
//
// Paper section 1.2: "When a node receives new information about a
// transaction, no matter when the transaction was initiated, this
// information must be merged into the node's copy of the database ...
// Because all nodes order the transactions in the same way, they will agree
// on the result of merging identical sets of transactions. Also, at all
// times during execution, each node's copy of the database always reflects
// the effects of all the transactions known to that node, as if they were
// run according to the global timestamp order. Since messages about
// different transactions could arrive at a single node out of timestamp
// order, keeping the copy correct entails frequent undoing and redoing of
// transactions."
//
// This class is that mechanism. The invariant after every insert:
//
//     state() == fold(App::apply, App::initial(), entries sorted by ts)
//
// Out-of-order arrivals trigger an undo/redo: conceptually every update
// after the insertion point is undone and then redone on top of the
// newcomer. Implementing literal inverse updates would require apps to
// supply inverses; instead — like the optimizations of [BK]/[SKS], which
// keep history/checkpoint information to avoid recomputation — we keep
// periodic state checkpoints and replay forward from the nearest checkpoint
// at or before the insertion point. The replay stops at the newcomer if
// the newcomer leaves the state where it lands unchanged: apply depends
// only on (update, state) and State equality is exact (core/model.hpp), so
// every later state is unchanged too — such an update commutes with
// everything above it. The observable result, the undo count
// (`undone_updates`, what the thrashing analysis consumes) and the merge.*
// trace events are identical to the literal strategy. `redone_updates` is
// not: it counts the applies the engine actually made — the replay from
// the checkpoint up to the newcomer, and the entries above it only when
// the newcomer changed the state — so it can fall on either side of the
// literal redo count (undone_updates + mid_inserts + tail_appends). With
// max_checkpoints set, the retention rule in thin_checkpoints() keeps each
// replay within a small factor of the displacement (DESIGN.md §9).
//
// Storage layout (constant factors; DESIGN.md §9): every insert binary-
// searches the timestamp order and a mid-insert shifts the tail, so the
// log is stored as struct-of-arrays — a dense contiguous core::Timestamp
// column scanned by the position search, a parallel column of arena slot
// indices, and an arena of Update objects that never move once written
// (mid-inserts shift 16+4 bytes per displaced entry instead of a full
// entry; freed slots are recycled so compaction keeps the arena O(window)).
// Checkpoint positions index the order columns; because the arena never
// relocates updates, compaction and mid-inserts shift checkpoints without
// touching update storage.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/timestamp.hpp"
#include "obs/tracer.hpp"
#include "shard/engine_stats.hpp"

namespace shard {

namespace detail {

/// SoA/arena entry storage. The order columns ts_/slot_ are index-aligned;
/// arena_[slot_[i]] is position i's update. Updates never move after being
/// written: inserts shift only the two order columns, erases push the freed
/// slots onto a free list for reuse.
template <class Update>
class SoALogStore {
 public:
  std::size_t size() const { return ts_.size(); }
  const core::Timestamp& ts_at(std::size_t i) const { return ts_[i]; }
  const Update& update_at(std::size_t i) const { return arena_[slot_[i]]; }

  /// First position with timestamp >= ts. The scan touches only the dense
  /// timestamp column — the cache-line argument for this layout.
  std::size_t lower_bound(const core::Timestamp& ts) const {
    return static_cast<std::size_t>(
        std::lower_bound(ts_.begin(), ts_.end(), ts) - ts_.begin());
  }

  void insert(std::size_t pos, const core::Timestamp& ts, Update update) {
    const std::uint32_t slot = allocate(std::move(update));
    ts_.insert(ts_.begin() + static_cast<std::ptrdiff_t>(pos), ts);
    slot_.insert(slot_.begin() + static_cast<std::ptrdiff_t>(pos), slot);
  }

  void erase_prefix(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) free_.push_back(slot_[i]);
    ts_.erase(ts_.begin(), ts_.begin() + static_cast<std::ptrdiff_t>(n));
    slot_.erase(slot_.begin(), slot_.begin() + static_cast<std::ptrdiff_t>(n));
  }

  void truncate(std::size_t keep_n) {
    for (std::size_t i = keep_n; i < slot_.size(); ++i) {
      free_.push_back(slot_[i]);
    }
    ts_.resize(keep_n);
    slot_.resize(keep_n);
  }

  void clear() {
    ts_.clear();
    slot_.clear();
    arena_.clear();
    free_.clear();
  }

  /// Arena observability (tests pin the O(window) reuse claim).
  std::size_t arena_slots() const { return arena_.size(); }
  std::size_t arena_free_slots() const { return free_.size(); }

 private:
  std::uint32_t allocate(Update update) {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      arena_[slot] = std::move(update);
      return slot;
    }
    assert(arena_.size() < UINT32_MAX);
    arena_.push_back(std::move(update));
    return static_cast<std::uint32_t>(arena_.size() - 1);
  }

  std::vector<core::Timestamp> ts_;   ///< Dense timestamp column.
  std::vector<std::uint32_t> slot_;   ///< Arena slot per position.
  std::vector<Update> arena_;         ///< Update storage; slots are stable.
  std::vector<std::uint32_t> free_;   ///< Recycled slots (LIFO).
};

}  // namespace detail

template <core::Replicable App>
class UpdateLog {
 public:
  using State = typename App::State;
  using Update = typename App::Update;

  /// One (timestamp, update) pair handed to insert().
  struct Entry {
    core::Timestamp ts;
    Update update;
  };

  /// A state snapshot: `state` is the fold of the first `pos` retained
  /// entries over the base. Explicit positions (instead of the old implicit
  /// j*interval scheme) are what let compaction shift snapshots in place
  /// and the bounded-count mode keep a sparse set.
  struct Checkpoint {
    std::size_t pos = 0;
    State state;
  };

  /// `checkpoint_interval` = number of log entries between state snapshots;
  /// 0 disables checkpoints (every mid-insert replays from the base — the
  /// naive strategy, kept for the E10 ablation). `max_checkpoints` bounds
  /// the snapshot count, base included: when exceeded, snapshots are
  /// thinned (dense near the tail, sparse near the base; see
  /// thin_checkpoints), keeping that many `State` copies instead of
  /// O(n/interval); 0 keeps every snapshot, and 1 keeps only the base
  /// (every mid-insert replays from it, as with interval 0).
  explicit UpdateLog(std::size_t checkpoint_interval = 32,
                     std::size_t max_checkpoints = 0)
      : checkpoint_interval_(checkpoint_interval),
        max_checkpoints_(max_checkpoints),
        base_(App::initial()),
        state_(base_),
        below_(base_),
        landed_(base_) {
    // Checkpoint 0 is always the base state.
    checkpoints_.push_back(Checkpoint{0, base_});
  }

  /// Merge an entry, preserving timestamp order. Duplicate timestamps are
  /// rejected (timestamps are globally unique by construction). Returns the
  /// position at which the entry landed.
  std::size_t insert(Entry entry) {
    // Compaction safety: nothing may ever land below the fold point — the
    // stability protocol (promises) guarantees it; a violation here means
    // a protocol bug, not a data race.
    assert(!(entry.ts < base_cut_));
    const std::size_t pos = store_.lower_bound(entry.ts);
    assert(pos == store_.size() || store_.ts_at(pos) != entry.ts);
    const core::Timestamp ts = entry.ts;

    if (pos == store_.size()) {
      // Fast path: in-order arrival; apply directly on the current state.
      store_.insert(pos, ts, std::move(entry.update));
      App::apply(store_.update_at(pos), state_);
      ++stats_.tail_appends;
      ++stats_.redone_updates;
      trace(obs::EventType::kMergeTailAppend, ts);
      maybe_checkpoint();
      return pos;
    }

    // Out-of-order arrival: every update at position >= pos is "undone" and
    // then redone after the newcomer.
    const std::size_t displaced = store_.size() - pos;
    stats_.undone_updates += displaced;
    ++stats_.mid_inserts;
    trace(obs::EventType::kMergeMidInsert, ts, displaced);
    trace(obs::EventType::kMergeUndo, ts, displaced);
    store_.insert(pos, ts, std::move(entry.update));
    merge_mid_insert(pos);
    trace(obs::EventType::kMergeRedo, ts, store_.size() - pos);
    return pos;
  }

  /// The merged database state (reflects all known updates in ts order).
  const State& state() const { return state_; }

  std::size_t size() const { return store_.size(); }
  /// Timestamp / update of the retained entry at position `i`. Split
  /// accessors: the columns hold no Entry object to hand back, and callers
  /// almost always want one column.
  const core::Timestamp& ts_at(std::size_t i) const {
    assert(i < store_.size());
    return store_.ts_at(i);
  }
  const Update& update_at(std::size_t i) const {
    assert(i < store_.size());
    return store_.update_at(i);
  }

  bool contains(const core::Timestamp& ts) const {
    const std::size_t pos = store_.lower_bound(ts);
    return pos != store_.size() && store_.ts_at(pos) == ts;
  }

  const EngineStats& stats() const { return stats_; }
  EngineStats& mutable_stats() { return stats_; }

  /// Attach the execution tracer. `node` stamps events with the owning
  /// replica; `now` supplies simulated time (the log itself is clockless —
  /// standalone uses may omit it and events carry t=0).
  void set_tracer(obs::Tracer* tracer, sim::NodeId node,
                  std::function<sim::Time()> now = {}) {
    tracer_ = tracer;
    trace_node_ = node;
    trace_now_ = std::move(now);
  }

  /// Recompute the state from scratch (i.e. from the compaction base) —
  /// test oracle for the checkpointed incremental maintenance.
  State recompute_naive() const {
    State s = base_;
    for (std::size_t i = 0; i < store_.size(); ++i) {
      App::apply(store_.update_at(i), s);
    }
    return s;
  }

  /// Discard obsolete information ([SL], cited by the paper): fold every
  /// entry with timestamp < `cut` into the base state and drop it from the
  /// log. SAFE ONLY when the caller has cluster-wide promises that no
  /// update with a smaller timestamp can ever arrive (the Node computes
  /// that stability point from the announcement protocol). Returns the
  /// number of entries folded.
  std::size_t compact_before(const core::Timestamp& cut) {
    if (cut <= base_cut_) return 0;
    const std::size_t n = store_.lower_bound(cut);
    if (n == 0) {
      base_cut_ = cut;
      return 0;
    }
    // Advance the base from the newest snapshot at or below the fold point
    // — O(entries since that snapshot), not O(folded prefix).
    std::size_t j = checkpoints_.size() - 1;
    while (checkpoints_[j].pos > n) --j;
    base_ = std::move(checkpoints_[j].state);
    for (std::size_t i = checkpoints_[j].pos; i < n; ++i) {
      App::apply(store_.update_at(i), base_);
    }
    store_.erase_prefix(n);
    base_cut_ = cut;
    folded_count_ += n;
    stats_.entries_folded += n;
    // Snapshots above the fold point still describe valid suffix states —
    // shift their positions instead of rebuilding them by replay.
    std::vector<Checkpoint> kept;
    kept.push_back(Checkpoint{0, base_});
    for (Checkpoint& cp : checkpoints_) {
      if (cp.pos <= n) continue;  // folded into (or below) the new base
      kept.push_back(Checkpoint{cp.pos - n, std::move(cp.state)});
    }
    checkpoints_ = std::move(kept);
    // state_ is unchanged by folding (same updates, same order).
    return n;
  }

  /// Amnesia recovery (sim::RecoveryMode::kAmnesia): the merged log is
  /// volatile and did not survive the crash. Reset to the application's
  /// initial state — entries, checkpoints, compaction base, everything — so
  /// the node can resynchronize from scratch. Counters are cumulative
  /// observability and deliberately survive (the lifetime undo/redo work
  /// really happened).
  void reset_to_initial() {
    store_.clear();
    base_ = App::initial();
    base_cut_ = core::Timestamp{};
    folded_count_ = 0;
    state_ = base_;
    checkpoints_.clear();
    checkpoints_.push_back(Checkpoint{0, base_});
  }

  /// Stale-disk recovery (sim::RecoveryMode::kStaleDisk): the stable log
  /// survived the crash but its suffix past `keep_n` retained entries was
  /// lost with the disk — roll back to that stale point. The
  /// compaction base (cluster-stable prefix) is older than any surviving
  /// checkpoint and always survives; snapshots past the cut are dropped and
  /// the working state is rebuilt from the newest surviving one. Truncated
  /// updates are NOT forgotten by the cluster: they re-arrive through
  /// outbox replay and anti-entropy and re-merge via the ordinary undo/redo
  /// path. Counters survive (cumulative observability). Returns the number
  /// of entries dropped.
  std::size_t truncate_suffix(std::size_t keep_n) {
    if (keep_n >= store_.size()) return 0;
    const std::size_t dropped = store_.size() - keep_n;
    store_.truncate(keep_n);
    std::size_t keep_cp = checkpoints_.size();
    while (keep_cp > 1 && checkpoints_[keep_cp - 1].pos > keep_n) --keep_cp;
    checkpoints_.resize(keep_cp);
    state_ = checkpoints_.back().state;
    for (std::size_t i = checkpoints_.back().pos; i < store_.size(); ++i) {
      App::apply(store_.update_at(i), state_);
    }
    return dropped;
  }

  /// State snapshots currently held (>= 1: the base is always one).
  std::size_t checkpoints_retained() const { return checkpoints_.size(); }

  /// Entries folded into the base so far.
  std::size_t folded_count() const { return folded_count_; }
  /// All updates ever merged here (retained + folded).
  std::size_t total_merged() const { return store_.size() + folded_count_; }
  const core::Timestamp& base_cut() const { return base_cut_; }

  /// Arena footprint: slots allocated / currently free for reuse. Tests pin
  /// that compaction and truncation recycle slots instead of growing the
  /// arena O(history).
  std::size_t arena_slots() const { return store_.arena_slots(); }
  std::size_t arena_free_slots() const { return store_.arena_free_slots(); }

  /// State reflecting only the entries with timestamp < ts — the complete-
  /// prefix view a serializable transaction positioned at `ts` must see
  /// (mixed-mode extension; paper section 6). Replays from the nearest
  /// checkpoint at or before the cut.
  State state_before(const core::Timestamp& ts) const {
    const std::size_t cut = store_.lower_bound(ts);
    std::size_t j = checkpoints_.size() - 1;
    while (checkpoints_[j].pos > cut) --j;
    State s = checkpoints_[j].state;
    for (std::size_t i = checkpoints_[j].pos; i < cut; ++i) {
      App::apply(store_.update_at(i), s);
    }
    return s;
  }

  /// Number of retained entries strictly before `ts`.
  std::size_t count_before(const core::Timestamp& ts) const {
    return store_.lower_bound(ts);
  }

 private:
  void trace(obs::EventType type, const core::Timestamp& ts,
             std::uint64_t a = 0) const {
    if (!tracer_) return;
    tracer_->record(type, trace_now_ ? trace_now_() : 0.0, trace_node_,
                    ts.logical, ts.node, a);
  }

  /// Whether snapshots beyond the base are taken at all. A bound of one
  /// leaves room for the base only, so a new snapshot would be dropped as
  /// soon as it was copied.
  bool takes_checkpoints() const {
    return checkpoint_interval_ != 0 && max_checkpoints_ != 1;
  }

  void maybe_checkpoint() {
    if (!takes_checkpoints()) return;
    if (store_.size() - checkpoints_.back().pos >= checkpoint_interval_) {
      checkpoints_.push_back(Checkpoint{store_.size(), state_});
      ++stats_.checkpoints_taken;
      trace(obs::EventType::kCheckpointTake, store_.ts_at(store_.size() - 1),
            checkpoints_.size() - 1);
      thin_checkpoints();
    }
  }

  /// Drop snapshots that cover positions > pos (their prefix changed).
  void invalidate_checkpoints_after(std::size_t pos) {
    std::size_t keep = checkpoints_.size();
    while (keep > 1 && checkpoints_[keep - 1].pos > pos) --keep;
    if (keep < checkpoints_.size()) {
      stats_.checkpoints_invalidated += checkpoints_.size() - keep;
      trace(obs::EventType::kCheckpointInvalidate, store_.ts_at(pos),
            checkpoints_.size() - keep);
      checkpoints_.resize(keep);
    }
  }

  /// Restore the fold after the entry at `pos` landed below the tail.
  /// Replays from the newest snapshot at or below pos up to the newcomer
  /// and applies the newcomer to a copy of the state it lands on. If the
  /// copy is unchanged, the newcomer is a no-op there; since apply depends
  /// only on (update, state), every later state is unchanged too, so state_
  /// stands and the snapshots above pos only shift by one. Otherwise those
  /// snapshots are stale: they go, the replay carries on from the newcomer
  /// to the tail, and its re-takes join one at a time, each thinned in
  /// turn. Snapshots are re-taken every interval along the replay either
  /// way — without the re-takes below pos, a run of no-op inserts would
  /// widen the gaps between snapshots without bound.
  void merge_mid_insert(std::size_t pos) {
    std::size_t j = checkpoints_.size() - 1;
    while (checkpoints_[j].pos > pos) --j;
    std::size_t last_cp = checkpoints_[j].pos;
    fresh_.clear();
    below_ = checkpoints_[j].state;
    replay(below_, last_cp, pos, last_cp,
           [this](Checkpoint&& cp) { fresh_.push_back(std::move(cp)); });
    landed_ = below_;
    App::apply(store_.update_at(pos), landed_);
    ++stats_.redone_updates;
    if (landed_ == below_) {
      for (std::size_t k = j + 1; k < checkpoints_.size(); ++k) {
        ++checkpoints_[k].pos;
      }
      checkpoints_.insert(
          checkpoints_.begin() + static_cast<std::ptrdiff_t>(j + 1),
          std::make_move_iterator(fresh_.begin()),
          std::make_move_iterator(fresh_.end()));
      thin_checkpoints();
      return;
    }
    invalidate_checkpoints_after(pos);
    const auto keep = [this](Checkpoint&& cp) {
      checkpoints_.push_back(std::move(cp));
      thin_checkpoints();
    };
    for (Checkpoint& cp : fresh_) keep(std::move(cp));
    std::swap(state_, landed_);
    replay(state_, pos + 1, store_.size(), last_cp, keep);
  }

  /// Apply entries [from, to) to `s`, handing a snapshot to `take` each
  /// time the replay gets an interval past `last_cp`.
  template <class Take>
  void replay(State& s, std::size_t from, std::size_t to,
              std::size_t& last_cp, Take&& take) {
    for (std::size_t i = from; i < to; ++i) {
      App::apply(store_.update_at(i), s);
      ++stats_.redone_updates;
      if (takes_checkpoints() && (i + 1) - last_cp >= checkpoint_interval_) {
        take(Checkpoint{i + 1, s});
        last_cp = i + 1;
        ++stats_.checkpoints_taken;
      }
    }
  }

  /// Bounded-count mode: while the snapshot count exceeds max_checkpoints_,
  /// drop the interior snapshot whose loss hurts replay least. Without
  /// snapshot i, an insert landing between it and snapshot i+1 replays
  /// from snapshot i-1; measured against that insert's displacement (at
  /// least tail - next, where tail is the newest snapshot and the log runs
  /// at most one interval past it), the replay grows to at most
  ///     (tail - prev + interval) / (tail - next + interval),
  /// so the snapshot with the smallest such ratio goes (the oldest on a
  /// tie). The survivors spread out geometrically from the tail as it
  /// advances, so every insertion point keeps a snapshot below it within a
  /// small factor of its displacement. The base (pos 0) is always kept.
  /// No snapshot is taken when max_checkpoints_ == 1, so an overflow means
  /// at least 3 snapshots and always has an interior one to drop.
  void thin_checkpoints() {
    if (max_checkpoints_ == 0) return;
    const std::size_t interval = checkpoint_interval_;
    while (checkpoints_.size() > max_checkpoints_) {
      const std::size_t tail = checkpoints_.back().pos;
      const auto num = [&](std::size_t i) {
        return tail - checkpoints_[i - 1].pos + interval;
      };
      const auto den = [&](std::size_t i) {
        return tail - checkpoints_[i + 1].pos + interval;
      };
      std::size_t victim = 1;
      for (std::size_t i = 2; i + 1 < checkpoints_.size(); ++i) {
        // num(i)/den(i) < num(victim)/den(victim), cross-multiplied.
        if (num(i) * den(victim) < num(victim) * den(i)) victim = i;
      }
      checkpoints_.erase(checkpoints_.begin() +
                         static_cast<std::ptrdiff_t>(victim));
      ++stats_.checkpoints_thinned;
    }
  }

  std::size_t checkpoint_interval_;
  std::size_t max_checkpoints_;
  /// Folded prefix: the state of every discarded entry, and the timestamp
  /// below which nothing can ever arrive again.
  State base_;
  core::Timestamp base_cut_{};
  std::size_t folded_count_ = 0;
  detail::SoALogStore<Update> store_;
  std::vector<Checkpoint> checkpoints_;
  State state_;
  // merge_mid_insert's scratch, kept between calls so copies into them
  // reuse their buffers: the state below the newcomer, the state after it,
  // and the snapshots re-taken on the walk up to the newcomer.
  State below_;
  State landed_;
  std::vector<Checkpoint> fresh_;
  EngineStats stats_;
  // Optional execution tracing (obs/): off is one branch per merge.
  obs::Tracer* tracer_ = nullptr;
  sim::NodeId trace_node_ = 0;
  std::function<sim::Time()> trace_now_;
};

}  // namespace shard

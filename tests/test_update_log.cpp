// The SHARD undo/redo merge engine: timestamp-ordered insertion with
// checkpointed recomputation must always equal a naive full replay (the
// section 1.2 invariant: "each node's copy of the database always reflects
// the effects of all the transactions known to that node, as if they were
// run according to the global timestamp order").
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <tuple>
#include <vector>

#include "apps/airline/airline.hpp"
#include "shard/update_log.hpp"
#include "sim/rng.hpp"

namespace {

using apps::airline::SmallAirline;
using apps::airline::Update;
using core::Timestamp;
using Log = shard::UpdateLog<SmallAirline>;

Update req(apps::airline::Person p) {
  return Update{Update::Kind::kRequest, p};
}
Update up(apps::airline::Person p) { return Update{Update::Kind::kMoveUp, p}; }
Update down(apps::airline::Person p) {
  return Update{Update::Kind::kMoveDown, p};
}
Update cancel(apps::airline::Person p) {
  return Update{Update::Kind::kCancel, p};
}

TEST(UpdateLog, TailAppendsApplyDirectly) {
  Log log(4);
  log.insert({Timestamp{1, 0}, req(1)});
  log.insert({Timestamp{2, 0}, req(2)});
  log.insert({Timestamp{3, 0}, up(1)});
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.state(), apps::airline::State({1}, {2}));
  EXPECT_EQ(log.stats().tail_appends, 3u);
  EXPECT_EQ(log.stats().mid_inserts, 0u);
  EXPECT_EQ(log.stats().undone_updates, 0u);
}

TEST(UpdateLog, OutOfOrderInsertTriggersUndoRedo) {
  Log log(4);
  // Arrive: request(2) at ts 2, move-up picks... then request(1) at ts 1
  // arrives late. State must equal ts-order replay: req(1), req(2), up(2).
  log.insert({Timestamp{2, 0}, req(2)});
  log.insert({Timestamp{3, 0}, up(2)});
  log.insert({Timestamp{1, 0}, req(1)});
  EXPECT_EQ(log.state(), apps::airline::State({2}, {1}));
  EXPECT_EQ(log.stats().mid_inserts, 1u);
  EXPECT_EQ(log.stats().undone_updates, 2u);  // req(2), up(2) displaced
}

TEST(UpdateLog, LateArrivalChangesOutcomeDeterministically) {
  // The classic SHARD scenario: a move-up decided elsewhere lands before
  // the cancel that should have preceded it.
  Log log(0);  // no checkpoints: full replay path
  log.insert({Timestamp{1, 0}, req(1)});
  log.insert({Timestamp{3, 0}, up(1)});
  EXPECT_TRUE(log.state().is_assigned(1));
  log.insert({Timestamp{2, 1}, cancel(1)});  // between them
  // ts order: req(1), cancel(1), up(1) -> P1 gone, move-up is a no-op.
  EXPECT_FALSE(log.state().is_known(1));
}

TEST(UpdateLog, ContainsAndEntryAccessors) {
  Log log(4);
  log.insert({Timestamp{5, 1}, req(9)});
  EXPECT_TRUE(log.contains(Timestamp{5, 1}));
  EXPECT_FALSE(log.contains(Timestamp{5, 0}));
  EXPECT_FALSE(log.contains(Timestamp{4, 1}));
  EXPECT_EQ(log.update_at(0), req(9));
  EXPECT_EQ(log.ts_at(0), (Timestamp{5, 1}));
  EXPECT_EQ(log.count_before(Timestamp{5, 1}), 0u);
  EXPECT_EQ(log.count_before(Timestamp{5, 2}), 1u);
}

/// Property: for random arrival orders, any checkpoint interval, with or
/// without interleaved compaction, the incrementally maintained state
/// equals the fold of App::apply over the inserted entries in timestamp
/// order — after every insert.
class UpdateLogEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::uint64_t, bool>> {};

/// Final engine counters of one UpdateLogEquivalence case. tail, mid,
/// undone and folded were recorded when the log also had an array-of-
/// structs store and both stores produced these counters, entry orders and
/// states. redone, taken and retained were re-recorded when a mid-insert
/// that changes nothing where it lands stopped replaying the entries above
/// it; the other four did not move.
struct EngineGolden {
  std::size_t interval;
  std::uint64_t seed;
  bool compact;
  std::uint64_t tail, mid, undone, redone, taken, folded;
  std::size_t retained;
};

constexpr EngineGolden kEngineGoldens[] = {
    {0, 1, false, 3, 197, 9373, 13691, 0, 0, 1},
    {0, 1, true, 3, 197, 9373, 13405, 0, 2, 1},
    {0, 2, false, 6, 194, 9650, 13459, 0, 0, 1},
    {0, 2, true, 6, 194, 9650, 13227, 0, 29, 1},
    {0, 3, false, 4, 196, 9685, 13646, 0, 0, 1},
    {0, 3, true, 4, 196, 9685, 12852, 0, 60, 1},
    {1, 1, false, 3, 197, 9373, 3343, 3146, 0, 194},
    {1, 1, true, 3, 197, 9373, 3341, 3144, 2, 192},
    {1, 2, false, 6, 194, 9650, 3542, 3348, 0, 186},
    {1, 2, true, 6, 194, 9650, 3542, 3348, 29, 163},
    {1, 3, false, 4, 196, 9685, 3683, 3487, 0, 188},
    {1, 3, true, 4, 196, 9685, 3683, 3487, 60, 139},
    {4, 1, false, 3, 197, 9373, 3622, 799, 0, 50},
    {4, 1, true, 3, 197, 9373, 3629, 804, 2, 49},
    {4, 2, false, 6, 194, 9650, 3846, 857, 0, 49},
    {4, 2, true, 6, 194, 9650, 3842, 856, 29, 42},
    {4, 3, false, 4, 196, 9685, 3959, 885, 0, 49},
    {4, 3, true, 4, 196, 9685, 3954, 885, 60, 36},
    {32, 1, false, 3, 197, 9373, 6183, 97, 0, 7},
    {32, 1, true, 3, 197, 9373, 6156, 99, 2, 7},
    {32, 2, false, 6, 194, 9650, 6172, 104, 0, 7},
    {32, 2, true, 6, 194, 9650, 6143, 104, 29, 7},
    {32, 3, false, 4, 196, 9685, 6548, 111, 0, 7},
    {32, 3, true, 4, 196, 9685, 6465, 110, 60, 6},
    {1000, 1, false, 3, 197, 9373, 13691, 0, 0, 1},
    {1000, 1, true, 3, 197, 9373, 13405, 0, 2, 1},
    {1000, 2, false, 6, 194, 9650, 13459, 0, 0, 1},
    {1000, 2, true, 6, 194, 9650, 13227, 0, 29, 1},
    {1000, 3, false, 4, 196, 9685, 13646, 0, 0, 1},
    {1000, 3, true, 4, 196, 9685, 12852, 0, 60, 1},
};

TEST_P(UpdateLogEquivalence, MatchesTimestampOrderFold) {
  const auto [checkpoint_interval, seed, compact] = GetParam();
  sim::Rng rng(seed);
  // Build a random update sequence with global timestamps 1..n, then
  // shuffle its arrival order (Fisher–Yates with our Rng).
  const std::size_t n = 200;
  std::vector<Log::Entry> arrival;
  for (std::size_t i = 0; i < n; ++i) {
    const auto p =
        static_cast<apps::airline::Person>(rng.uniform_int(1, 12));
    Update u;
    switch (rng.uniform_int(0, 3)) {
      case 0: u = req(p); break;
      case 1: u = cancel(p); break;
      case 2: u = up(p); break;
      default: u = down(p); break;
    }
    arrival.push_back({Timestamp{i + 1, 0}, u});
  }
  for (std::size_t i = arrival.size(); i > 1; --i) {
    const auto j =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(arrival[i - 1], arrival[j]);
  }
  Log log(checkpoint_interval);
  std::map<Timestamp, Update> inserted;
  // Every timestamp below `frontier` has arrived, so folding below it is
  // safe: nothing can land under the compaction cut afterwards.
  std::uint64_t frontier = 1;
  for (std::size_t i = 0; i < arrival.size(); ++i) {
    log.insert(arrival[i]);
    inserted.emplace(arrival[i].ts, arrival[i].update);
    while (inserted.count(Timestamp{frontier, 0}) != 0) ++frontier;
    if (compact && i % 16 == 15) log.compact_before(Timestamp{frontier, 0});
    SmallAirline::State expect = SmallAirline::initial();
    for (const auto& [ts, u] : inserted) SmallAirline::apply(u, expect);
    ASSERT_EQ(log.state(), expect) << "after insert " << i;
  }
  // The retained entries are exactly the unfolded suffix, in order.
  auto it = inserted.lower_bound(log.base_cut());
  ASSERT_EQ(log.size(), static_cast<std::size_t>(
                            std::distance(it, inserted.end())));
  for (std::size_t i = 0; i < log.size(); ++i, ++it) {
    ASSERT_EQ(log.ts_at(i), it->first);
    ASSERT_EQ(log.update_at(i), it->second);
  }

  const EngineGolden* golden = nullptr;
  for (const EngineGolden& g : kEngineGoldens) {
    if (g.interval == checkpoint_interval && g.seed == seed &&
        g.compact == compact) {
      golden = &g;
    }
  }
  ASSERT_NE(golden, nullptr);
  const shard::EngineStats& st = log.stats();
  EXPECT_EQ(st.tail_appends, golden->tail);
  EXPECT_EQ(st.mid_inserts, golden->mid);
  EXPECT_EQ(st.undone_updates, golden->undone);
  EXPECT_EQ(st.redone_updates, golden->redone);
  EXPECT_EQ(st.checkpoints_taken, golden->taken);
  EXPECT_EQ(st.entries_folded, golden->folded);
  EXPECT_EQ(log.checkpoints_retained(), golden->retained);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UpdateLogEquivalence,
    ::testing::Combine(::testing::Values(0u, 1u, 4u, 32u, 1000u),
                       ::testing::Values(1u, 2u, 3u), ::testing::Bool()));

TEST(UpdateLog, CheckpointsReduceRedoWork) {
  // The [BK]/[SKS]-style optimization claim, measured: replaying after a
  // mid insert from a nearby checkpoint redoes far fewer updates than
  // replaying from scratch.
  const std::size_t n = 500;
  const auto build = [&](std::size_t interval) {
    Log log(interval);
    for (std::size_t i = 0; i < n; ++i) {
      log.insert({Timestamp{2 * (i + 1), 0}, req(static_cast<apps::airline::Person>(i % 7 + 1))});
    }
    // One late insert near the end.
    log.insert({Timestamp{2 * n - 3, 1}, cancel(3)});
    return log.stats().redone_updates;
  };
  const auto redo_naive = build(0);
  const auto redo_ckpt = build(16);
  EXPECT_LT(redo_ckpt, redo_naive);
}

TEST(UpdateLog, CompactionShiftsCheckpointsIncrementally) {
  Log log(4);
  for (std::size_t i = 0; i < 20; ++i) {
    log.insert({Timestamp{i + 1, 0},
                req(static_cast<apps::airline::Person>(i % 7 + 1))});
  }
  // Base + snapshots at 4, 8, 12, 16, 20.
  EXPECT_EQ(log.checkpoints_retained(), 6u);
  const auto before = log.state();
  // Fold ts < 10 (entries 1..9). Snapshots above the fold point must be
  // shifted, not rebuilt: no redo work is charged for surviving suffix.
  const auto redo_before = log.stats().redone_updates;
  EXPECT_EQ(log.compact_before(Timestamp{10, 0}), 9u);
  EXPECT_EQ(log.stats().redone_updates, redo_before);
  EXPECT_EQ(log.size(), 11u);
  EXPECT_EQ(log.folded_count(), 9u);
  // Base + shifted snapshots formerly at 12, 16, 20 (now 3, 7, 11).
  EXPECT_EQ(log.checkpoints_retained(), 4u);
  EXPECT_EQ(log.state(), before);
  EXPECT_EQ(log.state(), log.recompute_naive());
  // Merging continues correctly against the shifted snapshots — including
  // a mid-insert that replays from one of them.
  log.insert({Timestamp{25, 0}, req(9)});
  log.insert({Timestamp{15, 1}, cancel(2)});
  EXPECT_EQ(log.state(), log.recompute_naive());
  EXPECT_EQ(log.total_merged(), 22u);
}

TEST(UpdateLog, GeometricThinningBoundsSnapshots) {
  // max_checkpoints = 4 with interval 4 over 200 tail appends: unbounded
  // mode would retain ~50 snapshots; thinning keeps at most 4, dense near
  // the tail and sparse near the base.
  Log log(4, 4);
  for (std::size_t i = 0; i < 200; ++i) {
    log.insert({Timestamp{i + 1, 0},
                req(static_cast<apps::airline::Person>(i % 7 + 1))});
  }
  EXPECT_LE(log.checkpoints_retained(), 4u);
  EXPECT_GT(log.stats().checkpoints_thinned, 0u);
  EXPECT_EQ(log.state(), log.recompute_naive());
  // Mid-inserts at early positions fall back to the sparse snapshots (or
  // the base) and must still converge to the naive replay.
  log.insert({Timestamp{10, 1}, cancel(3)});
  EXPECT_EQ(log.state(), log.recompute_naive());
  log.insert({Timestamp{150, 1}, up(5)});
  EXPECT_EQ(log.state(), log.recompute_naive());
}

TEST(UpdateLog, ThinningComposesWithCompaction) {
  Log log(4, 4);
  for (std::size_t i = 0; i < 100; ++i) {
    log.insert({Timestamp{i + 1, 0},
                req(static_cast<apps::airline::Person>(i % 5 + 1))});
  }
  EXPECT_GT(log.compact_before(Timestamp{60, 0}), 0u);
  EXPECT_EQ(log.state(), log.recompute_naive());
  for (std::size_t i = 100; i < 160; ++i) {
    log.insert({Timestamp{i + 1, 0},
                req(static_cast<apps::airline::Person>(i % 5 + 1))});
  }
  log.insert({Timestamp{80, 1}, cancel(2)});
  EXPECT_EQ(log.state(), log.recompute_naive());
  EXPECT_LE(log.checkpoints_retained(), 4u);
}

TEST(UpdateLog, BoundedReplayIsProportionalToDisplacement) {
  // With the count bounded (interval 32, at most 8 snapshots), a
  // mid-insert displacing d entries must still find a snapshot close below
  // it: replay stays within 3d + interval, however deep the insert lands.
  constexpr std::size_t kN = 4000, kInterval = 32;
  for (const std::size_t d : {20, 50, 100, 200, 500, 1000, 2000, 3000}) {
    Log log(kInterval, 8);
    for (std::size_t i = 0; i < kN; ++i) {
      log.insert({Timestamp{2 * (i + 1), 0},
                  req(static_cast<apps::airline::Person>(i % 11 + 1))});
    }
    ASSERT_LE(log.checkpoints_retained(), 8u);
    const auto redo_before = log.stats().redone_updates;
    // Lands just below entry kN - d, displacing exactly d entries.
    log.insert({Timestamp{2 * (kN - d) + 1, 1}, cancel(3)});
    ASSERT_EQ(log.stats().undone_updates, d);
    const auto replayed = log.stats().redone_updates - redo_before;
    EXPECT_LE(replayed, 3 * d + kInterval) << "d = " << d;
    EXPECT_LE(log.checkpoints_retained(), 8u) << "d = " << d;
    EXPECT_EQ(log.state(), log.recompute_naive()) << "d = " << d;
  }
}

TEST(UpdateLog, CheckpointCountNeverExceedsTheBound) {
  // Strict bound: after every insert, compaction and truncation the
  // snapshot count (base included) stays within max_checkpoints — also at
  // the degenerate bounds 1 (base only) and 2 (base + newest).
  for (const std::size_t max : {1u, 2u, 3u, 5u, 8u}) {
    sim::Rng rng(max);
    Log log(4, max);
    std::uint64_t next_ts = 1;
    for (std::size_t step = 0; step < 600; ++step) {
      const auto p = static_cast<apps::airline::Person>(rng.uniform_int(1, 9));
      // Mostly in-order appends, with some late arrivals landing up to 40
      // timestamps back (above the compaction base).
      const std::uint64_t back = static_cast<std::uint64_t>(
          rng.bernoulli(0.3) ? rng.uniform_int(1, 40) : 0);
      const std::uint64_t floor = log.base_cut().logical + 1;
      const std::uint64_t ts = std::max(next_ts - std::min(back, next_ts),
                                        floor);
      const Timestamp t{ts, static_cast<core::NodeId>(step % 7 + 1)};
      if (!log.contains(t) && !(t < log.base_cut())) log.insert({t, req(p)});
      ++next_ts;
      ASSERT_LE(log.checkpoints_retained(), max) << "max " << max;
      if (step % 150 == 149) {
        log.compact_before(Timestamp{next_ts - 60, 0});
        ASSERT_LE(log.checkpoints_retained(), max) << "max " << max;
      }
      if (step % 200 == 199 && log.size() > 10) {
        log.truncate_suffix(log.size() - 10);
        ASSERT_LE(log.checkpoints_retained(), max) << "max " << max;
      }
      ASSERT_EQ(log.state(), log.recompute_naive()) << "max " << max;
    }
    if (max == 1) {
      // The base fills the bound: no snapshot is copied only to be dropped.
      EXPECT_EQ(log.stats().checkpoints_taken, 0u);
      EXPECT_EQ(log.stats().checkpoints_thinned, 0u);
    } else {
      EXPECT_GT(log.stats().checkpoints_thinned, 0u) << "max " << max;
    }
  }
}

TEST(UpdateLog, NoOpMidInsertSkipsTheReplayAboveIt) {
  // Interval 4 over 40 appends: snapshots at 4, 8, ..., 40. Persons 1..3
  // are requested at timestamps 2, 4 and 6, so a request of person 2
  // landing at position 10 changes nothing there.
  Log log(4);
  for (std::size_t i = 0; i < 40; ++i) {
    log.insert({Timestamp{2 * (i + 1), 0},
                req(static_cast<apps::airline::Person>(i % 3 + 1))});
  }
  const auto before = log.state();
  const auto redone = log.stats().redone_updates;
  const auto retained = log.checkpoints_retained();
  log.insert({Timestamp{21, 1}, req(2)});
  // Replayed from the snapshot at 8 up to and including the newcomer; the
  // 30 entries above it were not touched, and no snapshot went stale.
  EXPECT_EQ(log.stats().redone_updates - redone, 3u);
  EXPECT_EQ(log.stats().undone_updates, 30u);
  EXPECT_EQ(log.stats().checkpoints_invalidated, 0u);
  EXPECT_EQ(log.checkpoints_retained(), retained);
  EXPECT_EQ(log.state(), before);
  EXPECT_EQ(log.state(), log.recompute_naive());
  for (std::size_t k = 0; k <= log.size(); ++k) {
    SmallAirline::State expect = SmallAirline::initial();
    for (std::size_t i = 0; i < k; ++i) {
      SmallAirline::apply(log.update_at(i), expect);
    }
    const Timestamp cut = k < log.size() ? log.ts_at(k) : Timestamp{100, 0};
    ASSERT_EQ(log.state_before(cut), expect) << "k = " << k;
  }
  // A cancel at the same depth does change the state: the snapshots above
  // it go, and the replay runs on to the tail.
  const auto redone2 = log.stats().redone_updates;
  log.insert({Timestamp{23, 1}, cancel(1)});
  EXPECT_GT(log.stats().checkpoints_invalidated, 0u);
  EXPECT_EQ(log.stats().redone_updates - redone2, 42u - 8u);
  EXPECT_EQ(log.state(), log.recompute_naive());
}

TEST(UpdateLog, NoOpSkipComparesListsNotIndexHistory) {
  // Person 10,000 is requested and cancelled at timestamps 6 and 8, so the
  // states from position 4 on keep index room for an id no list holds, and
  // the snapshot at 4 has the lists of position 2's state but not its
  // index. Interval 4 over 12 appends: snapshots at 4, 8 and 12.
  const std::vector<Update> appended = {req(1), req(2), req(10000),
                                        cancel(10000), req(3), req(1),
                                        req(4), cancel(2), req(5),
                                        req(2), req(6), cancel(3)};
  Log log(4);
  for (std::size_t i = 0; i < appended.size(); ++i) {
    log.insert({Timestamp{2 * (i + 1), 0}, appended[i]});
  }
  ASSERT_EQ(log.checkpoints_retained(), 4u);
  const auto before = log.state();
  // cancel(10000) at position 5, where 10,000 was requested and cancelled:
  // replayed from the snapshot at 4 (one entry) plus the newcomer.
  auto redone = log.stats().redone_updates;
  log.insert({Timestamp{11, 1}, cancel(10000)});
  EXPECT_EQ(log.stats().redone_updates - redone, 2u);
  EXPECT_EQ(log.stats().undone_updates, 7u);
  // req(1) at position 2, where 10,000 was never seen: replayed from the
  // base (two entries) plus the newcomer, into scratch states that held
  // the larger index of the walk above.
  redone = log.stats().redone_updates;
  log.insert({Timestamp{5, 1}, req(1)});
  EXPECT_EQ(log.stats().redone_updates - redone, 3u);
  EXPECT_EQ(log.stats().undone_updates, 7u + 11u);
  // Both skipped the replay above them: the snapshots shifted, none went.
  EXPECT_EQ(log.stats().checkpoints_invalidated, 0u);
  EXPECT_EQ(log.checkpoints_retained(), 4u);
  EXPECT_EQ(log.state(), before);
  EXPECT_EQ(log.state(), apps::airline::State({}, {1, 4, 5, 2, 6}));
  EXPECT_EQ(log.state(), log.recompute_naive());
  for (std::size_t k = 0; k <= log.size(); ++k) {
    SmallAirline::State expect = SmallAirline::initial();
    for (std::size_t i = 0; i < k; ++i) {
      SmallAirline::apply(log.update_at(i), expect);
    }
    const Timestamp cut = k < log.size() ? log.ts_at(k) : Timestamp{100, 0};
    ASSERT_EQ(log.state_before(cut), expect) << "k = " << k;
  }
}

/// Arrivals for timestamps 1..n in which most updates change nothing where
/// they land: persons 1..4 are requested first, after which half the
/// updates re-request one of them and a quarter cancel persons nobody ever
/// requests. The rest cancel, move up or move down one of persons 1..4.
/// Arrival order is a sliding-window shuffle, so most merges are
/// mid-inserts a few dozen entries deep.
std::vector<Log::Entry> mostly_noop_arrivals(std::size_t n, std::size_t window,
                                             std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Log::Entry> arrival;
  for (std::size_t i = 0; i < n; ++i) {
    const auto known =
        static_cast<apps::airline::Person>(rng.uniform_int(1, 4));
    Update u;
    if (i < 4) {
      u = req(static_cast<apps::airline::Person>(i + 1));
    } else if (rng.bernoulli(0.5)) {
      u = req(known);
    } else if (rng.bernoulli(0.5)) {
      u = cancel(static_cast<apps::airline::Person>(rng.uniform_int(50, 60)));
    } else {
      switch (rng.uniform_int(0, 2)) {
        case 0: u = cancel(known); break;
        case 1: u = up(known); break;
        default: u = down(known); break;
      }
    }
    arrival.push_back({Timestamp{i + 1, 0}, u});
  }
  for (std::size_t i = n; i-- > 1;) {
    const std::size_t lo = i > window ? i - window : 0;
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(i)));
    std::swap(arrival[i], arrival[j]);
  }
  return arrival;
}

TEST(UpdateLog, NoOpHeavyArrivalsMatchTheFoldEverywhere) {
  // Differential for the no-op skip, which keeps the state and shifts the
  // snapshots above the insertion point instead of replaying. After every
  // insert, compaction and truncation, the state must equal the timestamp-
  // order fold, and state_before() at every retained position must equal
  // the fold of the entries below it — which reads every retained
  // snapshot, shifted ones included.
  for (const std::size_t interval : {0u, 1u, 4u, 32u}) {
    for (const std::size_t max : {0u, 1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message()
                   << "interval " << interval << " max " << max);
      std::vector<Log::Entry> arrival =
          mostly_noop_arrivals(200, 24, 10 * interval + max + 1);
      Log log(interval, max);
      std::map<Timestamp, Update> inserted;
      for (std::size_t i = 0; i < arrival.size(); ++i) {
        log.insert(arrival[i]);
        inserted.emplace(arrival[i].ts, arrival[i].update);
        if (i % 16 == 15) {
          // Every timestamp below the first missing one has arrived, so
          // nothing can land under that cut afterwards.
          std::uint64_t frontier = 1;
          while (inserted.count(Timestamp{frontier, 0}) != 0) ++frontier;
          log.compact_before(Timestamp{frontier, 0});
        }
        if (i % 40 == 39 && log.size() > 8) {
          // Stale-disk truncation: the lost suffix re-arrives later.
          const std::size_t keep = log.size() - 8;
          for (std::size_t k = keep; k < log.size(); ++k) {
            arrival.push_back({log.ts_at(k), log.update_at(k)});
            inserted.erase(log.ts_at(k));
          }
          log.truncate_suffix(keep);
        }
        SmallAirline::State fold = SmallAirline::initial();
        std::size_t k = 0;
        for (const auto& [ts, u] : inserted) {
          if (!(ts < log.base_cut())) {
            ASSERT_EQ(log.ts_at(k), ts) << "after step " << i;
            ASSERT_EQ(log.state_before(ts), fold)
                << "position " << k << " after step " << i;
            ++k;
          }
          SmallAirline::apply(u, fold);
        }
        ASSERT_EQ(k, log.size()) << "after step " << i;
        ASSERT_EQ(log.state(), fold) << "after step " << i;
        if (max != 0) {
          ASSERT_LE(log.checkpoints_retained(), max) << "after step " << i;
        }
      }
      EXPECT_EQ(inserted.size(), 200u);
    }
  }
}

TEST(UpdateLog, NoOpInsertsKeepSnapshotsDense) {
  // E25's merge_replay order: 20,000 requests of person 1 + i % 400 with
  // sliding-window disorder (window 512) into a log with dense snapshots
  // (interval 32, no bound). Past the first few hundred entries nearly
  // every mid-insert is a duplicate request, so the replay mostly stops
  // at the insertion point. The walk up to it must still re-take
  // snapshots: otherwise each no-op insert widens the gap it lands in, the
  // snapshots thin out, and the walks grow. Bound: the 5,414,008 applies
  // this run cost when every mid-insert replayed to the tail.
  constexpr std::size_t kEntries = 20000, kWindow = 512;
  sim::Rng rng(0xe25 ^ 0x9e25);
  std::vector<std::size_t> order(kEntries);
  for (std::size_t i = 0; i < kEntries; ++i) order[i] = i;
  for (std::size_t i = kEntries; i-- > 1;) {
    const std::size_t lo = i > kWindow ? i - kWindow : 0;
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(i)));
    std::swap(order[i], order[j]);
  }
  Log log(32, 0);
  for (const std::size_t i : order) {
    log.insert({Timestamp{i + 1, static_cast<core::NodeId>(i % 4)},
                req(static_cast<apps::airline::Person>(1 + i % 400))});
  }
  EXPECT_LE(log.stats().redone_updates, 5414008u);
  EXPECT_EQ(log.state(), log.recompute_naive());
}

TEST(UpdateLog, CompactionRecyclesArenaSlots) {
  Log log(4);
  for (std::size_t i = 0; i < 64; ++i) {
    log.insert({Timestamp{i + 1, 0},
                req(static_cast<apps::airline::Person>(i % 7 + 1))});
  }
  EXPECT_EQ(log.arena_slots(), 64u);
  EXPECT_EQ(log.arena_free_slots(), 0u);
  EXPECT_EQ(log.compact_before(Timestamp{33, 0}), 32u);
  // Folding frees the prefix's slots for reuse...
  EXPECT_EQ(log.arena_free_slots(), 32u);
  for (std::size_t i = 64; i < 96; ++i) {
    log.insert({Timestamp{i + 1, 0},
                req(static_cast<apps::airline::Person>(i % 7 + 1))});
  }
  // ...so a steady-state window never grows the arena: 32 new entries fit
  // exactly in the 32 recycled slots.
  EXPECT_EQ(log.arena_slots(), 64u);
  EXPECT_EQ(log.arena_free_slots(), 0u);
  EXPECT_EQ(log.state(), log.recompute_naive());
}

TEST(UpdateLog, TruncateSuffixAgainstArenaLayout) {
  // The stale-disk path over the SoA store: truncation frees the suffix's
  // slots, keeps a consistent prefix, and re-merging the lost tail (plus
  // deeper mid-inserts) reuses them while matching the naive oracle.
  Log log(4);
  std::vector<Log::Entry> all;
  for (std::size_t i = 0; i < 40; ++i) {
    all.push_back({Timestamp{i + 1, 0},
                   req(static_cast<apps::airline::Person>(i % 9 + 1))});
  }
  for (const auto& e : all) log.insert(e);
  EXPECT_EQ(log.truncate_suffix(25), 15u);
  EXPECT_EQ(log.size(), 25u);
  EXPECT_EQ(log.arena_free_slots(), 15u);
  EXPECT_EQ(log.state(), log.recompute_naive());
  // Replay the lost tail out of order, as anti-entropy repair would.
  for (std::size_t i = all.size(); i > 25; --i) log.insert(all[i - 1]);
  EXPECT_EQ(log.size(), 40u);
  EXPECT_EQ(log.arena_slots(), 40u);
  EXPECT_EQ(log.arena_free_slots(), 0u);
  EXPECT_EQ(log.state(), log.recompute_naive());
  SmallAirline::State expect = SmallAirline::initial();
  for (const auto& e : all) SmallAirline::apply(e.update, expect);
  EXPECT_EQ(log.state(), expect);
}

TEST(UpdateLog, StatsCountCheckpoints) {
  Log log(4);
  for (std::size_t i = 0; i < 12; ++i) {
    log.insert({Timestamp{i + 1, 0}, req(static_cast<apps::airline::Person>(i + 1))});
  }
  EXPECT_EQ(log.stats().checkpoints_taken, 3u);  // at sizes 4, 8, 12
  // A mid insert at position 5 invalidates checkpoints covering > 5.
  log.insert({Timestamp{5, 1}, cancel(1)});
  EXPECT_GT(log.stats().checkpoints_invalidated, 0u);
  EXPECT_EQ(log.state(), log.recompute_naive());
}

}  // namespace

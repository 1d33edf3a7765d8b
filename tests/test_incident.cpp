// Violation forensics: incident bundles, metric-name drift guards, the
// metrics time-series, and flame-diff triage.
//
// Four layers under test. obs/metric_names.hpp: the hoisted name table
// must stay pairwise-unique and survive a registry JSON round trip (the
// same drift guard the EventType name table carries). MetricsRegistry::
// delta_from + Cluster::metrics_series: boundary snapshots must land on
// the fault plan's instants and their deltas must re-sum to the cumulative
// totals. obs::IncidentReport: epoch attribution by ADMISSION (originate
// event), not detection; contributors from the causal ancestry; byte-
// deterministic exporters — pinned on hand-built chains with known times
// and on full chaos/crash-chaos streams (the same seed tiers whose trace
// goldens test_flame pins). obs::FlameDiff: identical profiles diff
// empty, a perturbed stage is ranked first, structural mismatches are
// noted.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/incident.hpp"
#include "analysis/report.hpp"
#include "apps/airline/airline.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "obs/causal.hpp"
#include "obs/epoch.hpp"
#include "obs/flame.hpp"
#include "obs/flame_diff.hpp"
#include "obs/incident.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "shard/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "sim/rng.hpp"

namespace {

namespace al = apps::airline;
namespace mn = obs::metric_names;
using Air = al::BasicAirline<15, 900, 300>;
using obs::EventType;

obs::Event ev(EventType type, double time, sim::NodeId node,
              std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint64_t ts_logical = 0, sim::NodeId ts_node = 0) {
  return obs::Event{type, time, node, ts_logical, ts_node, a, b};
}

// ---------------------------------------------------------------------------
// Metric-name drift guards
// ---------------------------------------------------------------------------

TEST(MetricNames, NamesAreUniqueAndDottedFamilies) {
  std::set<std::string> seen;
  for (const char* name : mn::kAllMetricNames) {
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name: " << name;
    EXPECT_NE(std::string(name).find('.'), std::string::npos)
        << "not a dotted path: " << name;
  }
  EXPECT_EQ(seen.size(), mn::kAllMetricNames.size());
}

TEST(MetricNames, EveryNameSurvivesRegistryRoundTrip) {
  obs::MetricsRegistry reg;
  std::uint64_t v = 1;
  for (const char* name : mn::kAllMetricNames) reg.set_counter(name, v++);
  const obs::MetricsRegistry back =
      obs::MetricsRegistry::from_json(reg.to_json());
  EXPECT_EQ(back, reg);
  v = 1;
  for (const char* name : mn::kAllMetricNames) {
    ASSERT_TRUE(back.counters().count(name)) << name;
    EXPECT_EQ(back.counters().at(name), v++) << name;
  }
}

TEST(MetricNames, ExportersWriteTheHoistedNames) {
  // A traced cluster run must populate the families the constants name —
  // the drift guard that catches an exporter renaming a key while the
  // constant (and every reader) keeps the old spelling.
  auto sc = harness::lan(3);
  sc.trace.enabled = true;
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(11));
  harness::AirlineWorkload w;
  w.duration = 4.0;
  w.request_rate = 3.0;
  harness::drive_airline(cluster, w, 11 ^ 0xf);
  cluster.run_until(w.duration);
  cluster.settle();
  const obs::MetricsRegistry reg = cluster.metrics();
  EXPECT_TRUE(reg.counters().count(mn::kBroadcastOriginated));
  EXPECT_TRUE(reg.counters().count(mn::kBroadcastDelivered));
  EXPECT_TRUE(reg.counters().count(mn::kEpochCount));
  EXPECT_TRUE(reg.counters().count(mn::kLifecycleUpdatesOriginated));
  EXPECT_TRUE(reg.gauges().count(mn::kEpochQuietSeconds));
  EXPECT_TRUE(reg.histograms().count(mn::kEpochCriticalPathSeconds));
  EXPECT_TRUE(reg.histograms().count(mn::kCausalDeliverLatency));
  EXPECT_TRUE(reg.histograms().count(mn::kLifecycleReplicationLatency));
}

// ---------------------------------------------------------------------------
// MetricsRegistry::delta_from
// ---------------------------------------------------------------------------

TEST(MetricsDelta, CountersSubtractAndSaturate) {
  obs::MetricsRegistry earlier, later;
  earlier.set_counter("a", 10);
  later.set_counter("a", 25);
  later.set_counter("b", 7);       // missing earlier: reads as 0
  earlier.set_counter("gone", 3);  // missing later: not in the delta
  later.set_counter("shrank", 1);
  earlier.set_counter("shrank", 5);  // derived counter went down: clamp to 0
  const obs::MetricsRegistry d = later.delta_from(earlier);
  EXPECT_EQ(d.counters().at("a"), 15u);
  EXPECT_EQ(d.counters().at("b"), 7u);
  EXPECT_EQ(d.counters().at("shrank"), 0u);
  EXPECT_EQ(d.counters().count("gone"), 0u);
}

TEST(MetricsDelta, GaugesKeepPointInTimeValue) {
  obs::MetricsRegistry earlier, later;
  earlier.set_gauge("t", 5.0);
  later.set_gauge("t", 12.5);
  const obs::MetricsRegistry d = later.delta_from(earlier);
  EXPECT_DOUBLE_EQ(d.gauges().at("t"), 12.5);
}

TEST(MetricsDelta, HistogramsSubtractBucketwise) {
  obs::MetricsRegistry earlier, later;
  obs::Histogram& ha = earlier.histogram("h", obs::Histogram::counts());
  obs::Histogram& hb = later.histogram("h", obs::Histogram::counts());
  ha.add(1.0);
  hb.add(1.0);
  hb.add(2.0);
  hb.add(100.0);
  const obs::MetricsRegistry d = later.delta_from(earlier);
  const obs::Histogram& dh = d.histograms().at("h");
  EXPECT_EQ(dh.count(), 2u);
  EXPECT_DOUBLE_EQ(dh.sum(), 102.0);
  // min/max are the later snapshot's (interval extremes unrecoverable).
  EXPECT_DOUBLE_EQ(dh.min(), 1.0);
  EXPECT_DOUBLE_EQ(dh.max(), 100.0);
  std::uint64_t total = 0;
  for (const std::uint64_t c : dh.bucket_counts()) total += c;
  EXPECT_EQ(total, 2u);
}

TEST(MetricsDelta, HistogramBoundsMismatchCopiesLater) {
  obs::MetricsRegistry earlier, later;
  earlier.histogram("h", obs::Histogram::latency()).add(0.5);
  later.histogram("h", obs::Histogram::counts()).add(3.0);
  const obs::MetricsRegistry d = later.delta_from(earlier);
  EXPECT_EQ(d.histograms().at("h"), later.histograms().at("h"));
}

// ---------------------------------------------------------------------------
// CheckReport message<->tx pairing
// ---------------------------------------------------------------------------

TEST(CheckReport, ViolationTxPairingSurvivesMixedAdds) {
  analysis::CheckReport r("t");
  r.add_violation("no tx");
  r.add_violation("tx three", 3);
  r.add_violation("tx one", 1);
  analysis::CheckReport other("o");
  other.add_violation("tx three again", 3);
  r.absorb(other);
  ASSERT_EQ(r.violations().size(), 4u);
  EXPECT_EQ(r.violation_tx(0), analysis::CheckReport::kNoTx);
  EXPECT_EQ(r.violation_tx(1), 3u);
  EXPECT_EQ(r.violation_tx(2), 1u);
  EXPECT_EQ(r.violation_tx(3), 3u);
  const std::vector<std::size_t> txs = r.violating_txs();
  ASSERT_EQ(txs.size(), 2u);  // sorted, deduplicated, kNoTx dropped
  EXPECT_EQ(txs[0], 1u);
  EXPECT_EQ(txs[1], 3u);
}

// ---------------------------------------------------------------------------
// IncidentReport: attribution on a hand-built stream
// ---------------------------------------------------------------------------

/// Two updates with a causal dependency spanning an epoch boundary:
/// update A (7:0) originates and replicates to node 1 during the quiet
/// epoch; node 1 then originates update B (9:1) — still quiet — which
/// reaches node 0 only after cut 0 opens at t=2.
std::vector<obs::Event> forensic_stream() {
  std::vector<obs::Event> events;
  events.push_back(ev(EventType::kSchedulerDispatch, 0.0, obs::kControlNode));
  events.push_back(
      ev(EventType::kBroadcastOriginate, 1.0, 0, /*a=*/1, 0, /*ts=*/7, 0));
  events.push_back(ev(EventType::kBroadcastSend, 1.0, 0, /*a=*/1, /*b=*/2));
  events.push_back(ev(EventType::kMergeTailAppend, 1.0, 0, 0, 0, /*ts=*/7, 0));
  events.push_back(ev(EventType::kBroadcastDeliver, 1.2, 1, /*a=*/0, /*b=*/1));
  events.push_back(ev(EventType::kMergeTailAppend, 1.2, 1, 0, 0, /*ts=*/7, 0));
  events.push_back(
      ev(EventType::kBroadcastOriginate, 1.5, 1, /*a=*/1, 0, /*ts=*/9, 1));
  events.push_back(ev(EventType::kBroadcastSend, 1.5, 1, /*a=*/1, /*b=*/2));
  events.push_back(ev(EventType::kMergeTailAppend, 1.5, 1, 0, 0, /*ts=*/9, 1));
  events.push_back(ev(EventType::kPartitionOpen, 2.0, obs::kControlNode, 0));
  events.push_back(ev(EventType::kBroadcastDeliver, 2.6, 0, /*a=*/1, /*b=*/1));
  events.push_back(ev(EventType::kMergeMidInsert, 2.7, 0, 0, 0, /*ts=*/9, 1));
  events.push_back(ev(EventType::kPartitionHeal, 4.0, obs::kControlNode, 0));
  events.push_back(ev(EventType::kSchedulerDispatch, 5.0, obs::kControlNode));
  return events;
}

TEST(IncidentReport, AttributesAdmissionEpochNotDetectionEpoch) {
  const std::vector<obs::Event> events = forensic_stream();
  obs::IncidentSeed seed;
  seed.message = "divergence at node 0";
  seed.tx_index = 4;
  seed.ts_logical = 9;
  seed.ts_node = 1;
  seed.detected_at = 3.0;  // detection fires while the cut is open
  const obs::IncidentReport report =
      obs::IncidentReport::build("streaming checker", events, {seed});

  ASSERT_EQ(report.incidents().size(), 1u);
  const obs::Incident& inc = report.incidents()[0];
  EXPECT_TRUE(inc.in_stream);
  // Admission: B originated at t=1.5, BEFORE the cut — epoch 0, quiet.
  EXPECT_EQ(inc.admitted_epoch, 0u);
  EXPECT_EQ(inc.admitted_label, "quiet");
  // Detection: t=3.0 falls inside the cut epoch — deliberately different.
  EXPECT_EQ(inc.detected_epoch, 1u);
  EXPECT_EQ(report.epochs().epoch(inc.detected_epoch).label(), "cut{0}");
  ASSERT_FALSE(inc.chain.empty());
  EXPECT_EQ(inc.chain.front().type, EventType::kBroadcastOriginate);
  ASSERT_FALSE(inc.window.empty());
  // Flame row: one remote replica (node 0), mid-insert merge.
  ASSERT_TRUE(inc.timing_known);
  EXPECT_TRUE(inc.timing.complete);
  EXPECT_EQ(inc.timing.replicas, 1u);
  EXPECT_EQ(inc.timing.crit_deliver_us, 1100000);
  EXPECT_EQ(inc.timing.crit_merge_us, 100000);
}

TEST(IncidentReport, ContributorsComeFromCausalAncestry) {
  const std::vector<obs::Event> events = forensic_stream();
  obs::IncidentSeed seed;
  seed.message = "m";
  seed.ts_logical = 9;
  seed.ts_node = 1;
  const obs::IncidentReport report =
      obs::IncidentReport::build("check", events, {seed});
  ASSERT_EQ(report.incidents().size(), 1u);
  const obs::Incident& inc = report.incidents()[0];
  // B's origination causally follows A's delivery at node 1: A must appear
  // as a contributing update, attributed to ITS admission epoch (quiet).
  bool found_a = false;
  for (const obs::IncidentContributor& c : inc.contributors) {
    EXPECT_FALSE(c.ts_logical == 9 && c.ts_node == 1)
        << "the violating update must not contribute to itself";
    if (c.ts_logical == 7 && c.ts_node == 0) {
      found_a = true;
      EXPECT_EQ(c.admitted_epoch, 0u);
      EXPECT_EQ(c.epoch_label, "quiet");
      EXPECT_EQ(c.originate_us, 1000000);
    }
  }
  EXPECT_TRUE(found_a);
  // No detection instant (post-hoc): detected epoch falls back to the last
  // chain event — the mid-insert at t=2.7, inside the cut.
  EXPECT_EQ(inc.detected_epoch, 1u);
}

TEST(IncidentReport, UnknownUpdateStaysOutOfStream) {
  const std::vector<obs::Event> events = forensic_stream();
  obs::IncidentSeed seed;
  seed.message = "phantom";
  seed.ts_logical = 424242;
  seed.ts_node = 3;
  const obs::IncidentReport report =
      obs::IncidentReport::build("check", events, {seed});
  ASSERT_EQ(report.incidents().size(), 1u);
  const obs::Incident& inc = report.incidents()[0];
  EXPECT_FALSE(inc.in_stream);
  EXPECT_TRUE(inc.chain.empty());
  EXPECT_FALSE(inc.timing_known);
  EXPECT_TRUE(inc.contributors.empty());
  // Render and JSON still work and say so.
  EXPECT_NE(report.render().find("not in the supplied stream"),
            std::string::npos);
}

TEST(IncidentReport, PinnedWindowWinsOverLiveSlice) {
  const std::vector<obs::Event> events = forensic_stream();
  obs::PinnedWindow w;
  w.ts_logical = 9;
  w.ts_node = 1;
  w.events = {events[10], events[11]};
  obs::IncidentSeed seed;
  seed.message = "m";
  seed.ts_logical = 9;
  seed.ts_node = 1;
  const obs::IncidentReport report =
      obs::IncidentReport::build("check", events, {seed}, {w});
  ASSERT_EQ(report.incidents().size(), 1u);
  ASSERT_EQ(report.incidents()[0].window.size(), 2u);
  EXPECT_TRUE(report.incidents()[0].window[0] == events[10]);
}

TEST(IncidentReport, MetricsFilterKeepsForensicFamiliesOnly) {
  obs::MetricsRegistry reg;
  reg.set_counter(mn::kCheckerViolations, 2);
  reg.set_counter(mn::kEpochCount, 3);
  reg.set_counter(mn::kBroadcastOriginated, 99);  // not forensic
  reg.set_gauge(mn::kEpochQuietSeconds, 1.5);
  reg.histogram(mn::kEpochCriticalPathSeconds).add(0.25);
  reg.histogram(mn::kLifecycleReplicationLatency).add(0.5);  // not forensic
  obs::IncidentSeed seed;
  seed.message = "m";
  seed.ts_logical = 9;
  seed.ts_node = 1;
  const obs::IncidentReport report = obs::IncidentReport::build(
      "check", forensic_stream(), {seed}, {}, &reg);
  EXPECT_EQ(report.metrics().counters().count(mn::kCheckerViolations), 1u);
  EXPECT_EQ(report.metrics().counters().count(mn::kEpochCount), 1u);
  EXPECT_EQ(report.metrics().counters().count(mn::kBroadcastOriginated), 0u);
  EXPECT_EQ(report.metrics().gauges().count(mn::kEpochQuietSeconds), 1u);
  EXPECT_EQ(
      report.metrics().histograms().count(mn::kEpochCriticalPathSeconds), 1u);
  EXPECT_EQ(
      report.metrics().histograms().count(mn::kLifecycleReplicationLatency),
      0u);
}

TEST(IncidentReport, ExportersAreByteDeterministicAndFoldedIsTagged) {
  const std::vector<obs::Event> events = forensic_stream();
  obs::IncidentSeed seed;
  seed.message = "m";
  seed.ts_logical = 9;
  seed.ts_node = 1;
  seed.detected_at = 3.0;
  const obs::IncidentReport a =
      obs::IncidentReport::build("check", events, {seed});
  const obs::IncidentReport b =
      obs::IncidentReport::build("check", events, {seed});
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.folded(), b.folded());
  EXPECT_EQ(a.render(), b.render());
  // Folded stacks carry the incident + admission-epoch prefix.
  EXPECT_NE(a.folded().find("incident0:epoch0:quiet;deliver 1100000\n"),
            std::string::npos);
  EXPECT_NE(a.folded().find("incident0:epoch0:quiet;merge 100000\n"),
            std::string::npos);
  // Empty bundle: empty exporters, and render() prints nothing.
  const obs::IncidentReport empty =
      obs::IncidentReport::build("check", events, {});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.render(), "");
  EXPECT_EQ(empty.folded(), "");
  EXPECT_NE(a.render().find("admitted in epoch 0 [quiet]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// FlameDiff
// ---------------------------------------------------------------------------

obs::FlameProfile profile_of(const std::vector<obs::Event>& events) {
  const obs::EpochIndex epochs = obs::EpochIndex::build(events);
  const obs::CausalGraph graph = obs::CausalGraph::build(events);
  return obs::FlameProfile::build(events, graph, epochs);
}

TEST(FlameDiff, IdenticalProfilesDiffEmpty) {
  const std::vector<obs::Event> events = forensic_stream();
  const obs::FlameDiff d =
      obs::FlameDiff::build(profile_of(events), profile_of(events));
  EXPECT_FALSE(d.differs());
  EXPECT_TRUE(d.deltas().empty());
  EXPECT_TRUE(d.notes().empty());
  EXPECT_NE(d.to_json().find("\"differs\":false"), std::string::npos);
  EXPECT_NE(d.markdown().find("no stage-weight changes"), std::string::npos);
  // Byte-deterministic.
  const obs::FlameDiff d2 =
      obs::FlameDiff::build(profile_of(events), profile_of(events));
  EXPECT_EQ(d.to_json(), d2.to_json());
  EXPECT_EQ(d.markdown(), d2.markdown());
}

TEST(FlameDiff, PerturbedStageIsRankedFirst) {
  const std::vector<obs::Event> base = forensic_stream();
  std::vector<obs::Event> slow = base;
  // Delay B's mid-insert at node 0 by 300 ms: merge weight 100ms -> 400ms.
  ASSERT_EQ(slow[11].type, EventType::kMergeMidInsert);
  slow[11].time = 3.0;
  const obs::FlameDiff d =
      obs::FlameDiff::build(profile_of(base), profile_of(slow));
  ASSERT_TRUE(d.differs());
  ASSERT_FALSE(d.deltas().empty());
  const obs::StageDelta& top = d.deltas()[0];
  EXPECT_EQ(top.stage, "merge;mid_insert");
  EXPECT_EQ(top.delta_us, 300000);
  EXPECT_EQ(top.us_a, 100000);
  EXPECT_EQ(top.us_b, 400000);
  // Ranking is by absolute delta, descending.
  for (std::size_t i = 1; i < d.deltas().size(); ++i) {
    const std::int64_t prev = d.deltas()[i - 1].delta_us;
    const std::int64_t cur = d.deltas()[i].delta_us;
    EXPECT_GE(prev < 0 ? -prev : prev, cur < 0 ? -cur : cur);
  }
  EXPECT_NE(d.markdown().find("merge;mid_insert"), std::string::npos);
  EXPECT_NE(d.to_json().find("\"differs\":true"), std::string::npos);
}

TEST(FlameDiff, EpochStructureChangesAreNoted) {
  const std::vector<obs::Event> base = forensic_stream();
  std::vector<obs::Event> extra = base;
  // A second cut opens late: one more epoch in the candidate run.
  extra.push_back(ev(EventType::kPartitionOpen, 4.5, obs::kControlNode, 1));
  extra.push_back(ev(EventType::kPartitionHeal, 4.8, obs::kControlNode, 1));
  extra.push_back(ev(EventType::kSchedulerDispatch, 5.0, obs::kControlNode));
  const obs::FlameDiff d =
      obs::FlameDiff::build(profile_of(base), profile_of(extra));
  EXPECT_TRUE(d.differs());
  ASSERT_FALSE(d.notes().empty());
  EXPECT_NE(d.notes()[0].find("epoch count changed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cluster::metrics_series
// ---------------------------------------------------------------------------

TEST(MetricsSeries, SamplesLandOnFaultBoundariesAndDeltasResum) {
  harness::Scenario sc = harness::wan(4);
  sc.faults.split_halves(4, 2, 6.0, 10.0)
      .crash(1, 3.0, 8.0, sim::RecoveryMode::kDurable);
  sc.trace.enabled = true;
  sc.trace.ring_capacity = 1 << 15;  // retain the whole run for EpochIndex
  sc.metrics_series = true;
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(21));
  harness::AirlineWorkload w;
  w.duration = 14.0;
  w.request_rate = 4.0;
  w.mover_rate = 2.0;
  harness::drive_airline(cluster, w, 21 ^ 0xf);
  cluster.run_until(w.duration);
  cluster.settle();

  const std::vector<shard::MetricsSample> series = cluster.metrics_series();
  // Boundaries: cut open 6.0 / heal 10.0, crash 3.0 / restart 8.0 — four
  // distinct instants, plus the tail sample at now.
  ASSERT_EQ(series.size(), 5u);
  EXPECT_DOUBLE_EQ(series[0].time, 3.0);
  EXPECT_DOUBLE_EQ(series[1].time, 6.0);
  EXPECT_DOUBLE_EQ(series[2].time, 8.0);
  EXPECT_DOUBLE_EQ(series[3].time, 10.0);
  EXPECT_GT(series[4].time, 10.0);

  // One sample per epoch: the boundary instants are exactly the epoch
  // transitions the trace-derived EpochIndex reports.
  const obs::EpochIndex epochs =
      obs::EpochIndex::build(cluster.tracer()->ring());
  EXPECT_EQ(series.size(), epochs.size());

  // Counter deltas re-sum to the cumulative totals.
  const obs::MetricsRegistry cum = cluster.metrics();
  for (const char* name :
       {mn::kBroadcastOriginated, mn::kBroadcastDelivered, "net.sent"}) {
    std::uint64_t sum = 0;
    for (const shard::MetricsSample& s : series) {
      sum += s.metrics.counters().at(name);
    }
    EXPECT_EQ(sum, cum.counters().at(name)) << name;
  }
  // Gauges are point-in-time: the tail sample carries the final sim time.
  EXPECT_DOUBLE_EQ(series.back().metrics.gauges().at("cluster.sim_time"),
                   cluster.scheduler().now());
  // The crash epoch [3.0, 6.0) delta must show the crash where it happened:
  // submissions to the down node were rejected only after t=3.
  EXPECT_EQ(series[0].metrics.counters().at("engine.rejected_submissions"),
            0u);
}

TEST(MetricsSeries, DisabledSeriesYieldsOneTailSample) {
  harness::Scenario sc = harness::lan(3);
  shard::Cluster<Air> cluster(sc.cluster_config<Air>(5));
  harness::AirlineWorkload w;
  w.duration = 4.0;
  w.request_rate = 2.0;
  harness::drive_airline(cluster, w, 5 ^ 0xf);
  cluster.run_until(w.duration);
  cluster.settle();
  const std::vector<shard::MetricsSample> series = cluster.metrics_series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0].time, cluster.scheduler().now());
  EXPECT_EQ(series[0].metrics.counters().at("cluster.updates_originated"),
            cluster.metrics().counters().at("cluster.updates_originated"));
}

// ---------------------------------------------------------------------------
// Bundle determinism over the chaos seed tiers
// ---------------------------------------------------------------------------

harness::Scenario chaos_scenario(std::uint64_t seed, bool with_crashes) {
  sim::Rng rng(seed);
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const double horizon = 25.0;
  harness::Scenario sc;
  sc.num_nodes = nodes;
  sc.network.delay = sim::Delay::exponential(rng.uniform(0.005, 0.05),
                                             rng.uniform(0.05, 0.3), 5.0);
  sc.network.drop_probability = rng.uniform(0.0, 0.25);
  sc.faults = sim::FaultPlan(seed ^ 0x9afb);
  sc.faults.random_partitions(nodes, horizon,
                              static_cast<int>(rng.uniform_int(0, 3)));
  if (with_crashes) {
    sc.faults.random_crashes(nodes, horizon,
                             static_cast<int>(rng.uniform_int(1, 4)),
                             /*min_down=*/1.0, /*max_down=*/6.0,
                             /*amnesia_probability=*/0.5);
  }
  sc.broadcast.anti_entropy_interval = rng.uniform(0.2, 0.8);
  return sc;
}

/// Run the chaos scenario once, fabricate incident seeds from real updates
/// in the stream (chaos runs are correct, so the checkers stay clean — the
/// property under test is bundle ASSEMBLY determinism over real epochal
/// streams), and return the bundle's full byte image.
std::string chaos_bundle_bytes(std::uint64_t seed, bool with_crashes) {
  const harness::Scenario sc = chaos_scenario(seed, with_crashes);
  harness::Scenario traced = sc;
  traced.trace.enabled = true;
  shard::Cluster<Air> cluster(traced.cluster_config<Air>(seed ^ 0xc4a0));
  obs::VectorSink capture;
  cluster.tracer()->add_sink(&capture);
  harness::AirlineWorkload w;
  w.duration = 25.0;
  w.request_rate = 3.0;
  w.mover_rate = 2.0;
  w.cancel_fraction = 0.1;
  w.max_persons = 150;
  harness::drive_airline(cluster, w, (seed ^ 0xc4a0) ^ 0x5eed);
  cluster.run_until(25.0);
  cluster.settle();

  const std::vector<obs::Event>& events = capture.events();
  const obs::CausalGraph graph = obs::CausalGraph::build(events);
  const std::vector<obs::CausalGraph::UpdateKey> keys = graph.update_keys();
  std::vector<obs::IncidentSeed> seeds;
  for (std::size_t i = 0; i < keys.size() && seeds.size() < 3;
       i += 1 + keys.size() / 4) {
    obs::IncidentSeed s;
    s.message = "synthetic violation " + std::to_string(seeds.size());
    s.ts_logical = keys[i].first;
    s.ts_node = keys[i].second;
    s.detected_at = 12.5;
    seeds.push_back(std::move(s));
  }
  const obs::MetricsRegistry reg = cluster.metrics();
  const obs::IncidentReport report =
      obs::IncidentReport::build("chaos", events, seeds, {}, &reg);
  return report.to_json() + "\n===\n" + report.folded() + "\n===\n" +
         report.render();
}

class IncidentChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncidentChaos, BundleBytesAreSeedDeterministic) {
  const std::string a = chaos_bundle_bytes(GetParam(), /*with_crashes=*/false);
  const std::string b = chaos_bundle_bytes(GetParam(), /*with_crashes=*/false);
  ASSERT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncidentChaos,
                         ::testing::Range<std::uint64_t>(1000, 1012));

class IncidentCrashChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncidentCrashChaos, BundleBytesAreSeedDeterministic) {
  const std::string a = chaos_bundle_bytes(GetParam(), /*with_crashes=*/true);
  const std::string b = chaos_bundle_bytes(GetParam(), /*with_crashes=*/true);
  ASSERT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncidentCrashChaos,
                         ::testing::Range<std::uint64_t>(3000, 3012));

}  // namespace

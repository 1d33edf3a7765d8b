// Observability subsystem (src/obs/): tracer ring + sinks, stats summaries,
// metrics registry JSON round-trip, Perfetto export, replication metrics,
// and the checker's trace-dump diagnostics — exercised both standalone and
// end-to-end through a crash-chaos cluster run.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/execution_checker.hpp"
#include "analysis/incident.hpp"
#include "analysis/report.hpp"
#include "apps/airline/airline.hpp"
#include "harness/scenario.hpp"
#include "harness/workload.hpp"
#include "net/broadcast_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/tracer.hpp"
#include "shard/cluster.hpp"
#include "shard/engine_stats.hpp"
#include "sim/fault_plan.hpp"

namespace {

namespace al = apps::airline;
using Air = al::BasicAirline<15, 900, 300>;
using Cluster = shard::Cluster<Air>;

// ---------------------------------------------------------------- tracer --

TEST(Tracer, RingIsBoundedAndOldestFirst) {
  obs::Tracer tracer(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    tracer.record(obs::EventType::kNetSend, static_cast<double>(i), 1, 0, 0,
                  i);
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.ring_size(), 4u);
  EXPECT_EQ(tracer.evicted(), 6u);
  const std::vector<obs::Event> ring = tracer.ring();
  ASSERT_EQ(ring.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring[i].a, 6 + i);  // events 6,7,8,9 survive, oldest first
  }
  EXPECT_EQ(tracer.type_counts()[static_cast<std::size_t>(
                obs::EventType::kNetSend)],
            10u);
}

TEST(Tracer, EventTypeNamesRoundTripForEveryType) {
  // The compile-time drift guard (static_assert in tracer.cpp) pins the
  // table SIZE to the enum; this pins the CONTENT: every type renders a
  // real name, every name is unique, and each parses back to its type —
  // so serialize() -> deserialize() can never silently drop a type.
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < obs::kNumEventTypes; ++i) {
    const auto type = static_cast<obs::EventType>(i);
    const std::string_view name = obs::event_type_name(type);
    EXPECT_NE(name, "unknown") << "type " << i << " has no name";
    EXPECT_NE(name.find('.'), std::string_view::npos)
        << name << " is not <group>.<what>";
    obs::EventType back = obs::EventType::kSchedulerDispatch;
    ASSERT_TRUE(obs::event_type_from_name(name, back)) << name;
    EXPECT_EQ(back, type) << name;
    seen.emplace_back(name);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "duplicate event type name";
  // Past-the-end values degrade to the sentinel, never read out of bounds.
  EXPECT_EQ(obs::event_type_name(
                static_cast<obs::EventType>(obs::kNumEventTypes)),
            "unknown");
  obs::EventType out = obs::EventType::kSchedulerDispatch;
  EXPECT_FALSE(obs::event_type_from_name("unknown", out));
  EXPECT_FALSE(obs::event_type_from_name("no.such_event", out));
}

TEST(Tracer, SinksSeeEveryEventEvenPastRingCapacity) {
  obs::Tracer tracer(2);
  obs::VectorSink sink;
  tracer.add_sink(&sink);
  for (int i = 0; i < 5; ++i) {
    tracer.record(obs::EventType::kMergeTailAppend, 0.0, 0, i, 0);
  }
  EXPECT_EQ(sink.events().size(), 5u);
  EXPECT_EQ(tracer.ring_size(), 2u);
}

TEST(Tracer, SliceAroundCoalescesContextWindows) {
  obs::Tracer tracer(64);
  // Two events about update 7:3 separated by unrelated traffic.
  tracer.record(obs::EventType::kBroadcastOriginate, 0.0, 3, 7, 3);
  for (int i = 0; i < 10; ++i) {
    tracer.record(obs::EventType::kNetSend, 0.1, 0, 0, 0, i);
  }
  tracer.record(obs::EventType::kMergeTailAppend, 0.2, 1, 7, 3);
  const auto slice = tracer.slice_around(7, 3, 2);
  // originate + 2 after, 2 before + merge = 6 events, record order.
  ASSERT_EQ(slice.size(), 6u);
  EXPECT_EQ(slice.front().type, obs::EventType::kBroadcastOriginate);
  EXPECT_EQ(slice.back().type, obs::EventType::kMergeTailAppend);
  EXPECT_TRUE(tracer.slice_around(99, 99).empty());
}

TEST(Tracer, SerializeIsLinePerEvent) {
  std::vector<obs::Event> events;
  events.push_back(
      obs::Event{obs::EventType::kCrash, 1.5, 2, 0, 0, 0, 0});
  events.push_back(
      obs::Event{obs::EventType::kMergeMidInsert, 2.0, 1, 9, 0, 3, 0});
  const std::string s = obs::serialize(events);
  EXPECT_NE(s.find("node.crash"), std::string::npos);
  EXPECT_NE(s.find("merge.mid_insert"), std::string::npos);
  EXPECT_NE(s.find("ts=9:0"), std::string::npos);
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);
}

// -------------------------------------------------------- stats summaries --

TEST(StatsSummary, EngineStatsSummaryCoversFields) {
  shard::EngineStats s;
  s.decisions_run = 7;
  s.tail_appends = 5;
  s.mid_inserts = 2;
  s.undone_updates = 4;
  std::string out = s.summary();
  EXPECT_NE(out.find("decisions=7"), std::string::npos);
  EXPECT_NE(out.find("tail=5"), std::string::npos);
  EXPECT_NE(out.find("mid=2"), std::string::npos);
  EXPECT_NE(out.find("undone=4"), std::string::npos);
  // Crash block only appears once a crash happened.
  EXPECT_EQ(out.find("crashes="), std::string::npos);
  s.crashes = 1;
  s.recoveries = 1;
  out = s.summary();
  EXPECT_NE(out.find("crashes=1"), std::string::npos);
  EXPECT_NE(out.find("recoveries=1"), std::string::npos);
}

TEST(StatsSummary, BroadcastStatsSummaryCoversFields) {
  net::BroadcastStats s;
  s.originated = 3;
  s.delivered = 9;
  s.duplicates_dropped = 4;
  s.anti_entropy_repairs = 2;
  std::string out = s.summary();
  EXPECT_NE(out.find("originated=3"), std::string::npos);
  EXPECT_NE(out.find("delivered=9"), std::string::npos);
  EXPECT_NE(out.find("dup=4"), std::string::npos);
  EXPECT_NE(out.find("ae_repairs=2"), std::string::npos);
  EXPECT_EQ(out.find("amnesia_resets="), std::string::npos);
  s.amnesia_resets = 1;
  EXPECT_NE(s.summary().find("amnesia_resets=1"), std::string::npos);
}

TEST(StatsSummary, ExportToAddsSoPerNodeCallsAggregate) {
  obs::MetricsRegistry reg;
  net::BroadcastStats a;
  a.delivered = 3;
  net::BroadcastStats b;
  b.delivered = 4;
  a.export_to(reg);
  b.export_to(reg);
  EXPECT_EQ(reg.counters().at("broadcast.delivered"), 7u);
}

// ------------------------------------------------------- metrics registry --

TEST(Metrics, HistogramBucketsAndQuantiles) {
  obs::Histogram h(std::vector<double>{1.0, 2.0, 4.0});
  h.add(0.5);
  h.add(1.5);
  h.add(3.0);
  h.add(100.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 105.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_DOUBLE_EQ(h.quantile_bound(0.25), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile_bound(0.5), 2.0);
  // Overflow quantile reports the observed max.
  EXPECT_DOUBLE_EQ(h.quantile_bound(1.0), 100.0);
}

TEST(Metrics, RegistryJsonRoundTrip) {
  obs::MetricsRegistry reg;
  reg.set_counter("engine.mid_inserts", 42);
  reg.add_counter("engine.mid_inserts", 1);
  reg.set_gauge("cluster.sim_time", 12.25);
  reg.set_gauge("weird", 0.1);  // not exactly representable — needs 17 digits
  obs::Histogram& h = reg.histogram("lifecycle.replication_latency");
  h.add(0.004);
  h.add(2.5);

  const std::string json = reg.to_json();
  const obs::MetricsRegistry back = obs::MetricsRegistry::from_json(json);
  EXPECT_EQ(back, reg);
  // Byte-identical re-emission (std::map ordering + max_digits10 doubles).
  EXPECT_EQ(back.to_json(), json);
}

TEST(Metrics, FromJsonRejectsMalformedInput) {
  EXPECT_THROW(obs::MetricsRegistry::from_json("not json"),
               std::invalid_argument);
  EXPECT_THROW(obs::MetricsRegistry::from_json("{\"counters\":{"),
               std::invalid_argument);
  EXPECT_THROW(obs::MetricsRegistry::from_json(""), std::invalid_argument);
}

// ------------------------------------------------- end-to-end cluster run --

/// A chaotic run: partition + two crashes (one amnesia) over a busy airline
/// workload, with tracing on. Shared by the integration tests below.
std::unique_ptr<Cluster> make_traced_chaos_cluster(
    obs::VectorSink* sink = nullptr) {
  harness::Scenario sc = harness::wan(4);
  sc.faults.split_halves(4, 2, 6.0, 10.0)
      .crash(1, 3.0, 6.5, sim::RecoveryMode::kDurable)
      .crash(3, 8.0, 11.0, sim::RecoveryMode::kAmnesia);
  sc.trace.enabled = true;
  sc.trace.ring_capacity = 1 << 16;
  // Heap-allocated: nodes and observer lambdas point back into the cluster,
  // so the object must never move.
  auto cluster = std::make_unique<Cluster>(sc.cluster_config<Air>(0xD37E));
  if (sink != nullptr) cluster->tracer()->add_sink(sink);
  harness::AirlineWorkload w;
  w.duration = 14.0;
  w.request_rate = 5.0;
  w.mover_rate = 3.0;
  w.cancel_fraction = 0.2;
  harness::drive_airline(*cluster, w, 0x5EED);
  cluster->run_until(w.duration);
  cluster->settle();
  return cluster;
}

TEST(ObsEndToEnd, ChaosRunRecordsWholeLifecycle) {
  const auto cluster = make_traced_chaos_cluster();
  ASSERT_NE(cluster->tracer(), nullptr);
  const auto& counts = cluster->tracer()->type_counts();
  const auto count = [&](obs::EventType t) {
    return counts[static_cast<std::size_t>(t)];
  };
  EXPECT_EQ(count(obs::EventType::kCrash), 2u);
  EXPECT_EQ(count(obs::EventType::kRestart), 2u);
  EXPECT_EQ(count(obs::EventType::kPartitionOpen), 1u);
  EXPECT_EQ(count(obs::EventType::kPartitionHeal), 1u);
  EXPECT_GT(count(obs::EventType::kSchedulerDispatch), 0u);
  EXPECT_GT(count(obs::EventType::kNetSend), 0u);
  EXPECT_GT(count(obs::EventType::kNetDeliver), 0u);
  EXPECT_GT(count(obs::EventType::kNetDropPartition), 0u);
  EXPECT_GT(count(obs::EventType::kBroadcastOriginate), 0u);
  EXPECT_GT(count(obs::EventType::kMergeTailAppend), 0u);
  EXPECT_GT(count(obs::EventType::kMergeMidInsert), 0u);
  EXPECT_GT(count(obs::EventType::kAntiEntropyRepair), 0u);
  // Trace totals match the stats the engine kept independently.
  EXPECT_EQ(count(obs::EventType::kBroadcastOriginate),
            cluster->total_originated());
  EXPECT_EQ(count(obs::EventType::kMergeMidInsert),
            cluster->aggregate_engine_stats().mid_inserts);
}

TEST(ObsEndToEnd, LifecycleMetricsConvergeWithCluster) {
  const auto cluster = make_traced_chaos_cluster();
  const obs::MetricsRegistry reg = cluster->metrics();
  const std::uint64_t originated =
      reg.counters().at("lifecycle.updates_originated");
  EXPECT_EQ(originated, cluster->total_originated());
  // Settled cluster: every update reached every replica, divergence is 0.
  EXPECT_EQ(reg.counters().at("lifecycle.updates_fully_replicated"),
            originated);
  EXPECT_EQ(reg.gauges().at("lifecycle.divergence_max_missing"), 0.0);
  const obs::Histogram& latency =
      reg.histograms().at("lifecycle.replication_latency");
  EXPECT_EQ(latency.count(), originated);
  EXPECT_GT(latency.max(), 0.0);
  // Mid-inserts happened, so some update displaced others.
  EXPECT_GT(reg.counters().at("lifecycle.undo_churn_total"), 0u);
}

TEST(ObsEndToEnd, MetricsSnapshotFoldsAllLayersAndRoundTrips) {
  const auto cluster = make_traced_chaos_cluster();
  const obs::MetricsRegistry reg = cluster->metrics();
  EXPECT_EQ(reg.counters().at("engine.decisions_run"),
            cluster->aggregate_engine_stats().decisions_run);
  EXPECT_EQ(reg.counters().at("engine.crashes"), 2u);
  EXPECT_GT(reg.counters().at("broadcast.delivered"), 0u);
  EXPECT_GT(reg.counters().at("net.sent"), 0u);
  EXPECT_GT(reg.counters().at("net.dropped_partition"), 0u);
  EXPECT_EQ(reg.counters().at("cluster.updates_originated"),
            cluster->total_originated());
  EXPECT_GT(reg.counters().at("trace.events_recorded"), 0u);
  EXPECT_GT(reg.gauges().at("cluster.sim_time"), 0.0);
  EXPECT_EQ(reg.histograms().at("lifecycle.replication_latency").count(),
            cluster->total_originated());
  const obs::MetricsRegistry back =
      obs::MetricsRegistry::from_json(reg.to_json());
  EXPECT_EQ(back, reg);
}

TEST(ObsEndToEnd, PerfettoExportContainsCrashWindowAndMergeEvents) {
  obs::VectorSink sink;
  const auto cluster = make_traced_chaos_cluster(&sink);
  std::ostringstream os;
  obs::write_perfetto(sink.events(), os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Crash windows are duration slices; the rest are instants.
  EXPECT_NE(json.find("\"name\":\"down\",\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"down\",\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("node.restart"), std::string::npos);
  EXPECT_NE(json.find("merge.mid_insert"), std::string::npos);
  EXPECT_NE(json.find("anti_entropy.repair"), std::string::npos);
  // The streaming sink produces the same document as the batch writer.
  std::ostringstream os2;
  {
    obs::PerfettoSink streaming(os2);
    for (const obs::Event& e : sink.events()) streaming.on_event(e);
  }
  EXPECT_EQ(os2.str(), json);
}

TEST(ObsEndToEnd, PerfettoExportDrawsMessageFlows) {
  obs::VectorSink sink;
  const auto cluster = make_traced_chaos_cluster(&sink);
  std::ostringstream os;
  obs::write_perfetto(sink.events(), os);
  const std::string json = os.str();
  // Message fates with a live id render as minimal "X" slices carrying
  // companion flow events, so send->deliver pairs draw as arrows.
  EXPECT_NE(json.find("\"name\":\"net.send\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"net.deliver\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"msg\",\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"msg\",\"ph\":\"f\",\"bp\":\"e\""),
            std::string::npos);
  // Flows close at a delivery or delivery-time crash drop; a handful of
  // messages can still be in flight when the run settles (settle() stops
  // at convergence, not scheduler exhaustion), so finishes can trail
  // starts slightly but never exceed them.
  const auto count_sub = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (auto p = json.find(needle); p != std::string::npos;
         p = json.find(needle, p + 1)) {
      ++n;
    }
    return n;
  };
  const std::size_t starts = count_sub("\"ph\":\"s\"");
  const std::size_t finishes = count_sub("\"ph\":\"f\"");
  EXPECT_GT(finishes, 0u);
  EXPECT_LE(finishes, starts);
  EXPECT_GE(finishes + 64, starts);  // nearly all flows completed
}

TEST(ObsEndToEnd, TraceStreamIsDeterministic) {
  const auto run = [] {
    obs::VectorSink sink;
    const auto cluster = make_traced_chaos_cluster(&sink);
    return obs::serialize(sink.events());
  };
  const std::string a = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run());
}

// ------------------------------------------------- violation rendering --
// A checker's report renders through its incident bundle
// (analysis::build_incident_report(...).render()).

std::string render_incidents(const analysis::CheckReport& report,
                             const core::Execution<Air>& exec,
                             const Cluster& cluster) {
  return analysis::build_incident_report(report, exec,
                                         cluster.tracer()->ring())
      .render();
}

TEST(IncidentRender, CleanReportRendersNothing) {
  const auto cluster = make_traced_chaos_cluster();
  const auto exec = cluster->execution();
  const analysis::CheckReport report =
      analysis::check_prefix_subsequence_condition(exec);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.violating_txs().empty());
  EXPECT_TRUE(render_incidents(report, exec, *cluster).empty());
}

TEST(IncidentRender, ViolationRendersTraceWindowAroundOffendingUpdate) {
  const auto cluster = make_traced_chaos_cluster();
  const auto exec = cluster->execution();
  ASSERT_GT(exec.size(), 0u);
  analysis::CheckReport report("synthetic");
  report.add_violation("tx 0: synthetic violation", 0);
  report.add_violation("tx 0: second violation, same tx", 0);
  const std::string dump = render_incidents(report, exec, *cluster);
  const core::Timestamp& ts = exec.tx(0).ts;
  std::ostringstream want;
  want << "update ts=" << ts.logical << ":" << ts.node << " tx=0\n";
  EXPECT_NE(dump.find("synthetic"), std::string::npos);
  // One incident per violation, each under its own message.
  EXPECT_NE(dump.find("tx 0: synthetic violation\n"), std::string::npos);
  EXPECT_NE(dump.find("tx 0: second violation, same tx\n"),
            std::string::npos);
  const auto first = dump.find(want.str());
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(dump.find(want.str(), first + 1), std::string::npos);
  EXPECT_NE(dump.find("trace window ("), std::string::npos);
}

TEST(IncidentRender, ViolationPrintsCausalChainAndProvenance) {
  const auto cluster = make_traced_chaos_cluster();
  const auto exec = cluster->execution();
  ASSERT_GT(exec.size(), 0u);
  analysis::CheckReport report("synthetic");
  report.add_violation("tx 0: synthetic violation", 0);
  const std::string dump = render_incidents(report, exec, *cluster);
  // The offending update's replication path, not just a ring window.
  EXPECT_NE(dump.find("causal chain"), std::string::npos);
  EXPECT_NE(dump.find("broadcast.originate"), std::string::npos);
  EXPECT_NE(dump.find("trace window ("), std::string::npos);
  // And the per-replica provenance from the update's flame timing row,
  // one row per node of the cluster.
  const core::Timestamp& ts = exec.tx(0).ts;
  std::ostringstream want;
  want << "provenance:\n     update " << ts.logical << ':' << ts.node
       << " originated";
  EXPECT_NE(dump.find(want.str()), std::string::npos);
  for (std::size_t n = 0; n < cluster->num_nodes(); ++n) {
    EXPECT_NE(dump.find("       node " + std::to_string(n) + ":"),
              std::string::npos)
        << "node " << n;
  }
}

TEST(IncidentRender, CheckerAttributesViolationsToTxIndices) {
  // Hand-build a broken execution: tx 1's prefix references tx 1 (itself),
  // violating condition (1); the checker must attribute it to index 1.
  // Built through the raw-vector constructor — append() would reject it.
  const auto cluster = make_traced_chaos_cluster();
  auto exec = cluster->execution();
  ASSERT_GT(exec.size(), 2u);
  std::vector<core::TxInstance<Air>> raw;
  for (std::size_t i = 0; i < 3; ++i) {
    auto tx = exec.tx(i);
    if (i == 1) tx.prefix = {1};
    raw.push_back(std::move(tx));
  }
  core::Execution<Air> broken(std::move(raw));
  const analysis::CheckReport report =
      analysis::check_prefix_subsequence_condition(broken);
  EXPECT_FALSE(report.ok());
  const std::vector<std::size_t> txs = report.violating_txs();
  EXPECT_NE(std::find(txs.begin(), txs.end(), 1u), txs.end());
  const std::string dump = render_incidents(report, broken, *cluster);
  EXPECT_NE(dump.find(" tx=1\n"), std::string::npos);
}

}  // namespace

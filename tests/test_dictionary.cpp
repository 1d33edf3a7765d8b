// The Fischer–Michael replicated dictionary in the SHARD framework
// (section 6): trivial-decision inserts/erases, lookup as pure decision,
// last-writer-wins via timestamp-order merging, convergence across
// partitions.
#include <gtest/gtest.h>

#include "analysis/execution_checker.hpp"
#include "apps/dictionary/dictionary.hpp"
#include "harness/scenario.hpp"
#include "shard/cluster.hpp"

namespace {

namespace dict = apps::dictionary;
using dict::Dictionary;
using dict::Request;
using dict::Update;

TEST(Dictionary, InsertEraseLookupSemantics) {
  dict::State s;
  Dictionary::apply({Update::Kind::kInsert, 3, "c"}, s);
  Dictionary::apply({Update::Kind::kInsert, 1, "a"}, s);
  Dictionary::apply({Update::Kind::kInsert, 2, "b"}, s);
  EXPECT_TRUE(Dictionary::well_formed(s));  // key-sorted
  ASSERT_NE(s.find(2), nullptr);
  EXPECT_EQ(s.find(2)->value, "b");
  Dictionary::apply({Update::Kind::kInsert, 2, "B"}, s);  // overwrite
  EXPECT_EQ(s.find(2)->value, "B");
  Dictionary::apply({Update::Kind::kErase, 1, ""}, s);
  EXPECT_EQ(s.find(1), nullptr);
  EXPECT_EQ(s.entries.size(), 2u);
}

TEST(Dictionary, LookupIsPureDecisionReportingObservedValue) {
  dict::State s;
  Dictionary::apply({Update::Kind::kInsert, 7, "x"}, s);
  const auto hit = Dictionary::decide(Request::lookup(7), s);
  EXPECT_EQ(hit.update, Update{});
  EXPECT_EQ(hit.external_actions[0].subject, "7=x");
  const auto miss = Dictionary::decide(Request::lookup(8), s);
  EXPECT_EQ(miss.external_actions[0].subject, "8=<absent>");
}

TEST(Dictionary, ZeroConstraints) {
  EXPECT_EQ(Dictionary::kNumConstraints, 0);
  EXPECT_DOUBLE_EQ(core::total_cost<Dictionary>(dict::State{}), 0.0);
}

TEST(Dictionary, ConcurrentInsertsResolveByTimestampOrderEverywhere) {
  // Two partitioned nodes write the same key; after the heal, every node
  // holds the later-timestamped value.
  auto sc = harness::partitioned_wan(2, 0.0, 5.0);
  sc.num_nodes = 2;
  shard::Cluster<Dictionary> cluster(sc.cluster_config<Dictionary>(9));
  cluster.submit_at(1.0, 0, Request::insert(1, "left"));
  cluster.submit_at(2.0, 1, Request::insert(1, "right"));
  cluster.run_until(4.0);
  // During the partition, each side sees its own write.
  EXPECT_EQ(cluster.node(0).state().find(1)->value, "left");
  EXPECT_EQ(cluster.node(1).state().find(1)->value, "right");
  cluster.settle();
  EXPECT_TRUE(cluster.converged());
  // Winner = larger timestamp. Both Lamport counters started at 0, so both
  // writes have logical 1 and the node-id tiebreak favors node 1.
  EXPECT_EQ(cluster.node(0).state().find(1)->value, "right");
}

TEST(Dictionary, LookupDuringPartitionSeesPrefixSubsequence) {
  // The dictionary's "weak" semantics in SHARD terms: a lookup reflects
  // some subsequence of the preceding inserts — stale but well-defined.
  auto sc = harness::partitioned_wan(2, 0.0, 5.0);
  sc.num_nodes = 2;
  shard::Cluster<Dictionary> cluster(sc.cluster_config<Dictionary>(10));
  cluster.submit_at(1.0, 0, Request::insert(1, "v"));
  cluster.submit_at(2.0, 1, Request::lookup(1));  // other side of the cut
  cluster.run_until(4.0);
  cluster.settle();
  const auto exec = cluster.execution();
  ASSERT_EQ(exec.size(), 2u);
  EXPECT_EQ(exec.tx(1).external_actions[0].subject, "1=<absent>");
  EXPECT_TRUE(analysis::check_prefix_subsequence_condition(exec).ok());
  // Its prefix missed the insert — measurable as k = 1.
  EXPECT_EQ(exec.missing_count(1), 1u);
}

TEST(Dictionary, HeavyWorkloadConverges) {
  auto sc = harness::wan(4);
  sc.network.drop_probability = 0.15;
  shard::Cluster<Dictionary> cluster(sc.cluster_config<Dictionary>(11));
  sim::Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, 20.0);
    const auto node = static_cast<core::NodeId>(rng.uniform_int(0, 3));
    const auto key = static_cast<dict::Key>(rng.uniform_int(0, 30));
    if (rng.bernoulli(0.7)) {
      cluster.submit_at(t, node,
                        Request::insert(key, "v" + std::to_string(i)));
    } else {
      cluster.submit_at(t, node, Request::erase(key));
    }
  }
  cluster.run_until(20.0);
  cluster.settle();
  EXPECT_TRUE(cluster.converged());
  EXPECT_EQ(cluster.node(0).state(), cluster.execution().final_state());
}

}  // namespace

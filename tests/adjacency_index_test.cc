// Unit tests of the per-partition CSR adjacency behind variable-length
// Expand (epgm/adjacency_index.h): contents in both directions, layout
// equal to a hash exchange on the key, the precomputed edge-side charges,
// the lazily built per-graph cache, and the partitioning audit of the
// walk.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dataflow/partitioning_audit.h"
#include "epgm/adjacency_index.h"
#include "epgm/indexed_logical_graph.h"
#include "epgm/logical_graph.h"

namespace gradoop::epgm {
namespace {

using Neighbor = AdjacencyIndex::Neighbor;

dataflow::ExecutionContextPtr Ctx(int workers = 4) {
  dataflow::ClusterConfig cfg;
  cfg.num_workers = workers;
  return dataflow::MakeContext(cfg);
}

// Self-loop 5->5, parallel edges 1->2 (ids 10, 11), a fan-out from 1 and
// a fan-in to 3, over two labels.
std::vector<Edge> SampleEdges() {
  return {
      Edge(10, "a", 1, 2), Edge(11, "a", 1, 2), Edge(12, "b", 1, 3),
      Edge(13, "a", 2, 3), Edge(14, "b", 4, 3), Edge(15, "a", 5, 5),
      Edge(16, "b", 1, 4), Edge(17, "a", 3, 1),
  };
}

// The definition the index must meet: `key`'s entries in input order —
// source partitions ascending, then record order.
std::vector<std::pair<uint64_t, uint64_t>> Expected(
    const dataflow::Dataset<Edge>& edges, uint64_t key, bool reverse) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (int i = 0; i < edges.num_partitions(); ++i) {
    for (const Edge& e : edges.partition(i)) {
      const uint64_t k = reverse ? e.target_id : e.source_id;
      if (k == key) out.emplace_back(e.id, reverse ? e.source_id : e.target_id);
    }
  }
  return out;
}

std::vector<std::pair<uint64_t, uint64_t>> Pairs(std::span<const Neighbor> s) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (const Neighbor& n : s) out.emplace_back(n.edge_id, n.other);
  return out;
}

// Every key's adjacency sits exactly in partition hash(key) % p and
// matches the input-order definition; other partitions hold nothing.
void ExpectIndexMatches(const AdjacencyIndex& index,
                        const dataflow::Dataset<Edge>& edges, bool reverse) {
  const int p = edges.num_partitions();
  ASSERT_EQ(index.num_partitions(), p);
  EXPECT_EQ(index.reverse(), reverse);
  for (uint64_t key = 0; key <= 6; ++key) {
    const int owner = static_cast<int>(std::hash<uint64_t>{}(key) % p);
    EXPECT_EQ(index.OwnerOf(key), owner) << "key " << key;
    for (int part = 0; part < p; ++part) {
      const auto got = Pairs(index.Neighbors(part, key));
      if (part == owner) {
        EXPECT_EQ(got, Expected(edges, key, reverse)) << "key " << key;
      } else {
        EXPECT_TRUE(got.empty()) << "key " << key << " in partition " << part;
      }
    }
  }
}

TEST(AdjacencyIndexTest, ForwardHoldsOutgoingEdgesInInputOrder) {
  auto edges = dataflow::Dataset<Edge>::FromVector(Ctx(), SampleEdges());
  const AdjacencyIndex index = AdjacencyIndex::Build(edges, false);
  EXPECT_EQ(index.num_edges(), 8u);
  ExpectIndexMatches(index, edges, false);
  // Parallel edges both survive, in input order.
  const auto from_1 = Pairs(index.Neighbors(index.OwnerOf(1), 1));
  ASSERT_EQ(from_1.size(), 4u);
  EXPECT_EQ(from_1[0], std::make_pair(uint64_t{10}, uint64_t{2}));
  EXPECT_EQ(from_1[1], std::make_pair(uint64_t{11}, uint64_t{2}));
}

TEST(AdjacencyIndexTest, ReverseHoldsIncomingEdgesKeyedByTarget) {
  auto edges = dataflow::Dataset<Edge>::FromVector(Ctx(), SampleEdges());
  const AdjacencyIndex index = AdjacencyIndex::Build(edges, true);
  ExpectIndexMatches(index, edges, true);
  const auto into_3 = Pairs(index.Neighbors(index.OwnerOf(3), 3));
  EXPECT_EQ(into_3.size(), 3u);  // from 1, 2 and 4
}

TEST(AdjacencyIndexTest, SelfLoopIsItsOwnNeighborInBothDirections) {
  auto edges = dataflow::Dataset<Edge>::FromVector(Ctx(), SampleEdges());
  for (const bool reverse : {false, true}) {
    const AdjacencyIndex index = AdjacencyIndex::Build(edges, reverse);
    const auto at_5 = Pairs(index.Neighbors(index.OwnerOf(5), 5));
    ASSERT_EQ(at_5.size(), 1u);
    EXPECT_EQ(at_5[0], std::make_pair(uint64_t{15}, uint64_t{5}));
  }
}

TEST(AdjacencyIndexTest, LayoutHoldsForOtherWorkerCounts) {
  for (const int workers : {1, 3, 8}) {
    auto edges =
        dataflow::Dataset<Edge>::FromVector(Ctx(workers), SampleEdges());
    ExpectIndexMatches(AdjacencyIndex::Build(edges, false), edges, false);
    ExpectIndexMatches(AdjacencyIndex::Build(edges, true), edges, true);
  }
}

// The edge-side charges the index precomputes are exactly what a real
// hash exchange of the edges on the same key charges and delivers.
TEST(AdjacencyIndexTest, PrecomputedChargesEqualARealExchange) {
  auto ctx = Ctx();
  ctx->EnableTelemetry();
  auto edges = dataflow::Dataset<Edge>::FromVector(ctx, SampleEdges());
  for (const bool reverse : {false, true}) {
    const AdjacencyIndex index = AdjacencyIndex::Build(edges, reverse);

    ctx->tracker().Reset();
    ctx->telemetry().ResetData();
    auto shuffled = edges.RepartitionByKey(
        [reverse](const Edge& e) {
          return reverse ? e.target_id : e.source_id;
        },
        "Probe");
    const double real_sec = ctx->tracker().SimulatedSeconds();
    const uint64_t real_net = ctx->tracker().NetworkBytes();
    const uint64_t real_records = ctx->tracker().TotalRecords();
    const auto real_counters = ctx->telemetry().metrics().Snapshot().counters;

    ctx->tracker().Reset();
    ctx->telemetry().ResetData();
    dataflow::ChargeExchange(*ctx, "Probe", index.exchange(), 0.0);
    EXPECT_EQ(ctx->tracker().SimulatedSeconds(), real_sec);
    EXPECT_EQ(ctx->tracker().NetworkBytes(), real_net);
    EXPECT_EQ(ctx->tracker().TotalRecords(), real_records);
    EXPECT_EQ(ctx->telemetry().metrics().Snapshot().counters, real_counters);

    uint64_t total = 0;
    for (int part = 0; part < shuffled.num_partitions(); ++part) {
      uint64_t bytes = 0;
      for (const Edge& e : shuffled.partition(part)) {
        bytes += e.SerializedSize();
      }
      EXPECT_EQ(index.rows(part), shuffled.partition(part).size());
      EXPECT_EQ(index.bytes(part), bytes);
      total += bytes;
    }
    EXPECT_EQ(index.total_bytes(), total);
  }
  ctx->DisableTelemetry();
}

LogicalGraph SampleGraph(dataflow::ExecutionContextPtr ctx) {
  std::vector<Vertex> vertices;
  for (uint64_t id = 1; id <= 5; ++id) vertices.emplace_back(id, "V");
  return LogicalGraph::FromVectors(std::move(ctx), GraphHead(100, "G"),
                                   std::move(vertices), SampleEdges());
}

TEST(AdjacencyIndexTest, GraphIndexesLabelSetsAndUnlabeledEdges) {
  const IndexedLogicalGraph graph =
      IndexedLogicalGraph::Build(SampleGraph(Ctx()));
  const auto a = graph.Adjacency({"a"}, false);
  EXPECT_EQ(a->num_edges(), 5u);
  ExpectIndexMatches(*a, graph.EdgesOfTypes({"a"}), false);
  const auto ab = graph.Adjacency({"a", "b"}, true);
  EXPECT_EQ(ab->num_edges(), 8u);
  ExpectIndexMatches(*ab, graph.EdgesOfTypes({"a", "b"}), true);
  const auto all = graph.Adjacency({}, false);
  EXPECT_EQ(all->num_edges(), 8u);
  ExpectIndexMatches(*all, graph.AllEdges(), false);
}

TEST(AdjacencyIndexTest, MissingLabelYieldsAnEmptyIndex) {
  const IndexedLogicalGraph graph =
      IndexedLogicalGraph::Build(SampleGraph(Ctx()));
  const auto none = graph.Adjacency({"ghost"}, false);
  EXPECT_EQ(none->num_edges(), 0u);
  EXPECT_EQ(none->total_bytes(), 0u);
  EXPECT_EQ(none->exchange().moved, 0u);
  for (int part = 0; part < none->num_partitions(); ++part) {
    EXPECT_EQ(none->rows(part), 0u);
    EXPECT_TRUE(none->Neighbors(part, 1).empty());
  }
}

TEST(AdjacencyIndexTest, GraphBuildsEachIndexOnceAndSharesIt) {
  const IndexedLogicalGraph graph =
      IndexedLogicalGraph::Build(SampleGraph(Ctx()));
  const auto first = graph.Adjacency({"a"}, false);
  EXPECT_EQ(graph.Adjacency({"a"}, false), first);
  EXPECT_NE(graph.Adjacency({"a"}, true), first);
  // Copies of the graph share the cache.
  const IndexedLogicalGraph copy = graph;
  EXPECT_EQ(copy.Adjacency({"a"}, false), first);
  // Concurrent first requests agree on one index.
  std::vector<std::shared_ptr<const AdjacencyIndex>> got(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] { got[t] = graph.Adjacency({"b"}, true); });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& index : got) EXPECT_EQ(index, got[0]);
}

uint64_t Identity(const uint64_t& key) { return key; }

TEST(AdjacencyIndexTest, AuditedWalkOfOwnedKeysRecordsItsChecks) {
  setenv("GRADOOP_AUDIT_PARTITIONING", "1", 1);
  dataflow::PartitioningAuditStats& stats =
      dataflow::PartitioningAuditStats::Instance();
  stats.Reset();
  auto edges = dataflow::Dataset<Edge>::FromVector(Ctx(), SampleEdges());
  const AdjacencyIndex index = AdjacencyIndex::Build(edges, false);
  common::CancellationToken cancel;
  uint64_t visited = 0;
  for (int part = 0; part < index.num_partitions(); ++part) {
    std::vector<uint64_t> keys;
    for (uint64_t key = 1; key <= 5; ++key) {
      if (index.OwnerOf(key) == part) keys.push_back(key);
    }
    index.Walk(
        part, keys, Identity,
        [&](const uint64_t&, std::span<const Neighbor> adj) {
          visited += adj.size();
        },
        cancel);
  }
  unsetenv("GRADOOP_AUDIT_PARTITIONING");
  EXPECT_EQ(visited, 8u);
  EXPECT_EQ(stats.records_checked(), 5u);
  EXPECT_EQ(stats.misplaced_records(), 0u);
}

TEST(AdjacencyIndexDeathTest, AuditAbortsOnAKeyWalkedOffItsOwner) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = [] {
    setenv("GRADOOP_AUDIT_PARTITIONING", "1", 1);
    auto edges = dataflow::Dataset<Edge>::FromVector(Ctx(), SampleEdges());
    const AdjacencyIndex index = AdjacencyIndex::Build(edges, false);
    const uint64_t key = 1;
    const int wrong = (index.OwnerOf(key) + 1) % index.num_partitions();
    common::CancellationToken cancel;
    index.Walk(
        wrong, std::vector<uint64_t>{key}, Identity,
        [](const uint64_t&, std::span<const Neighbor>) {}, cancel);
  };
  EXPECT_DEATH(run(), "partitioning audit FAILED at adjacency walk");
}

}  // namespace
}  // namespace gradoop::epgm

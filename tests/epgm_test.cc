#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "epgm/csv_io.h"
#include "epgm/indexed_logical_graph.h"
#include "epgm/logical_graph.h"
#include "epgm/operators.h"

namespace gradoop::epgm {
namespace {

dataflow::ExecutionContextPtr Ctx(int workers = 4) {
  dataflow::ClusterConfig cfg;
  cfg.num_workers = workers;
  return dataflow::MakeContext(cfg);
}

LogicalGraph SmallGraph(dataflow::ExecutionContextPtr ctx) {
  std::vector<Vertex> vertices = {
      Vertex(1, "Person", {{"name", "Alice"}}),
      Vertex(2, "Person", {{"name", "Bob"}}),
      Vertex(3, "City", {{"name", "Leipzig"}}),
  };
  std::vector<Edge> edges = {
      Edge(10, "knows", 1, 2),
      Edge(11, "livesIn", 1, 3),
      Edge(12, "livesIn", 2, 3),
  };
  return LogicalGraph::FromVectors(std::move(ctx), GraphHead(100, "G"),
                                   std::move(vertices), std::move(edges));
}

// Records in a dataset list, read off its chained partitions.
template <typename T>
uint64_t Size(const dataflow::DatasetList<T>& list) {
  uint64_t n = 0;
  for (int p = 0; p < list.num_partitions(); ++p) n += list.partition(p).size();
  return n;
}

TEST(LogicalGraphTest, CountsAndHead) {
  auto g = SmallGraph(Ctx());
  EXPECT_EQ(g.vertices().Count(), 3u);
  EXPECT_EQ(g.edges().Count(), 3u);
  EXPECT_EQ(g.head().label, "G");
}

TEST(IndexedGraphTest, SplitsByLabel) {
  auto g = SmallGraph(Ctx());
  auto idx = IndexedLogicalGraph::Build(g);
  EXPECT_EQ(idx.VerticesByLabel("Person").Count(), 2u);
  EXPECT_EQ(idx.VerticesByLabel("City").Count(), 1u);
  EXPECT_EQ(idx.VerticesByLabel("Ghost").Count(), 0u);
  EXPECT_EQ(idx.EdgesByLabel("knows").Count(), 1u);
  EXPECT_EQ(idx.EdgesByLabel("livesIn").Count(), 2u);
  EXPECT_EQ(Size(idx.VerticesOfLabels({})), 3u);
  EXPECT_EQ(Size(idx.EdgesOfTypes({})), 3u);
  EXPECT_EQ(idx.VertexLabels(), (std::vector<std::string>{"City", "Person"}));
}

TEST(IndexedGraphTest, AlternationsListPerLabelDatasetsInOrder) {
  // One worker, so the single partition holds every label.
  auto idx = IndexedLogicalGraph::Build(SmallGraph(Ctx(1)));
  const auto alternation = idx.VerticesOfLabels({"Person", "Ghost", "City"});
  EXPECT_EQ(Size(alternation), 3u);
  // The chain holds the alternation's labels in list order, not label
  // order; an absent label contributes nothing.
  for (int p = 0; p < alternation.num_partitions(); ++p) {
    std::vector<std::string> labels;
    for (const Vertex& v : alternation.partition(p)) labels.push_back(v.label);
    EXPECT_TRUE(std::is_sorted(labels.begin(), labels.end(),
                               std::greater<std::string>()))
        << "partition " << p;
  }
  EXPECT_EQ(Size(idx.EdgesOfTypes({"livesIn", "knows"})), 3u);
  EXPECT_EQ(Size(idx.EdgesOfTypes({"Ghost"})), 0u);
}

TEST(IndexedGraphTest, PreservesPartitionAlignment) {
  auto g = SmallGraph(Ctx(4));
  auto idx = IndexedLogicalGraph::Build(g);
  EXPECT_EQ(idx.VerticesByLabel("Person").num_partitions(), 4);
}

// --- EPGM operators ---------------------------------------------------------

TEST(OperatorsTest, SubgraphFiltersAndVerifies) {
  auto g = SmallGraph(Ctx());
  // Keep only persons: livesIn edges dangle (City dropped) and must be
  // removed by verification; knows survives.
  auto sub = Subgraph(
      g, [](const Vertex& v) { return v.label == "Person"; },
      [](const Edge&) { return true; }, 200);
  EXPECT_EQ(sub.vertices().Count(), 2u);
  EXPECT_EQ(sub.edges().Count(), 1u);
  auto edges = sub.edges().Collect();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].label, "knows");
  // New graph membership recorded.
  EXPECT_EQ(edges[0].graph_ids.back(), 200u);
}

TEST(OperatorsTest, SubgraphEdgePredicate) {
  auto g = SmallGraph(Ctx());
  auto sub = Subgraph(
      g, [](const Vertex&) { return true; },
      [](const Edge& e) { return e.label == "livesIn"; }, 201);
  EXPECT_EQ(sub.edges().Count(), 2u);
  EXPECT_EQ(sub.vertices().Count(), 3u);
}

TEST(OperatorsTest, TransformRewritesElements) {
  auto g = SmallGraph(Ctx());
  auto t = Transform(
      g,
      [](const GraphHead& h) {
        GraphHead out = h;
        out.label = "Renamed";
        return out;
      },
      [](const Vertex& v) {
        Vertex out = v;
        out.properties.Set("seen", true);
        return out;
      },
      [](const Edge& e) { return e; });
  EXPECT_EQ(t.head().label, "Renamed");
  for (const Vertex& v : t.vertices().Collect()) {
    EXPECT_EQ(v.properties.Get("seen"), PropertyValue(true));
  }
}

TEST(OperatorsTest, CombineUnionsElementSets) {
  auto ctx = Ctx();
  auto g1 = LogicalGraph::FromVectors(
      ctx, GraphHead(1, "A"), {Vertex(1, "V"), Vertex(2, "V")},
      {Edge(10, "e", 1, 2)});
  auto g2 = LogicalGraph::FromVectors(
      ctx, GraphHead(2, "B"), {Vertex(2, "V"), Vertex(3, "V")},
      {Edge(10, "e", 1, 2), Edge(11, "e", 2, 3)});
  auto combined = Combine(g1, g2, 300);
  EXPECT_EQ(combined.vertices().Count(), 3u);  // 1,2,3 deduplicated
  EXPECT_EQ(combined.edges().Count(), 2u);
}

TEST(OperatorsTest, OverlapIntersects) {
  auto ctx = Ctx();
  auto g1 = LogicalGraph::FromVectors(
      ctx, GraphHead(1, "A"), {Vertex(1, "V"), Vertex(2, "V")},
      {Edge(10, "e", 1, 2)});
  auto g2 = LogicalGraph::FromVectors(
      ctx, GraphHead(2, "B"), {Vertex(2, "V"), Vertex(3, "V")}, {});
  auto overlap = Overlap(g1, g2, 301);
  auto vertices = overlap.vertices().Collect();
  ASSERT_EQ(vertices.size(), 1u);
  EXPECT_EQ(vertices[0].id, 2u);
  EXPECT_EQ(overlap.edges().Count(), 0u);
}

TEST(OperatorsTest, ExclusionSubtracts) {
  auto ctx = Ctx();
  auto g1 = LogicalGraph::FromVectors(
      ctx, GraphHead(1, "A"),
      {Vertex(1, "V"), Vertex(2, "V"), Vertex(3, "V")},
      {Edge(10, "e", 1, 2), Edge(11, "e", 2, 3)});
  auto g2 = LogicalGraph::FromVectors(ctx, GraphHead(2, "B"),
                                      {Vertex(2, "V")}, {});
  auto excl = Exclusion(g1, g2, 302);
  auto vertices = excl.vertices().Collect();
  ASSERT_EQ(vertices.size(), 2u);
  // Edges touching the excluded vertex are gone.
  EXPECT_EQ(excl.edges().Count(), 0u);
}

TEST(OperatorsTest, AggregateSetsHeadProperty) {
  auto g = SmallGraph(Ctx());
  auto agg = Aggregate(g, "vertexCount", VertexCountAggregate);
  EXPECT_EQ(agg.head().properties.Get("vertexCount"),
            PropertyValue(int64_t{3}));
  auto agg2 = Aggregate(agg, "edgeCount", EdgeCountAggregate);
  EXPECT_EQ(agg2.head().properties.Get("edgeCount"),
            PropertyValue(int64_t{3}));
}

TEST(OperatorsTest, SelectFiltersCollection) {
  auto ctx = Ctx();
  std::vector<GraphHead> heads = {GraphHead(1, "A", {{"score", int64_t{5}}}),
                                  GraphHead(2, "B", {{"score", int64_t{9}}})};
  std::vector<Vertex> vertices = {Vertex(10, "V", {}, {1}),
                                  Vertex(11, "V", {}, {2}),
                                  Vertex(12, "V", {}, {1, 2})};
  GraphCollection collection(
      dataflow::Dataset<GraphHead>::FromVector(ctx, heads),
      dataflow::Dataset<Vertex>::FromVector(ctx, vertices),
      dataflow::Dataset<Edge>::FromVector(ctx, {}));
  auto selected = Select(collection, [](const GraphHead& h) {
    return h.properties.Get("score").int_value() > 6;
  });
  EXPECT_EQ(selected.NumGraphs(), 1u);
  EXPECT_EQ(selected.vertices().Count(), 2u);  // 11 and 12
}

// --- CSV I/O ---------------------------------------------------------------

TEST(CsvTest, PropertyEncodingRoundTrip) {
  Properties props;
  props.Set("name", "Uni Leipzig");            // space
  props.Set("note", "a;b|c=d:e,f%g");          // every reserved char
  props.Set("year", int64_t{2014});
  props.Set("score", 2.5);
  props.Set("active", true);
  const std::string encoded = EncodeProperties(props);
  auto decoded = DecodeProperties(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().Get("name"), PropertyValue("Uni Leipzig"));
  EXPECT_EQ(decoded.value().Get("note"), PropertyValue("a;b|c=d:e,f%g"));
  EXPECT_EQ(decoded.value().Get("year"), PropertyValue(int64_t{2014}));
  EXPECT_EQ(decoded.value().Get("score"), PropertyValue(2.5));
  EXPECT_EQ(decoded.value().Get("active"), PropertyValue(true));
}

TEST(CsvTest, EscapeRoundTrip) {
  const std::string nasty = "a;b|c=d:e\nf%g,h";
  EXPECT_EQ(UnescapeCsvField(EscapeCsvField(nasty)), nasty);
}

TEST(CsvTest, GraphRoundTrip) {
  const std::string dir = "/tmp/gradoop_csv_test";
  std::filesystem::remove_all(dir);
  auto ctx = Ctx();
  auto g = SmallGraph(ctx);
  ASSERT_TRUE(WriteCsv(g, dir).ok());

  auto loaded = ReadCsvLogicalGraph(ctx, dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().head().id, 100u);
  EXPECT_EQ(loaded.value().head().label, "G");

  auto vertices = loaded.value().vertices().Collect();
  auto edges = loaded.value().edges().Collect();
  ASSERT_EQ(vertices.size(), 3u);
  ASSERT_EQ(edges.size(), 3u);
  std::sort(vertices.begin(), vertices.end(),
            [](const Vertex& a, const Vertex& b) { return a.id < b.id; });
  EXPECT_EQ(vertices[0].properties.Get("name"), PropertyValue("Alice"));
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.id < b.id; });
  EXPECT_EQ(edges[0].label, "knows");
  EXPECT_EQ(edges[0].source_id, 1u);
  EXPECT_EQ(edges[0].target_id, 2u);
  std::filesystem::remove_all(dir);
}

TEST(CsvTest, MissingDirectoryFails) {
  auto r = ReadCsvLogicalGraph(Ctx(), "/tmp/does_not_exist_gradoop");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CsvTest, MalformedRowFails) {
  const std::string dir = "/tmp/gradoop_csv_bad";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream g(dir + "/graphs.csv");
    g << "1;G;\n";
    std::ofstream v(dir + "/vertices.csv");
    v << "not-an-id;;Person;\n";
    std::ofstream e(dir + "/edges.csv");
  }
  auto r = ReadCsvLogicalGraph(Ctx(), dir);
  EXPECT_FALSE(r.ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gradoop::epgm

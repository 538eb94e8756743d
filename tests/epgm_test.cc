#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "epgm/csv_io.h"
#include "epgm/indexed_logical_graph.h"
#include "epgm/logical_graph.h"
#include "epgm/operators.h"
#include "ldbc/ldbc_generator.h"
#include "query/cypher_engine.h"
#include "query/graph_statistics.h"

#include "graph_shapes.h"

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

// --- label split parity -----------------------------------------------------

// Per label, the label's records partition by partition.
template <typename T>
using LabelPartitions = std::map<std::string, std::vector<std::vector<T>>>;

// What a serial split of `input` gives: partition i of a label holds the
// label's records of input partition i, in input order.
template <typename T>
LabelPartitions<T> SerialSplit(const dataflow::Dataset<T>& input) {
  LabelPartitions<T> out;
  const int p = input.num_partitions();
  for (int i = 0; i < p; ++i) {
    for (const T& rec : input.partition(i)) {
      std::vector<std::vector<T>>& parts = out[rec.label];
      parts.resize(p);
      parts[i].push_back(rec);
    }
  }
  return out;
}

// The per-label datasets of `labels`, read through `by_label`.
template <typename T, typename ByLabel>
LabelPartitions<T> Read(const std::vector<std::string>& labels,
                        ByLabel by_label) {
  LabelPartitions<T> out;
  for (const std::string& label : labels) {
    const dataflow::Dataset<T> ds = by_label(label);
    for (int i = 0; i < ds.num_partitions(); ++i) {
      out[label].push_back(ds.partition(i));
    }
  }
  return out;
}

LabelPartitions<Vertex> VerticesOf(const IndexedLogicalGraph& idx) {
  return Read<Vertex>(idx.VertexLabels(), [&](const std::string& label) {
    return idx.VerticesByLabel(label);
  });
}

LabelPartitions<Edge> EdgesOf(const IndexedLogicalGraph& idx) {
  return Read<Edge>(idx.EdgeLabels(), [&](const std::string& label) {
    return idx.EdgesByLabel(label);
  });
}

auto Fields(const Vertex& v) {
  return std::tie(v.id, v.label, v.properties, v.graph_ids);
}

auto Fields(const Edge& e) {
  return std::tie(e.id, e.label, e.source_id, e.target_id, e.properties,
                  e.graph_ids);
}

template <typename T>
void ExpectSameSplit(const LabelPartitions<T>& actual,
                     const LabelPartitions<T>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [label, parts] : expected) {
    ASSERT_EQ(actual.count(label), 1u) << label;
    const std::vector<std::vector<T>>& got = actual.at(label);
    ASSERT_EQ(got.size(), parts.size()) << label;
    for (size_t i = 0; i < parts.size(); ++i) {
      ASSERT_EQ(got[i].size(), parts[i].size())
          << label << " partition " << i;
      for (size_t r = 0; r < parts[i].size(); ++r) {
        EXPECT_TRUE(Fields(got[i][r]) == Fields(parts[i][r]))
            << label << " partition " << i << " record " << r;
      }
    }
  }
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

TEST(IndexedGraphParityTest, SplitEqualsASerialSplitAndChargesOneStage) {
  for (int host_threads : {1, 4}) {
    for (const test_graphs::GraphShape& shape : test_graphs::ParityShapes()) {
      SCOPED_TRACE(shape.name + " host_threads=" +
                   std::to_string(host_threads));
      auto ctx = test_graphs::ShapeContext(shape, host_threads);
      const LogicalGraph graph = shape.build(ctx);
      const int stages_before = ctx->tracker().NumStages();
      const uint64_t records_before = ctx->tracker().TotalRecords();
      const uint64_t network_before = ctx->tracker().NetworkBytes();
      const IndexedLogicalGraph idx = IndexedLogicalGraph::Build(graph);

      ExpectSameSplit(VerticesOf(idx), SerialSplit(graph.vertices()));
      ExpectSameSplit(EdgesOf(idx), SerialSplit(graph.edges()));

      // One narrow stage over every element, as the serial split charged
      // it; the simulated seconds are compared bit for bit.
      const std::vector<dataflow::StageCost> stages = ctx->tracker().Stages();
      ASSERT_EQ(static_cast<int>(stages.size()), stages_before + 1);
      const dataflow::StageCost& stage = stages.back();
      uint64_t elements = 0;
      for (int i = 0; i < graph.vertices().num_partitions(); ++i) {
        elements += graph.vertices().partition(i).size() +
                    graph.edges().partition(i).size();
      }
      const dataflow::ClusterConfig& cfg = ctx->config();
      EXPECT_EQ(stage.label, "BuildIndex");
      EXPECT_EQ(Hex(stage.compute_sec),
                Hex(static_cast<double>(elements) / cfg.num_workers *
                    cfg.seconds_per_record));
      EXPECT_EQ(Hex(stage.network_sec), Hex(0.0));
      EXPECT_EQ(Hex(stage.spill_sec), Hex(0.0));
      EXPECT_EQ(Hex(stage.latency_sec), Hex(cfg.stage_latency_sec));
      EXPECT_EQ(ctx->tracker().TotalRecords(), records_before);
      EXPECT_EQ(ctx->tracker().NetworkBytes(), network_before);
    }
  }
}

std::string StatisticsFile(const query::GraphStatistics& stats) {
  const std::string path =
      ::testing::TempDir() + "gradoop_concurrent_setup.csv";
  EXPECT_TRUE(stats.WriteToFile(path).ok());
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  std::remove(path.c_str());
  return contents.str();
}

TEST(IndexedGraphParityTest, EnginesBuiltConcurrentlyOnOneContextAgree) {
  // Two threads set up an engine each over one graph, so both set-up
  // passes submit their pool tasks to the same pool at the same time.
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  const LogicalGraph graph = ldbc::LdbcGenerator(cfg).Generate(Ctx());
  const query::CypherEngine serial(graph);
  const std::string serial_stats = StatisticsFile(serial.statistics());

  std::unique_ptr<query::CypherEngine> engines[2];
  std::latch start(2);
  std::vector<std::thread> threads;
  for (auto& engine : engines) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      engine = std::make_unique<query::CypherEngine>(graph);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (const auto& engine : engines) {
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(StatisticsFile(engine->statistics()), serial_stats);
    ExpectSameSplit(VerticesOf(engine->indexed_graph()),
                    VerticesOf(serial.indexed_graph()));
    ExpectSameSplit(EdgesOf(engine->indexed_graph()),
                    EdgesOf(serial.indexed_graph()));
  }
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

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "query/graph_statistics.h"

#include "graph_shapes.h"

namespace gradoop::query {
namespace {

using epgm::Edge;
using epgm::GraphHead;
using epgm::LogicalGraph;
using epgm::Vertex;

LogicalGraph StatsGraph(dataflow::ExecutionContextPtr ctx) {
  std::vector<Vertex> vertices = {
      Vertex(1, "Person"), Vertex(2, "Person"), Vertex(3, "Person"),
      Vertex(4, "City"),
  };
  std::vector<Edge> edges = {
      Edge(10, "knows", 1, 2),  Edge(11, "knows", 1, 3),
      Edge(12, "knows", 2, 3),  Edge(13, "livesIn", 1, 4),
      Edge(14, "livesIn", 2, 4),
  };
  return LogicalGraph::FromVectors(std::move(ctx), GraphHead(0, "G"),
                                   std::move(vertices), std::move(edges));
}

TEST(StatisticsTest, TotalCounts) {
  auto stats = GraphStatistics::Compute(StatsGraph(dataflow::MakeContext()));
  EXPECT_EQ(stats.vertex_count(), 4u);
  EXPECT_EQ(stats.edge_count(), 5u);
}

TEST(StatisticsTest, LabelDistributions) {
  auto stats = GraphStatistics::Compute(StatsGraph(dataflow::MakeContext()));
  EXPECT_EQ(stats.VertexCountByLabel("Person"), 3u);
  EXPECT_EQ(stats.VertexCountByLabel("City"), 1u);
  EXPECT_EQ(stats.VertexCountByLabel("Ghost"), 0u);
  EXPECT_EQ(stats.EdgeCountByLabel("knows"), 3u);
  EXPECT_EQ(stats.EdgeCountByLabel("livesIn"), 2u);
}

TEST(StatisticsTest, LabelAlternationSums) {
  auto stats = GraphStatistics::Compute(StatsGraph(dataflow::MakeContext()));
  EXPECT_EQ(stats.VertexCountByLabels({"Person", "City"}), 4u);
  EXPECT_EQ(stats.VertexCountByLabels({}), 4u);  // empty = all
  EXPECT_EQ(stats.EdgeCountByLabels({"knows", "livesIn"}), 5u);
}

TEST(StatisticsTest, DistinctSourceTarget) {
  auto stats = GraphStatistics::Compute(StatsGraph(dataflow::MakeContext()));
  // Sources overall: {1,2} for knows, {1,2} for livesIn -> {1,2}.
  EXPECT_EQ(stats.distinct_source_count(), 2u);
  // Targets overall: {2,3,4}.
  EXPECT_EQ(stats.distinct_target_count(), 3u);
  EXPECT_EQ(stats.DistinctSourceByLabel("knows"), 2u);
  EXPECT_EQ(stats.DistinctTargetByLabel("knows"), 2u);  // {2,3}
  EXPECT_EQ(stats.DistinctSourceByLabel("livesIn"), 2u);
  EXPECT_EQ(stats.DistinctTargetByLabel("livesIn"), 1u);  // {4}
  EXPECT_EQ(stats.DistinctTargetByLabels({"knows", "livesIn"}), 3u);
}

TEST(StatisticsTest, EmptyGraph) {
  auto g = LogicalGraph::FromVectors(dataflow::MakeContext(),
                                     GraphHead(0, "E"), {}, {});
  auto stats = GraphStatistics::Compute(g);
  EXPECT_EQ(stats.vertex_count(), 0u);
  EXPECT_EQ(stats.edge_count(), 0u);
  EXPECT_EQ(stats.VertexCountByLabels({}), 0u);
}

TEST(StatisticsTest, FileRoundTrip) {
  auto stats = GraphStatistics::Compute(StatsGraph(dataflow::MakeContext()));
  const std::string path = "/tmp/gradoop_stats_test.csv";
  ASSERT_TRUE(stats.WriteToFile(path).ok());
  auto loaded = GraphStatistics::ReadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().vertex_count(), stats.vertex_count());
  EXPECT_EQ(loaded.value().edge_count(), stats.edge_count());
  EXPECT_EQ(loaded.value().VertexCountByLabel("Person"),
            stats.VertexCountByLabel("Person"));
  EXPECT_EQ(loaded.value().DistinctTargetByLabel("livesIn"),
            stats.DistinctTargetByLabel("livesIn"));
  EXPECT_EQ(loaded.value().distinct_source_count(),
            stats.distinct_source_count());
  std::remove(path.c_str());
}

TEST(StatisticsTest, ReadMissingFileFails) {
  EXPECT_FALSE(
      GraphStatistics::ReadFromFile("/tmp/no_such_stats_file").ok());
}

TEST(StatisticsTest, ToStringListsLabels) {
  auto stats = GraphStatistics::Compute(StatsGraph(dataflow::MakeContext()));
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("Person=3"), std::string::npos);
  EXPECT_NE(s.find("knows=3"), std::string::npos);
}

// --- parity with a std::set reference ------------------------------------

// Every statistic, computed by one serial pass into ordered sets.
struct ReferenceStatistics {
  uint64_t vertices = 0;
  uint64_t edges = 0;
  std::map<std::string, uint64_t> vertex_labels;
  std::map<std::string, uint64_t> edge_labels;
  std::set<epgm::GradoopId> sources;
  std::set<epgm::GradoopId> targets;
  std::map<std::string, std::set<epgm::GradoopId>> sources_by_label;
  std::map<std::string, std::set<epgm::GradoopId>> targets_by_label;
};

ReferenceStatistics Reference(const LogicalGraph& graph) {
  ReferenceStatistics ref;
  for (int p = 0; p < graph.vertices().num_partitions(); ++p) {
    for (const Vertex& v : graph.vertices().partition(p)) {
      ++ref.vertices;
      ++ref.vertex_labels[v.label];
    }
  }
  for (int p = 0; p < graph.edges().num_partitions(); ++p) {
    for (const Edge& e : graph.edges().partition(p)) {
      ++ref.edges;
      ++ref.edge_labels[e.label];
      ref.sources.insert(e.source_id);
      ref.targets.insert(e.target_id);
      ref.sources_by_label[e.label].insert(e.source_id);
      ref.targets_by_label[e.label].insert(e.target_id);
    }
  }
  return ref;
}

// The file GraphStatistics::WriteToFile must write for `ref`.
std::string ReferenceFile(const ReferenceStatistics& ref) {
  std::ostringstream out;
  out << "vertex_count;" << ref.vertices << "\n";
  out << "edge_count;" << ref.edges << "\n";
  out << "distinct_source_count;" << ref.sources.size() << "\n";
  out << "distinct_target_count;" << ref.targets.size() << "\n";
  for (const auto& [label, count] : ref.vertex_labels) {
    out << "vertex_label;" << label << ";" << count << "\n";
  }
  for (const auto& [label, count] : ref.edge_labels) {
    out << "edge_label;" << label << ";" << count << "\n";
  }
  for (const auto& [label, ids] : ref.sources_by_label) {
    out << "distinct_source;" << label << ";" << ids.size() << "\n";
  }
  for (const auto& [label, ids] : ref.targets_by_label) {
    out << "distinct_target;" << label << ";" << ids.size() << "\n";
  }
  return out.str();
}

template <typename Map>
std::vector<std::string> Keys(const Map& map) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : map) keys.push_back(key);
  return keys;
}

std::string WrittenFile(const GraphStatistics& stats) {
  const std::string path =
      ::testing::TempDir() + "gradoop_statistics_parity.csv";
  EXPECT_TRUE(stats.WriteToFile(path).ok());
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  std::remove(path.c_str());
  return contents.str();
}

TEST(StatisticsParityTest, EveryStatisticAndTheFileMatchASetReference) {
  for (int host_threads : {1, 4}) {
    for (const test_graphs::GraphShape& shape : test_graphs::ParityShapes()) {
      SCOPED_TRACE(shape.name + " host_threads=" +
                   std::to_string(host_threads));
      const LogicalGraph graph =
          shape.build(test_graphs::ShapeContext(shape, host_threads));
      const GraphStatistics stats = GraphStatistics::Compute(graph);
      const ReferenceStatistics ref = Reference(graph);

      EXPECT_EQ(stats.vertex_count(), ref.vertices);
      EXPECT_EQ(stats.edge_count(), ref.edges);
      EXPECT_EQ(stats.distinct_source_count(), ref.sources.size());
      EXPECT_EQ(stats.distinct_target_count(), ref.targets.size());
      EXPECT_EQ(stats.VertexLabels(), Keys(ref.vertex_labels));
      EXPECT_EQ(stats.EdgeLabels(), Keys(ref.edge_labels));
      for (const auto& [label, count] : ref.vertex_labels) {
        EXPECT_EQ(stats.VertexCountByLabel(label), count) << label;
      }
      for (const auto& [label, count] : ref.edge_labels) {
        EXPECT_EQ(stats.EdgeCountByLabel(label), count) << label;
        EXPECT_EQ(stats.DistinctSourceByLabel(label),
                  ref.sources_by_label.at(label).size())
            << label;
        EXPECT_EQ(stats.DistinctTargetByLabel(label),
                  ref.targets_by_label.at(label).size())
            << label;
      }
      EXPECT_EQ(WrittenFile(stats), ReferenceFile(ref));
    }
  }
}

}  // namespace
}  // namespace gradoop::query

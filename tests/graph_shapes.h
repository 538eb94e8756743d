// Graphs shared by the tests of the load-time passes (statistics_test,
// epgm_test) and by the query fuzzer: the fuzzer's random graphs, the
// LDBC graphs at sf 0.05 and hand-laid partition shapes that a
// per-partition pass can get wrong.
#ifndef GRADOOP_TESTS_GRAPH_SHAPES_H_
#define GRADOOP_TESTS_GRAPH_SHAPES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "epgm/logical_graph.h"
#include "ldbc/ldbc_generator.h"

namespace gradoop::test_graphs {

struct ElementVectors {
  std::vector<epgm::Vertex> vertices;
  std::vector<epgm::Edge> edges;
};

// The query fuzzer's graph for `seed`: 8-11 vertices labelled Person or
// Tag and 14-21 edges labelled knows or likes between random endpoints
// (self-loops and parallel edges included), each with one small integer
// property.
inline ElementVectors FuzzElements(uint64_t seed) {
  Random rng(seed);
  ElementVectors g;
  const int n = 8 + static_cast<int>(rng.NextUint64(4));
  for (int i = 0; i < n; ++i) {
    epgm::Properties props;
    props.Set("x", static_cast<int64_t>(rng.NextUint64(3)));
    g.vertices.emplace_back(i + 1, rng.NextBool(0.6) ? "Person" : "Tag",
                            std::move(props));
  }
  const int m = 14 + static_cast<int>(rng.NextUint64(8));
  for (int i = 0; i < m; ++i) {
    epgm::Properties props;
    props.Set("w", static_cast<int64_t>(rng.NextUint64(3)));
    g.edges.emplace_back(1000 + i, rng.NextBool(0.5) ? "knows" : "likes",
                         1 + rng.NextUint64(n), 1 + rng.NextUint64(n),
                         std::move(props));
  }
  return g;
}

// A graph laid out partition by partition: partition i of each dataset
// holds exactly `vertices[i]` / `edges[i]`, in order. Both lists have the
// context's worker count as their size.
inline epgm::LogicalGraph Laid(
    dataflow::ExecutionContextPtr ctx,
    std::vector<std::vector<epgm::Vertex>> vertices,
    std::vector<std::vector<epgm::Edge>> edges) {
  auto vertex_parts =
      std::make_shared<dataflow::Dataset<epgm::Vertex>::Partitions>(
          std::move(vertices));
  auto edge_parts = std::make_shared<dataflow::Dataset<epgm::Edge>::Partitions>(
      std::move(edges));
  return epgm::LogicalGraph(
      epgm::GraphHead(0, "G"),
      dataflow::Dataset<epgm::Vertex>(ctx, std::move(vertex_parts)),
      dataflow::Dataset<epgm::Edge>(ctx, std::move(edge_parts)));
}

// One graph of the parity corpus. `build` lays it out in a context with
// `num_workers` workers; the host thread count is the test's choice.
struct GraphShape {
  std::string name;
  int num_workers = 4;
  std::function<epgm::LogicalGraph(dataflow::ExecutionContextPtr)> build;
};

inline std::vector<GraphShape> ParityShapes() {
  using epgm::Edge;
  using epgm::Vertex;
  std::vector<GraphShape> shapes;
  for (uint64_t seed : {42u, 7301u, 4401u}) {
    shapes.push_back({"ldbc_sf0.05_seed" + std::to_string(seed), 4,
                      [seed](dataflow::ExecutionContextPtr ctx) {
                        ldbc::LdbcConfig cfg;
                        cfg.scale_factor = 0.05;
                        cfg.seed = seed;
                        return ldbc::LdbcGenerator(cfg).Generate(ctx);
                      }});
  }
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    shapes.push_back({"fuzz_seed" + std::to_string(seed), 4,
                      [seed](dataflow::ExecutionContextPtr ctx) {
                        ElementVectors g = FuzzElements(seed);
                        return epgm::LogicalGraph::FromVectors(
                            std::move(ctx), epgm::GraphHead(0, "G"),
                            std::move(g.vertices), std::move(g.edges));
                      }});
  }
  // Labels alternate inside partition 0 (A, B, A, B): a pass that caches
  // the label of the previous element must look the next one up again.
  // The edges repeat endpoints within and across labels and partitions.
  shapes.push_back({"alternating_labels", 2,
                    [](dataflow::ExecutionContextPtr ctx) {
                      return Laid(std::move(ctx),
                                  {{Vertex(1, "A"), Vertex(2, "B"),
                                    Vertex(3, "A"), Vertex(4, "B"),
                                    Vertex(5, "A")},
                                   {Vertex(6, "B"), Vertex(7, "C")}},
                                  {{Edge(10, "x", 1, 2), Edge(11, "y", 1, 3),
                                    Edge(12, "x", 2, 3), Edge(13, "y", 1, 3),
                                    Edge(14, "x", 1, 2), Edge(15, "y", 4, 2)},
                                   {Edge(16, "x", 6, 7), Edge(17, "y", 1, 7),
                                    Edge(18, "x", 1, 3)}});
                    }});
  // "Solo" and "solo" occur in the last of three partitions only.
  shapes.push_back({"label_in_one_partition", 3,
                    [](dataflow::ExecutionContextPtr ctx) {
                      return Laid(std::move(ctx),
                                  {{Vertex(1, "A"), Vertex(2, "A")},
                                   {Vertex(3, "A")},
                                   {Vertex(4, "A"), Vertex(5, "Solo")}},
                                  {{Edge(10, "x", 1, 2)},
                                   {Edge(11, "x", 3, 1)},
                                   {Edge(12, "solo", 5, 4),
                                    Edge(13, "x", 4, 5),
                                    Edge(14, "solo", 5, 1)}});
                    }});
  // Eight partitions for three vertices and two edges: most are empty.
  shapes.push_back({"more_partitions_than_elements", 8,
                    [](dataflow::ExecutionContextPtr ctx) {
                      return epgm::LogicalGraph::FromVectors(
                          std::move(ctx), epgm::GraphHead(0, "G"),
                          {Vertex(1, "A"), Vertex(2, "B"), Vertex(3, "A")},
                          {Edge(10, "x", 1, 2), Edge(11, "x", 3, 2)});
                    }});
  shapes.push_back({"empty", 4, [](dataflow::ExecutionContextPtr ctx) {
                      return epgm::LogicalGraph::FromVectors(
                          std::move(ctx), epgm::GraphHead(0, "G"), {}, {});
                    }});
  return shapes;
}

// A context for `shape` running its pool on `host_threads` threads.
inline dataflow::ExecutionContextPtr ShapeContext(const GraphShape& shape,
                                                  int host_threads) {
  dataflow::ClusterConfig config;
  config.num_workers = shape.num_workers;
  config.host_threads = host_threads;
  return dataflow::MakeContext(config);
}

}  // namespace gradoop::test_graphs

#endif  // GRADOOP_TESTS_GRAPH_SHAPES_H_

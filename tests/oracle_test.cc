// Property-based correctness tests: the distributed engine's results are
// compared against the naive backtracking matcher on randomly generated
// graphs, across queries and morphism settings. This is the repository's
// primary end-to-end correctness oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/random.h"
#include "cypher/parser.h"
#include "dataflow/partitioning_audit.h"
#include "query/cypher_engine.h"
#include "query/naive_matcher.h"

namespace gradoop::query {
namespace {

using epgm::Edge;
using epgm::GraphHead;
using epgm::LogicalGraph;
using epgm::Properties;
using epgm::Vertex;

struct RandomGraph {
  std::vector<Vertex> vertices;
  std::vector<Edge> edges;
};

// Small random property graph with Person/Tag vertices and knows/likes
// edges; value ranges kept tiny so predicates hit frequently.
RandomGraph MakeRandomGraph(uint64_t seed, int num_vertices, int num_edges) {
  Random rng(seed);
  RandomGraph g;
  for (int i = 0; i < num_vertices; ++i) {
    const bool person = rng.NextBool(0.7);
    Properties props;
    props.Set("x", static_cast<int64_t>(rng.NextUint64(4)));
    if (person) {
      props.Set("name", std::string(1, static_cast<char>(
                                           'A' + rng.NextUint64(3))));
    }
    g.vertices.emplace_back(i + 1, person ? "Person" : "Tag",
                            std::move(props));
  }
  for (int i = 0; i < num_edges; ++i) {
    const uint64_t src = 1 + rng.NextUint64(num_vertices);
    const uint64_t dst = 1 + rng.NextUint64(num_vertices);
    Properties props;
    props.Set("w", static_cast<int64_t>(rng.NextUint64(3)));
    g.edges.emplace_back(1000 + i, rng.NextBool(0.6) ? "knows" : "likes",
                         src, dst, std::move(props));
  }
  return g;
}

// Converts one engine embedding into the naive binding representation.
NaiveBinding ToBinding(const Embedding& e, const EmbeddingMetaData& meta) {
  NaiveBinding b;
  for (const std::string& var : meta.Variables()) {
    const int c = meta.IdColumn(var);
    if (e.IsPathEntry(c)) {
      b.paths[var] = e.PathAt(c);
    } else {
      b.elements[var] = e.IdAt(c);
    }
  }
  return b;
}

std::vector<NaiveBinding> Sorted(std::vector<NaiveBinding> v) {
  std::sort(v.begin(), v.end());
  return v;
}

void ExpectEngineMatchesOracle(const RandomGraph& g, const std::string& query,
                               const MorphismSetting& semantics,
                               const std::string& context,
                               PlannerOptions::ExecutionEngine engine_kind =
                                   PlannerOptions::ExecutionEngine::kRow,
                               int batch_size = exec::kDefaultBatchSize) {
  auto graph = LogicalGraph::FromVectors(dataflow::MakeContext(),
                                         GraphHead(0, "G"), g.vertices,
                                         g.edges);
  CypherEngine engine(graph);
  engine.planner_options().engine = engine_kind;
  engine.planner_options().batch_size = batch_size;
  auto result = engine.Execute(query, semantics);
  ASSERT_TRUE(result.ok()) << context << ": " << result.status();

  NaiveMatcher oracle(g.vertices, g.edges);
  auto expected = oracle.FindMatches(result.value().query_graph, semantics);

  std::vector<NaiveBinding> actual;
  for (const Embedding& e : result.value().embeddings.data.Collect()) {
    actual.push_back(ToBinding(e, result.value().embeddings.meta));
  }
  ASSERT_EQ(actual.size(), expected.size()) << context;
  EXPECT_EQ(Sorted(std::move(actual)), Sorted(std::move(expected)))
      << context;
}

struct OracleCase {
  const char* name;
  const char* query;
};

const OracleCase kQueries[] = {
    {"vertex_scan", "MATCH (p:Person) RETURN *"},
    {"filtered_scan", "MATCH (p:Person) WHERE p.x > 1 RETURN *"},
    {"edge", "MATCH (a:Person)-[e:knows]->(b:Person) RETURN *"},
    {"edge_untyped", "MATCH (a)-[e]->(b) RETURN *"},
    {"incoming", "MATCH (a:Tag)<-[e:likes]-(b:Person) RETURN *"},
    {"undirected", "MATCH (a:Person)-[e:knows]-(b:Person) RETURN *"},
    {"two_hop",
     "MATCH (a:Person)-[e1:knows]->(b:Person)-[e2:knows]->(c:Person) "
     "RETURN *"},
    {"triangle",
     "MATCH (a)-[e1:knows]->(b), (b)-[e2:knows]->(c), (a)-[e3:knows]->(c) "
     "RETURN *"},
    {"cross_predicate",
     "MATCH (a:Person)-[e:knows]->(b:Person) WHERE a.x < b.x RETURN *"},
    {"property_map", "MATCH (a:Person {name: 'A'})-[e]->(b) RETURN *"},
    {"edge_predicate",
     "MATCH (a)-[e:knows]->(b) WHERE e.w = 1 RETURN *"},
    {"disjunction",
     "MATCH (a:Person)-[e]->(b) WHERE a.x = 0 OR b.x = 2 RETURN *"},
    {"label_alternation", "MATCH (m:Person|Tag)-[e:likes]->(t:Tag) RETURN *"},
    {"self_loop", "MATCH (a)-[e]->(a) RETURN *"},
    {"var_length_1_2", "MATCH (a:Person)-[e:knows*1..2]->(b) RETURN *"},
    {"var_length_0_2", "MATCH (a:Person)-[e:knows*0..2]->(b) RETURN *"},
    {"var_length_exact_3", "MATCH (a:Person)-[e:knows*3]->(b) RETURN *"},
    {"var_length_into_pattern",
     "MATCH (a:Person)-[e0:likes]->(t:Tag), (a)-[e:knows*1..2]->(b:Person) "
     "RETURN *"},
    {"var_length_cycle",
     "MATCH (a:Person)-[e1:knows]->(b:Person), (b)-[e:knows*1..2]->(a) "
     "RETURN *"},
    {"xor_predicate",
     "MATCH (a:Person)-[e]->(b) WHERE a.x = 1 XOR b.x = 1 RETURN *"},
    {"not_predicate",
     "MATCH (a:Person)-[e:knows]->(b) WHERE NOT a.x = b.x RETURN *"},
    {"two_var_length",
     "MATCH (a:Person)-[e1:knows*1..2]->(b), (a)-[e2:knows*1..2]->(c) "
     "RETURN *"},
    {"var_length_zero_closing",
     "MATCH (a:Person)-[e0:knows]->(b:Person), (a)-[e:knows*0..2]->(b) "
     "RETURN *"},
    {"cartesian", "MATCH (a:Tag), (b:Tag) RETURN *"},
    {"cartesian_filtered",
     "MATCH (a:Tag), (b:Tag) WHERE a.x < b.x RETURN *"},
    {"value_join",
     "MATCH (a:Person), (b:Tag) WHERE a.x = b.x RETURN *"},
    {"four_chain",
     "MATCH (a)-[e1:knows]->(b)-[e2:knows]->(c)-[e3:knows]->(d) RETURN *"},
};

class OracleTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(OracleTest, EngineMatchesNaiveMatcher) {
  const int semantics_index = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  const MorphismSetting settings[] = {
      MorphismSetting::FullHomomorphism(),
      MorphismSetting::Neo4j(),
      MorphismSetting::FullIsomorphism(),
      {MatchSemantics::kIsomorphism, MatchSemantics::kHomomorphism},
  };
  const char* setting_names[] = {"homo/homo", "homo/iso", "iso/iso",
                                 "iso/homo"};
  const MorphismSetting semantics = settings[semantics_index];

  RandomGraph g = MakeRandomGraph(seed, 10 + seed % 6, 18 + seed % 9);
  for (const OracleCase& c : kQueries) {
    ExpectEngineMatchesOracle(
        g, c.query, semantics,
        std::string(c.name) + " seed=" + std::to_string(seed) + " " +
            setting_names[semantics_index]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Semantics, OracleTest,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(1u, 2u, 3u, 7u, 11u)),
    [](const auto& info) {
      return "s" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Variable-length expansion walks a per-graph adjacency index; these
// cases cover its shapes — type alternation, untyped edges, a reverse
// walk, a cycle closing on a bound end and a zero lower bound — under
// both engines and both morphism semantics, with the partitioning audit
// checking every walked frontier record's placement.
const OracleCase kExpandQueries[] = {
    {"alternation_1_3", "MATCH (a:Person)-[e:knows|likes*1..3]->(b) RETURN *"},
    {"untyped_1_2", "MATCH (a:Person)-[e*1..2]->(b) RETURN *"},
    {"reverse_1_2",
     "MATCH (a)-[e:knows*1..2]->(b:Person {name: 'A'}) RETURN *"},
    {"bound_end_cycle",
     "MATCH (a:Person)-[e1:knows]->(b), (b)-[e:knows|likes*1..3]->(a) "
     "RETURN *"},
    {"zero_lower_bound", "MATCH (a:Person)-[e*0..2]->(b:Person) RETURN *"},
};

TEST(OracleExpandTest, BothEnginesMatchNaiveMatcher) {
  setenv("GRADOOP_AUDIT_PARTITIONING", "1", 1);
  dataflow::PartitioningAuditStats::Instance().Reset();
  const std::pair<const char*, MorphismSetting> settings[] = {
      {"homo", MorphismSetting::FullHomomorphism()},
      {"iso", MorphismSetting::FullIsomorphism()},
  };
  const std::pair<const char*, PlannerOptions::ExecutionEngine> engines[] = {
      {"row", PlannerOptions::ExecutionEngine::kRow},
      {"batch", PlannerOptions::ExecutionEngine::kBatch},
  };
  for (const uint64_t seed : {4u, 8u, 13u}) {
    RandomGraph g = MakeRandomGraph(seed, 12 + seed % 5, 26 + seed % 7);
    // Self-loops and parallel edges must be walked like any other edge.
    g.edges.emplace_back(900, "knows", 1, 1);
    g.edges.emplace_back(901, "knows", 1, 2);
    g.edges.emplace_back(902, "knows", 1, 2);
    for (const OracleCase& c : kExpandQueries) {
      for (const auto& [setting_name, semantics] : settings) {
        for (const auto& [engine_name, engine] : engines) {
          ExpectEngineMatchesOracle(g, c.query, semantics,
                                    std::string(c.name) +
                                        " seed=" + std::to_string(seed) + " " +
                                        setting_name + " " + engine_name,
                                    engine);
        }
      }
    }
  }
  unsetenv("GRADOOP_AUDIT_PARTITIONING");
  EXPECT_GT(dataflow::PartitioningAuditStats::Instance().records_checked(),
            0u);
  EXPECT_EQ(dataflow::PartitioningAuditStats::Instance().misplaced_records(),
            0u);
}

// Scans read the per-label datasets of a label or type alternation — or
// every label's, for an unlabeled vertex or untyped edge — in place, in
// list order. These cases cover an unlabeled vertex with an untyped edge,
// alternations naming a label and a type the graph lacks, alternations
// at 7-row batches, whose batches straddle label boundaries, and
// alternations repeating a label or type, which must match each element
// once.
const OracleCase kScanInputQueries[] = {
    {"unlabeled_untyped", "MATCH (a)-[e]->(b) RETURN *"},
    {"absent_label",
     "MATCH (a:Tag|NoSuchLabel)<-[e:likes|noSuchType]-(b) RETURN *"},
    {"alternation",
     "MATCH (a:Person|Tag)-[e:knows|likes]->(b:Tag|Person) RETURN *"},
    {"repeated_label", "MATCH (a:Tag|Tag) RETURN *"},
    {"repeated_type",
     "MATCH (a:Person|Tag|Person)-[e:likes|knows|likes]->(b) RETURN *"},
};

TEST(OracleScanInputTest, BothEnginesMatchNaiveMatcher) {
  const std::tuple<const char*, PlannerOptions::ExecutionEngine, int>
      engines[] = {
          {"row", PlannerOptions::ExecutionEngine::kRow,
           exec::kDefaultBatchSize},
          {"batch", PlannerOptions::ExecutionEngine::kBatch,
           exec::kDefaultBatchSize},
          {"batch7", PlannerOptions::ExecutionEngine::kBatch, 7},
      };
  for (const uint64_t seed : {3u, 9u}) {
    const RandomGraph g = MakeRandomGraph(seed, 40 + seed, 70 + seed);
    for (const OracleCase& c : kScanInputQueries) {
      for (const auto& [engine_name, engine, batch_size] : engines) {
        ExpectEngineMatchesOracle(g, c.query, MorphismSetting::Neo4j(),
                                  std::string(c.name) +
                                      " seed=" + std::to_string(seed) + " " +
                                      engine_name,
                                  engine, batch_size);
      }
    }
  }
}

TEST(OracleExpandTest, ReverseCaseWalksAgainstEdgeDirection) {
  RandomGraph g = MakeRandomGraph(4, 16, 30);
  auto graph = LogicalGraph::FromVectors(dataflow::MakeContext(),
                                         GraphHead(0, "G"), g.vertices,
                                         g.edges);
  CypherEngine engine(graph);
  auto explain = engine.Explain(kExpandQueries[2].query);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(explain.value().find(", reverse)"), std::string::npos)
      << explain.value();
}

// Alternative plans must produce identical results (plan choice cannot
// change semantics).
TEST(OraclePlanEquivalenceTest, AllPlannerModesAgree) {
  RandomGraph g = MakeRandomGraph(5, 12, 24);
  auto graph = LogicalGraph::FromVectors(dataflow::MakeContext(),
                                         GraphHead(0, "G"), g.vertices,
                                         g.edges);
  PlannerOptions left_deep;
  left_deep.mode = PlannerOptions::Mode::kLeftDeep;
  PlannerOptions dp;
  dp.mode = PlannerOptions::Mode::kDynamicProgramming;
  CypherEngine greedy(graph);
  CypherEngine ld(graph, left_deep);
  CypherEngine dyn(graph, dp);
  for (const OracleCase& c : kQueries) {
    auto a = greedy.Count(c.query);
    auto b = ld.Count(c.query);
    auto d = dyn.Count(c.query);
    ASSERT_TRUE(a.ok()) << c.name << ": " << a.status();
    ASSERT_TRUE(b.ok()) << c.name << ": " << b.status();
    ASSERT_TRUE(d.ok()) << c.name << ": " << d.status();
    EXPECT_EQ(a.value(), b.value()) << c.name;
    EXPECT_EQ(a.value(), d.value()) << c.name;
  }
}

// Worker count must not change results.
TEST(OraclePlanEquivalenceTest, WorkerCountInvariant) {
  RandomGraph g = MakeRandomGraph(9, 14, 28);
  std::vector<uint64_t> counts;
  for (int workers : {1, 3, 8}) {
    dataflow::ClusterConfig cfg;
    cfg.num_workers = workers;
    auto graph = LogicalGraph::FromVectors(dataflow::MakeContext(cfg),
                                           GraphHead(0, "G"), g.vertices,
                                           g.edges);
    CypherEngine engine(graph);
    auto count = engine.Count(
        "MATCH (a:Person)-[e1:knows]->(b:Person)-[e2:knows]->(c) RETURN *");
    ASSERT_TRUE(count.ok());
    counts.push_back(count.value());
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[1], counts[2]);
}

}  // namespace
}  // namespace gradoop::query

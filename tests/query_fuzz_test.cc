// Query fuzzing: randomly generated (but valid) Cypher patterns are run
// through the full engine and compared against the naive backtracking
// matcher. Complements oracle_test's hand-picked query shapes with
// breadth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "common/random.h"
#include "cypher/parser.h"
#include "dataflow/partitioning_audit.h"
#include "query/cypher_engine.h"
#include "query/graph_statistics.h"
#include "query/naive_matcher.h"

#include "graph_shapes.h"

namespace gradoop::query {
namespace {

using epgm::GraphHead;
using epgm::LogicalGraph;

// Emits a random syntactically valid query over variables a..d.
std::string MakeQuery(Random* rng) {
  const int num_vertices = 2 + static_cast<int>(rng->NextUint64(3));
  const char* vars[] = {"a", "b", "c", "d"};
  const char* vertex_labels[] = {"", ":Person", ":Tag", ":Person|Tag"};
  const char* edge_types[] = {"", ":knows", ":likes", ":knows|likes"};

  std::vector<std::string> paths;
  const int num_edges = 1 + static_cast<int>(rng->NextUint64(3));
  int var_length_budget = 1;  // at most one expansion per query (runtime)
  for (int e = 0; e < num_edges; ++e) {
    const int src = static_cast<int>(rng->NextUint64(num_vertices));
    int dst = static_cast<int>(rng->NextUint64(num_vertices));
    std::string rel;
    const bool var_length =
        var_length_budget > 0 && rng->NextBool(0.25);
    std::string edge_var = "e" + std::to_string(e);
    if (var_length) {
      --var_length_budget;
      const int lower = static_cast<int>(rng->NextUint64(2));  // 0 or 1
      const int upper = lower + 1 + static_cast<int>(rng->NextUint64(2));
      rel = "-[" + edge_var + ":knows*" + std::to_string(lower) + ".." +
            std::to_string(upper) + "]->";
    } else {
      const char* type = edge_types[rng->NextUint64(4)];
      switch (rng->NextUint64(3)) {
        case 0:
          rel = "-[" + edge_var + type + "]->";
          break;
        case 1:
          rel = "<-[" + edge_var + type + "]-";
          break;
        default:
          rel = "-[" + edge_var + type + "]-";
          break;
      }
    }
    std::string path = std::string("(") + vars[src] +
                       vertex_labels[rng->NextUint64(4)] + ")" + rel + "(" +
                       vars[dst] + ")";
    paths.push_back(std::move(path));
  }

  std::string query = "MATCH ";
  for (size_t i = 0; i < paths.size(); ++i) {
    if (i > 0) query += ", ";
    query += paths[i];
  }

  // Random predicate on fixed elements.
  if (rng->NextBool(0.6)) {
    const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    const std::string lhs =
        std::string(vars[rng->NextUint64(num_vertices)]) + ".x";
    const std::string op = ops[rng->NextUint64(6)];
    const std::string rhs =
        rng->NextBool(0.5)
            ? std::to_string(rng->NextUint64(3))
            : std::string(vars[rng->NextUint64(num_vertices)]) + ".x";
    query += " WHERE " + lhs + " " + op + " " + rhs;
  }
  query += " RETURN *";
  return query;
}

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

class QueryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryFuzzTest, RandomQueriesMatchOracle) {
  const uint64_t seed = GetParam();
  test_graphs::ElementVectors g = test_graphs::FuzzElements(seed);
  auto graph = LogicalGraph::FromVectors(dataflow::MakeContext(),
                                         GraphHead(0, "G"), g.vertices,
                                         g.edges);
  CypherEngine engine(graph);
  // Two ablation engines exercise the partitioning analysis on every
  // executable query: with broadcast off every join repartitions, so
  // shuffle elisions actually fire; `audited` runs them under the
  // runtime audit (each elided shuffle re-hashes its records and aborts
  // on a misplaced one), `unelided` force-disables the analysis. Both
  // must agree with the oracle binding-for-binding — the comparison is
  // canonical, so legitimately different join orders don't matter.
  PlannerOptions repartition_options;
  repartition_options.allow_broadcast = false;
  PlannerOptions unelided_options = repartition_options;
  unelided_options.elide_shuffles = false;
  CypherEngine audited_engine(graph, repartition_options);
  CypherEngine unelided_engine(graph, unelided_options);
  // Engine ablation: the columnar batch engine runs the same plans
  // through the vectorized kernels. A tiny batch size forces every
  // kernel across its flush boundaries on these small graphs.
  PlannerOptions batch_options;
  batch_options.engine = PlannerOptions::ExecutionEngine::kBatch;
  batch_options.batch_size = 4;
  CypherEngine batch_engine(graph, batch_options);
  NaiveMatcher oracle(g.vertices, g.edges);
  GraphStatistics stats = GraphStatistics::Compute(graph);
  Random rng(seed * 7919 + 13);
  dataflow::PartitioningAuditStats::Instance().Reset();

  int executed = 0;
  for (int i = 0; i < 40; ++i) {
    const std::string query = MakeQuery(&rng);
    const MorphismSetting semantics = rng.NextBool(0.5)
                                          ? MorphismSetting::Neo4j()
                                          : MorphismSetting::FullIsomorphism();
    // The semantic analyzer must process every generated query without
    // crashing, whether or not the engine accepts it.
    auto ast = cypher::ParseCypher(query);
    ASSERT_TRUE(ast.ok()) << "query: " << query;
    analysis::AnalyzerOptions sema_options;
    sema_options.statistics = &stats;
    sema_options.semantics = semantics;
    auto sema = analysis::AnalyzeQuery(ast.value(), sema_options);
    auto result = engine.Execute(query, semantics);
    // Severity contract: the analyzer may only reject (error severity)
    // queries the engine itself refuses to execute. Warnings are free.
    if (result.ok()) {
      EXPECT_FALSE(sema.HasErrors())
          << "analyzer rejected an executable query: " << query << "\n"
          << sema.ErrorSummary();
    }
    if (!result.ok()) {
      // The generator can produce patterns outside the supported subset
      // (e.g. an undirected edge colliding with a variable-length rule);
      // those must fail cleanly, never crash.
      continue;
    }
    ++executed;
    auto expected =
        oracle.FindMatches(result.value().query_graph, semantics);
    std::vector<NaiveBinding> actual;
    for (const Embedding& e : result.value().embeddings.data.Collect()) {
      actual.push_back(ToBinding(e, result.value().embeddings.meta));
    }
    std::sort(actual.begin(), actual.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(actual, expected) << "query: " << query << " seed=" << seed;

    // Ablation pair: audit-enabled elision vs analysis force-disabled.
    setenv("GRADOOP_AUDIT_PARTITIONING", "1", 1);
    auto audited = audited_engine.Execute(query, semantics);
    unsetenv("GRADOOP_AUDIT_PARTITIONING");
    auto unelided = unelided_engine.Execute(query, semantics);
    auto batched = batch_engine.Execute(query, semantics);
    ASSERT_TRUE(audited.ok()) << "query: " << query << " seed=" << seed
                              << " -> " << audited.status();
    ASSERT_TRUE(unelided.ok()) << "query: " << query << " seed=" << seed
                               << " -> " << unelided.status();
    ASSERT_TRUE(batched.ok()) << "query: " << query << " seed=" << seed
                              << " -> " << batched.status();
    for (auto* variant : {&audited, &unelided, &batched}) {
      std::vector<NaiveBinding> bindings;
      for (const Embedding& e : variant->value().embeddings.data.Collect()) {
        bindings.push_back(ToBinding(e, variant->value().embeddings.meta));
      }
      std::sort(bindings.begin(), bindings.end());
      ASSERT_EQ(bindings, expected) << "query: " << query << " seed=" << seed;
    }
  }
  // The generator must not degenerate into all-unsupported queries.
  EXPECT_GT(executed, 20);
  // The audit must actually have fired (repartition plans over queries
  // with shared variables elide at least one shuffle per seed batch) and
  // every audited record must have sat in its proven partition.
  const auto& audit = dataflow::PartitioningAuditStats::Instance();
  EXPECT_GT(audit.checks(), 0u) << "seed=" << seed;
  EXPECT_EQ(audit.misplaced_records(), 0u) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace gradoop::query

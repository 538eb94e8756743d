// Differential tests for the columnar batch engine (docs/vectorized.md):
// row and batch execution of the same compiled plan must produce
// byte-identical embeddings, the runtime audits must stay clean under
// the batch kernels, EXPLAIN must surface the batch size only under
// --engine=batch, a non-positive batch size must be rejected before
// anything runs, and Count, which counts the batch root in place, must
// return and charge what counting Execute's rows does.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/partitioning_audit.h"
#include "epgm/indexed_logical_graph.h"
#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/cypher_engine.h"
#include "query/batch_operators.h"

namespace gradoop::query {
namespace {

epgm::LogicalGraph SmallLdbc() {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  return ldbc::LdbcGenerator(cfg).Generate(dataflow::MakeContext());
}

PlannerOptions BatchOptions(int batch_size = exec::kDefaultBatchSize) {
  PlannerOptions options;
  options.engine = PlannerOptions::ExecutionEngine::kBatch;
  options.batch_size = batch_size;
  return options;
}

// The differential corpus: the paper's six queries (joins, expansions,
// scan predicates) plus shapes they do not cover — a value join, RETURN
// DISTINCT and LIMIT.
std::vector<std::string> Corpus() {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  const auto elements = ldbc::LdbcGenerator(cfg).GenerateElements();
  const std::string name =
      ldbc::PickFirstName(elements, ldbc::Selectivity::kLow);
  return {
      ldbc::Query1(name),
      ldbc::Query2(name),
      ldbc::Query3(name),
      ldbc::Query4(),
      ldbc::Query5(),
      ldbc::Query6(),
      // Value join between disjoint components.
      "MATCH (a:Person)-[:isLocatedIn]->(c1:City), "
      "(b:Person)-[:isLocatedIn]->(c2:City) "
      "WHERE a.firstName = b.firstName RETURN *",
      "MATCH (p:Person)-[:hasInterest]->(t:Tag) RETURN DISTINCT t.name",
      "MATCH (p1:Person)-[:knows]->(p2:Person) RETURN p1, p2 LIMIT 25",
  };
}

// Canonical result: every embedding's exact wire encoding, sorted. Two
// engines agree iff these vectors are equal byte for byte (join order
// inside one plan is fixed, only partition/emission order may differ).
std::vector<std::string> Canonical(CypherEngine* engine,
                                   const std::string& query) {
  auto result = engine->Execute(query);
  EXPECT_TRUE(result.ok()) << query << " -> " << result.status();
  std::vector<std::string> rows;
  if (!result.ok()) return rows;
  for (const Embedding& e : result.value().embeddings.data.Collect()) {
    std::string encoded;
    e.EncodeTo(&encoded);
    rows.push_back(std::move(encoded));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(BatchEngineTest, RowAndBatchByteIdenticalOnCorpus) {
  auto graph = SmallLdbc();
  CypherEngine row(graph);
  CypherEngine batch(graph, BatchOptions());
  // A tiny batch size forces every kernel across its flush boundaries
  // (scans, join probes and residual rollbacks all straddle batches).
  CypherEngine tiny(graph, BatchOptions(/*batch_size=*/7));
  for (const std::string& q : Corpus()) {
    const std::vector<std::string> expected = Canonical(&row, q);
    EXPECT_EQ(expected, Canonical(&batch, q)) << q;
    EXPECT_EQ(expected, Canonical(&tiny, q)) << q;
  }
}

TEST(BatchEngineTest, BothMorphismSemanticsAgree) {
  auto graph = SmallLdbc();
  CypherEngine row(graph);
  CypherEngine batch(graph, BatchOptions(/*batch_size=*/16));
  for (const MorphismSetting& semantics :
       {MorphismSetting::Neo4j(), MorphismSetting::FullIsomorphism()}) {
    for (const std::string& q : {ldbc::Query5(), ldbc::Query6()}) {
      auto a = row.Execute(q, semantics);
      auto b = batch.Execute(q, semantics);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_EQ(a.value().embeddings.data.Count(),
                b.value().embeddings.data.Count())
          << q;
    }
  }
}

TEST(BatchEngineTest, RuntimeAuditsCleanUnderBatchEngine) {
  auto graph = SmallLdbc();
  // Broadcast off so repartition joins (and their elisions) actually run;
  // the memory audit aborts the process on a violated bound and the
  // partitioning audit aborts on a misplaced record, so surviving the
  // corpus is the assertion.
  PlannerOptions options = BatchOptions(/*batch_size=*/32);
  options.allow_broadcast = false;
  CypherEngine engine(graph, options);
  dataflow::PartitioningAuditStats::Instance().Reset();
  setenv("GRADOOP_AUDIT_MEMORY", "1", 1);
  setenv("GRADOOP_AUDIT_PARTITIONING", "1", 1);
  for (const std::string& q : {ldbc::Query4(), ldbc::Query5(),
                               ldbc::Query6()}) {
    auto result = engine.Execute(q);
    EXPECT_TRUE(result.ok()) << q << " -> " << result.status();
  }
  unsetenv("GRADOOP_AUDIT_MEMORY");
  unsetenv("GRADOOP_AUDIT_PARTITIONING");
  const auto& audit = dataflow::PartitioningAuditStats::Instance();
  EXPECT_GT(audit.checks(), 0u);
  EXPECT_EQ(audit.misplaced_records(), 0u);
}

TEST(BatchEngineTest, ScanSharingWorksUnderBatchEngine) {
  auto graph = SmallLdbc();
  PlannerOptions shared_options = BatchOptions();
  shared_options.share_scan_results = true;
  CypherEngine row(graph);
  CypherEngine plain(graph, BatchOptions());
  CypherEngine shared(graph, shared_options);
  // Q6 scans :hasInterest three times; the BatchScanCache must reuse the
  // columnar scan without changing the result.
  const std::vector<std::string> expected = Canonical(&row, ldbc::Query6());
  EXPECT_EQ(expected, Canonical(&plain, ldbc::Query6()));
  EXPECT_EQ(expected, Canonical(&shared, ldbc::Query6()));
}

TEST(BatchEngineTest, ExplainRendersBatchSizeOnlyUnderBatchEngine) {
  auto graph = SmallLdbc();
  CypherEngine row(graph);
  CypherEngine batch(graph, BatchOptions());
  CypherEngine sized(graph, BatchOptions(/*batch_size=*/256));
  auto row_plan = row.Explain(ldbc::Query5());
  auto batch_plan = batch.Explain(ldbc::Query5());
  auto sized_plan = sized.Explain(ldbc::Query5());
  ASSERT_TRUE(row_plan.ok()) << row_plan.status();
  ASSERT_TRUE(batch_plan.ok()) << batch_plan.status();
  ASSERT_TRUE(sized_plan.ok()) << sized_plan.status();
  // Row-engine EXPLAIN stays byte-stable: no batch annotations at all.
  EXPECT_EQ(row_plan.value().find("batch="), std::string::npos);
  EXPECT_NE(batch_plan.value().find("batch=1024"), std::string::npos)
      << batch_plan.value();
  EXPECT_NE(sized_plan.value().find("batch=256"), std::string::npos)
      << sized_plan.value();
}

TEST(BatchEngineTest, ExplainAnalyzeReportsBatchesAndSelectivity) {
  auto graph = SmallLdbc();
  CypherEngine batch(graph, BatchOptions());
  auto analyzed = batch.ExplainAnalyze(ldbc::Query5());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_NE(analyzed.value().find("batches="), std::string::npos)
      << analyzed.value();
  EXPECT_NE(analyzed.value().find("sel="), std::string::npos)
      << analyzed.value();
  // The row engine records no batches, so the renderer omits them.
  CypherEngine row(graph);
  auto row_analyzed = row.ExplainAnalyze(ldbc::Query5());
  ASSERT_TRUE(row_analyzed.ok()) << row_analyzed.status();
  EXPECT_EQ(row_analyzed.value().find("batches="), std::string::npos);
}

TEST(BatchEngineTest, AlternationScanCutsBatchesAcrossLabelBoundaries) {
  // Q1's message scan reads the Comment and Post datasets in place, and
  // one builder carries on across the label boundary: each partition's
  // rows are cut into batches exactly as a scan of the two labels' union
  // would cut them, not into one ragged tail batch per label.
  const epgm::LogicalGraph graph = SmallLdbc();
  const epgm::IndexedLogicalGraph indexed =
      epgm::IndexedLogicalGraph::Build(graph);
  const std::vector<std::string> labels = {"Comment", "Post"};
  const int batch_size = 7;
  auto batches_of = [&](uint64_t rows) {
    return (rows + batch_size - 1) / batch_size;
  };
  uint64_t straddling = 0;
  uint64_t per_label = 0;
  const auto messages = indexed.VerticesOfLabels(labels);
  for (int p = 0; p < messages.num_partitions(); ++p) {
    straddling += batches_of(messages.partition(p).size());
    for (const std::string& label : labels) {
      per_label +=
          batches_of(indexed.VerticesByLabel(label).partition(p).size());
    }
  }
  ASSERT_NE(straddling, per_label) << "no batch straddles a label boundary";

  CypherEngine tiny(graph, BatchOptions(batch_size));
  auto analyzed = tiny.ExplainAnalyze(ldbc::Query1("Alice"));
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  const std::string& text = analyzed.value();
  const size_t scan = text.find("ScanVertices(message:Comment|Post)");
  ASSERT_NE(scan, std::string::npos) << text;
  const size_t batches = text.find("batches=", scan);
  ASSERT_NE(batches, std::string::npos) << text;
  EXPECT_EQ(std::strtoull(text.c_str() + batches + 8, nullptr, 10),
            straddling)
      << text;
}

TEST(BatchEngineTest, RejectsNonPositiveBatchSize) {
  // No kernel can build batches of zero or fewer rows, so the engine
  // refuses the options up front instead of running at some other size.
  auto graph = SmallLdbc();
  for (const int batch_size : {0, -1}) {
    CypherEngine engine(graph, BatchOptions(batch_size));
    auto executed = engine.Execute(ldbc::Query5());
    ASSERT_FALSE(executed.ok()) << "batch_size=" << batch_size;
    EXPECT_EQ(executed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(executed.status().message().find("batch_size"),
              std::string::npos)
        << executed.status();
    auto explained = engine.Explain(ldbc::Query5());
    ASSERT_FALSE(explained.ok()) << "batch_size=" << batch_size;
    EXPECT_EQ(explained.status().code(), StatusCode::kInvalidArgument);
  }
}

// What one call left in the cost model: simulated seconds as a hex float
// (so equality is bit equality), network bytes, records and, with
// telemetry on, the stage count.
struct Charges {
  std::string simulated_hex;
  uint64_t network_bytes = 0;
  uint64_t records = 0;
  uint64_t stages = 0;

  bool operator==(const Charges&) const = default;
};

Charges ReadCharges(dataflow::ExecutionContext& ctx) {
  Charges c;
  char hex[64];
  std::snprintf(hex, sizeof(hex), "%a", ctx.tracker().SimulatedSeconds());
  c.simulated_hex = hex;
  c.network_bytes = ctx.tracker().NetworkBytes();
  c.records = ctx.tracker().TotalRecords();
  const auto counters = ctx.telemetry().metrics().Snapshot().counters;
  const auto stages = counters.find("stage.count");
  c.stages = stages == counters.end() ? 0 : stages->second;
  return c;
}

void ResetCharges(dataflow::ExecutionContext& ctx) {
  ctx.tracker().Reset();
  ctx.telemetry().ResetData();
}

TEST(BatchEngineTest, CountEqualsCountingExecutesRowsAndChargesTheSame) {
  // Count on the batch engine sums the root batches in place unless
  // DISTINCT or LIMIT needs row keys. Either way it must return the
  // number of rows Execute returns and leave the cost model exactly where
  // Execute followed by counting those rows leaves it.
  auto graph = SmallLdbc();
  dataflow::ExecutionContext& ctx = *graph.vertices().context();
  ctx.EnableTelemetry();
  std::vector<std::string> queries = Corpus();
  queries.resize(6);  // the six LDBC queries
  queries.insert(
      queries.end(),
      {"MATCH (p:Person)-[:hasInterest]->(t:Tag) RETURN DISTINCT t.name",
       "MATCH (p1:Person)-[:knows]->(p2:Person) RETURN p1, p2 LIMIT 25",
       "MATCH (p:Person)-[:hasInterest]->(t:Tag) "
       "RETURN DISTINCT p.firstName LIMIT 5",
       "MATCH (p1:Person)-[:knows]->(p2:Person) RETURN p1 LIMIT 0",
       // Statically unsatisfiable: nothing is planned or run.
       "MATCH (p:Person) WHERE 1 = 2 RETURN p"});
  std::vector<std::pair<std::string, PlannerOptions>> engines = {
      {"row", PlannerOptions()}};
  for (const int batch_size : {1, 7, 1024}) {
    engines.emplace_back("batch/" + std::to_string(batch_size),
                         BatchOptions(batch_size));
  }
  for (const auto& [label, options] : engines) {
    CypherEngine engine(graph, options);
    for (const std::string& q : queries) {
      ResetCharges(ctx);
      auto executed = engine.Execute(q);
      ASSERT_TRUE(executed.ok()) << label << ": " << q << " -> "
                                 << executed.status();
      const uint64_t rows = executed.value().embeddings.data.Count();
      EXPECT_EQ(executed.value().matches, rows) << label << ": " << q;
      const Charges after_execute = ReadCharges(ctx);

      ResetCharges(ctx);
      auto counted = engine.Count(q);
      ASSERT_TRUE(counted.ok()) << label << ": " << q << " -> "
                                << counted.status();
      EXPECT_EQ(counted.value(), rows) << label << ": " << q;
      EXPECT_EQ(ReadCharges(ctx), after_execute) << label << ": " << q;
    }
  }
  ctx.DisableTelemetry();
}

// Best-of-`reps` wall time of converting `rows` single-row batches back
// to rows.
double BatchesToRowsSeconds(int rows, int reps) {
  auto ctx = dataflow::MakeContext();
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  std::vector<Embedding> data(rows);
  for (int i = 0; i < rows; ++i) data[i].AppendId(static_cast<uint64_t>(i));
  const BatchSet batches = RowsToBatches(
      {dataflow::Dataset<Embedding>::FromVector(ctx, std::move(data)), meta},
      /*batch_size=*/1);
  double best = 1e9;
  for (int r = 0; r < reps; ++r) {
    const auto begin = std::chrono::steady_clock::now();
    const EmbeddingSet converted = BatchesToRows(batches);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - begin;
    EXPECT_EQ(converted.data.Count(), static_cast<uint64_t>(rows));
    best = std::min(best, elapsed.count());
  }
  return best;
}

TEST(BatchEngineTest, BatchesToRowsIsLinearInTheRowCount) {
  // Growing a partition's output vector to the exact size on every batch
  // makes n rows in 1-row batches cost O(n^2) moves, so doubling n
  // quadruples the time. Linear conversion doubles it; 3x separates the
  // two with room for timer noise.
  const int n = 16384;
  const double single = BatchesToRowsSeconds(n, 5);
  const double twice = BatchesToRowsSeconds(2 * n, 5);
  EXPECT_LT(twice, 3.0 * single)
      << "n rows: " << single << " s, 2n rows: " << twice << " s";
}

}  // namespace
}  // namespace gradoop::query

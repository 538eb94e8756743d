// Static memory-footprint analysis (docs/memory.md): the per-operator
// transfer functions, the lifetime-interval fold that distinguishes the
// plan peak from the naive sum, the verifier that re-derives every claim
// (and rejects tampered or missing ones), the GQL007 admission gate, the
// runtime accountant feeding per-operator measured peaks, and the
// GRADOOP_AUDIT_MEMORY audit that aborts on an unsound model.
#include "query/exec/memory_bound.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/plan_verifier.h"
#include "cypher/parser.h"
#include "dataflow/dataset.h"
#include "dataflow/memory_accountant.h"
#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/cypher_engine.h"
#include "query/exec/physical_operator.h"
#include "query/exec/plan_compiler.h"

namespace gradoop::query {
namespace {

using dataflow::MemoryAccountant;
using exec::DeriveMemoryBound;
using exec::EstimateRowBytes;
using exec::FoldLifetimePeak;
using exec::kEmbeddingHeaderBytes;
using exec::kEntryWidthBytes;
using exec::kJoinTableEntryBytes;
using exec::kPathBytesEstimate;
using exec::kPropertyBytesEstimate;
using exec::MemoryBound;

cypher::QueryGraph QG(const std::string& text) {
  auto ast = cypher::ParseCypher(text);
  EXPECT_TRUE(ast.ok()) << ast.status();
  auto qg = cypher::QueryGraph::Build(ast.value());
  EXPECT_TRUE(qg.ok()) << qg.status();
  return std::move(qg).value();
}

epgm::LogicalGraph LdbcGraph() {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  return ldbc::LdbcGenerator(cfg).Generate(dataflow::MakeContext());
}

const std::vector<std::string>& LdbcQueries() {
  static const std::vector<std::string> queries = {
      ldbc::Query1("X"), ldbc::Query2("X"), ldbc::Query3("X"),
      ldbc::Query4(),    ldbc::Query5(),    ldbc::Query6()};
  return queries;
}

void CollectOps(const exec::PhysicalOperatorPtr& op,
                std::vector<exec::PhysicalOperator*>* out) {
  out->push_back(op.get());
  for (const auto& child : op->children()) CollectOps(child, out);
}

// --- row model and rendering ------------------------------------------

TEST(MemoryBoundTest, ToStringRendersAllFields) {
  MemoryBound b;
  b.row_bytes = 21;
  b.output_bytes = 4096;
  b.state_bytes = 64;
  b.peak_bytes = 8192;
  EXPECT_EQ(b.ToString(), "row=21B out=4096B state=64B peak=8192B");
}

TEST(EstimateRowBytesTest, CountsIdPathAndPropertyColumns) {
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  EXPECT_EQ(EstimateRowBytes(meta), kEmbeddingHeaderBytes + kEntryWidthBytes);

  meta.AddIdColumn("e", EntryType::kEdge);
  meta.AddIdColumn("p", EntryType::kPath);
  meta.AddPropertyColumn("a", "name");
  // The path binds an id column AND a variable-length payload estimate.
  EXPECT_EQ(EstimateRowBytes(meta),
            kEmbeddingHeaderBytes + 3 * kEntryWidthBytes +
                kPathBytesEstimate + kPropertyBytesEstimate);
}

// --- the lifetime-interval fold ---------------------------------------

TEST(FoldLifetimePeakTest, IntervalModelUndercutsTheNaiveSum) {
  // Two inputs whose internal peaks (1000B each) dwarf their outputs
  // (100B each): under the interval model the second input's peak is
  // reached after the first released its internals, so the plan peak is
  // 100 + 1000 — not the 2250-byte sum of every figure in sight.
  const uint64_t outputs[] = {100, 100};
  const uint64_t peaks[] = {1000, 1000};
  const uint64_t folded = FoldLifetimePeak(outputs, peaks, 2, 0, 50);
  EXPECT_EQ(folded, 1100u);
  const uint64_t naive_sum = 100 + 100 + 1000 + 1000 + 50;
  EXPECT_LT(folded, naive_sum);
}

TEST(FoldLifetimePeakTest, FinalTermDominatesWhenStateIsLarge) {
  // All inputs resident + operator state + output is the high-water mark
  // when the children are cheap and the operator's own state is not.
  const uint64_t outputs[] = {10, 10};
  const uint64_t peaks[] = {10, 10};
  EXPECT_EQ(FoldLifetimePeak(outputs, peaks, 2, 100, 5), 125u);
}

TEST(FoldLifetimePeakTest, LeafIsStatePlusOutput) {
  EXPECT_EQ(FoldLifetimePeak(nullptr, nullptr, 0, 0, 210), 210u);
  EXPECT_EQ(FoldLifetimePeak(nullptr, nullptr, 0, 32, 210), 242u);
}

// --- per-operator transfer functions ----------------------------------

std::shared_ptr<exec::VertexScanOp> MakeScan(const cypher::QueryGraph& qg,
                                             const std::string& var,
                                             int index, double estimate) {
  EmbeddingMetaData meta;
  meta.AddIdColumn(var, EntryType::kVertex);
  auto scan = std::make_shared<exec::VertexScanOp>(
      std::move(meta), estimate, MorphismSetting::Neo4j(),
      std::vector<cypher::CnfClause>{}, qg.vertices()[index],
      std::vector<cypher::CnfClause>{});
  exec::DerivePlanProperties(*scan, {});
  return scan;
}

TEST(TransferFunctionTest, ScanIsStatelessAndPeaksAtItsOutput) {
  auto qg = QG("MATCH (a)-[e:knows]->(b) RETURN *");
  auto scan = MakeScan(qg, "a", 0, 10.0);
  const MemoryBound b = scan->properties().memory;
  EXPECT_EQ(b.row_bytes, kEmbeddingHeaderBytes + kEntryWidthBytes);
  EXPECT_EQ(b.output_bytes, b.row_bytes * 10);
  EXPECT_EQ(b.state_bytes, 0u);
  EXPECT_EQ(b.peak_bytes, b.output_bytes);
}

TEST(TransferFunctionTest, FilterAddsNoState) {
  auto qg = QG("MATCH (a)-[e:knows]->(b) RETURN *");
  auto scan = MakeScan(qg, "a", 0, 10.0);
  exec::FilterOp filter(scan->output_meta(), 4.0, MorphismSetting::Neo4j(),
                        scan, {});
  const MemoryBound b = DeriveMemoryBound(filter);
  EXPECT_EQ(b.state_bytes, 0u);
  // Scan output lives until the filter returns: peak covers both.
  EXPECT_EQ(b.peak_bytes,
            scan->properties().memory.output_bytes + b.output_bytes);
}

TEST(TransferFunctionTest, RepartitionJoinChargesStagingAndBuildTable) {
  auto qg = QG("MATCH (a)-[e:knows]->(b) RETURN *");
  auto left = MakeScan(qg, "a", 0, 4.0);
  auto right = MakeScan(qg, "b", 1, 8.0);
  auto merged = EmbeddingMetaData::Merge(left->output_meta(),
                                         right->output_meta());
  exec::JoinOp join(merged, 5.0, MorphismSetting::Neo4j(), {}, left, right,
                    {"a"}, {0}, {0}, dataflow::JoinStrategy::kRepartition);
  const MemoryBound b = DeriveMemoryBound(join);
  const uint64_t left_out = left->properties().memory.output_bytes;
  const uint64_t right_out = right->properties().memory.output_bytes;
  EXPECT_EQ(b.state_bytes,
            left_out + right_out + 8 * kJoinTableEntryBytes);
  EXPECT_EQ(b.peak_bytes,
            left_out + right_out + b.state_bytes + b.output_bytes);
}

TEST(TransferFunctionTest, BroadcastJoinScalesWithWorkerCount) {
  auto qg = QG("MATCH (a)-[e:knows]->(b) RETURN *");
  auto left = MakeScan(qg, "a", 0, 4.0);
  auto right = MakeScan(qg, "b", 1, 8.0);
  auto merged = EmbeddingMetaData::Merge(left->output_meta(),
                                         right->output_meta());
  exec::JoinOp join(merged, 5.0, MorphismSetting::Neo4j(), {}, left, right,
                    {"a"}, {0}, {0}, dataflow::JoinStrategy::kBroadcast);
  const uint64_t left_out = left->properties().memory.output_bytes;
  const uint64_t right_out = right->properties().memory.output_bytes;
  for (int p : {2, 4, 8}) {
    const MemoryBound b = DeriveMemoryBound(join, p);
    // The build side is concatenated once and replicated to p workers,
    // each of which builds a table over all 8 build rows.
    EXPECT_EQ(b.state_bytes,
              left_out + (static_cast<uint64_t>(p) + 1) * right_out +
                  static_cast<uint64_t>(p) * 8 * kJoinTableEntryBytes)
        << "p=" << p;
  }
  EXPECT_GT(DeriveMemoryBound(join, 8).peak_bytes,
            DeriveMemoryBound(join, 2).peak_bytes);
}

// --- compiled plans: claims, verifier, admission ----------------------

TEST(MemoryAnalysisTest, EveryCompiledOperatorHasAPositivePeak) {
  CypherEngine engine(LdbcGraph());
  for (const std::string& q : LdbcQueries()) {
    auto result = engine.Execute(q);
    ASSERT_TRUE(result.ok()) << q << " -> " << result.status();
    ASSERT_NE(result.value().physical, nullptr) << q;
    std::vector<exec::PhysicalOperator*> ops;
    CollectOps(result.value().physical, &ops);
    for (exec::PhysicalOperator* op : ops) {
      EXPECT_GT(op->properties().memory.peak_bytes, 0u) << q;
      if (op->op_kind() == exec::PhysOpKind::kExpand) {
        // The compiler passed the edge-input estimate from the graph
        // statistics; expansions price a full edge-dataset join per hop.
        EXPECT_GT(static_cast<exec::ExpandOp*>(op)->edge_input_estimate(),
                  0u)
            << q;
      }
    }
    EXPECT_TRUE(analysis::VerifyCompiledPlan(result.value().query_graph,
                                             *result.value().physical)
                    .ok())
        << q;
  }
}

TEST(MemoryAdmissionTest, TinyBudgetRejectsBeforeExecution) {
  CypherEngine engine(LdbcGraph());
  engine.set_max_query_memory_bytes(64);
  auto rejected = engine.Execute(ldbc::Query1("Alice"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("GQL007"), std::string::npos)
      << rejected.status();
  EXPECT_NE(rejected.status().message().find("max_query_memory_bytes"),
            std::string::npos)
      << rejected.status();
  // Nothing executed: the per-query accountant was never enabled, so no
  // dataflow work was charged on this engine's context.
  EXPECT_EQ(engine.graph().vertices().context()->accountant().peak_bytes(),
            0u);
  // EXPLAIN runs the same admission gate.
  auto explain = engine.Explain(ldbc::Query1("Alice"));
  ASSERT_FALSE(explain.ok());
  EXPECT_NE(explain.status().message().find("GQL007"), std::string::npos);

  // Lifting the budget admits the same query unchanged.
  engine.set_max_query_memory_bytes(0);
  auto admitted = engine.Execute(ldbc::Query1("Alice"));
  EXPECT_TRUE(admitted.ok()) << admitted.status();

  // A budget above the plan's static bound admits it too.
  engine.set_max_query_memory_bytes(1ull << 40);
  EXPECT_TRUE(engine.Execute(ldbc::Query1("Alice")).ok());
}

// --- runtime accounting ------------------------------------------------

TEST(MemoryAccountantTest, FramesMeasureSubtreeRelativePeaks) {
  MemoryAccountant accountant;
  // Disabled: every operation is a no-op (the default-off guarantee the
  // accounting-overhead bench relies on).
  accountant.Charge(100);
  accountant.PushFrame();
  EXPECT_EQ(accountant.PopFrame(), 0u);
  EXPECT_EQ(accountant.peak_bytes(), 0u);

  accountant.Enable();
  accountant.Charge(100);  // an older sibling's output, still resident
  accountant.PushFrame();
  accountant.Charge(50);
  accountant.PushFrame();
  accountant.Charge(200);
  accountant.Release(200);
  // The inner frame's own peak excludes the 150 bytes held at entry.
  EXPECT_EQ(accountant.PopFrame(), 200u);
  // ...but its high-water mark folds into the enclosing frame.
  EXPECT_EQ(accountant.PopFrame(), 250u);
  EXPECT_EQ(accountant.peak_bytes(), 350u);
  EXPECT_EQ(accountant.current_bytes(), 150u);
  accountant.Reset();
  EXPECT_EQ(accountant.peak_bytes(), 0u);
}

TEST(MemoryAccountingTest, BothJoinStrategiesChargeTheAccountant) {
  // Satellite of the ExplainAnalyze asymmetry fix: broadcast joins must
  // account their staged records/bytes exactly like repartition joins.
  for (auto strategy : {dataflow::JoinStrategy::kRepartition,
                        dataflow::JoinStrategy::kBroadcast}) {
    auto ctx = dataflow::MakeContext();
    ctx->accountant().Enable();
    std::vector<uint64_t> data(64);
    for (size_t i = 0; i < data.size(); ++i) data[i] = i + 1;
    auto left = dataflow::Dataset<uint64_t>::FromVector(ctx, data);
    auto right = dataflow::Dataset<uint64_t>::FromVector(ctx, data);
    const uint64_t records_before = ctx->tracker().TotalRecords();
    auto key = [](const uint64_t& v) { return v; };
    auto join = left.HashJoin<uint64_t>(
        right, key, key,
        [](const uint64_t& l, const uint64_t&, std::vector<uint64_t>* out) {
          out->push_back(l);
        },
        strategy, "AccountingProbe");
    EXPECT_EQ(join.Collect().size(), 64u);
    // The build side's 64 records enter the exchange under either
    // strategy (this was silently zero on the broadcast path).
    EXPECT_GE(ctx->tracker().TotalRecords() - records_before, 64u)
        << "strategy=" << static_cast<int>(strategy);
    EXPECT_GT(ctx->accountant().peak_bytes(), 0u);
    // The transient staging + build table was released at kernel exit.
    EXPECT_EQ(ctx->accountant().current_bytes(), 0u);
  }
}

TEST(MemoryAccountingTest, EngineActualsPopulatedForBothJoinStrategies) {
  for (bool broadcast : {true, false}) {
    PlannerOptions options;
    options.allow_broadcast = broadcast;
    CypherEngine engine(LdbcGraph(), options);
    auto result = engine.Execute(ldbc::Query1("Alice"));
    ASSERT_TRUE(result.ok()) << result.status();
    std::vector<exec::PhysicalOperator*> ops;
    CollectOps(result.value().physical, &ops);
    for (exec::PhysicalOperator* op : ops) {
      EXPECT_TRUE(op->stats().executed);
      EXPECT_GT(op->stats().actual_peak_bytes, 0u)
          << op->name() << " broadcast=" << broadcast;
      if (op->op_kind() == exec::PhysOpKind::kJoin) {
        EXPECT_GT(op->stats().network_bytes, 0u)
            << op->name() << " broadcast=" << broadcast;
      }
    }
  }
}

TEST(MemoryAccountingTest, DisablingAccountingZeroesActualsOnly) {
  CypherEngine engine(LdbcGraph());
  engine.set_account_memory(false);
  auto result = engine.Execute(ldbc::Query1("Alice"));
  ASSERT_TRUE(result.ok()) << result.status();
  std::vector<exec::PhysicalOperator*> ops;
  CollectOps(result.value().physical, &ops);
  for (exec::PhysicalOperator* op : ops) {
    // The static bound is unaffected.
    EXPECT_GT(op->properties().memory.peak_bytes, 0u);
    EXPECT_EQ(op->stats().actual_peak_bytes, 0u);
  }
  // No charge site bypasses the accountant's enabled() gate.
  EXPECT_EQ(engine.graph().context()->accountant().peak_bytes(), 0u);
}

// --- the runtime audit -------------------------------------------------

TEST(MemoryAuditTest, CleanLdbcRunPassesAndCountsOperators) {
  exec::MemoryAuditStats& stats = exec::MemoryAuditStats::Instance();
  stats.Reset();
  setenv("GRADOOP_AUDIT_MEMORY", "1", 1);
  CypherEngine engine(LdbcGraph());
  for (const std::string& q : LdbcQueries()) {
    auto result = engine.Execute(q);
    EXPECT_TRUE(result.ok()) << q << " -> " << result.status();
  }
  unsetenv("GRADOOP_AUDIT_MEMORY");
  // One audit per executed query, every operator checked, none violated
  // (a disabled audit would trivially "pass" with zero checks).
  EXPECT_GE(stats.checks(), 6u);
  EXPECT_GT(stats.operators_checked(), 6u);
  EXPECT_EQ(stats.violations(), 0u);
}

TEST(MemoryAuditDeathTest, AbortsOnUnderClaimedPlan) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = [] {
    CypherEngine engine(LdbcGraph());
    auto result = engine.Execute(ldbc::Query1("Alice"));
    if (!result.ok() || result.value().physical == nullptr) return;
    // Shrink the slack until the model under-claims: the measured peaks
    // are real, so the allowance (slack x the static model) collapses
    // and the first checked operator must abort the process.
    setenv("GRADOOP_MEMORY_SLACK", "0.001", 1);
    exec::AuditCompiledPlanMemory(*result.value().physical, 4);
  };
  EXPECT_DEATH(run(), "memory audit FAILED");
}

}  // namespace
}  // namespace gradoop::query

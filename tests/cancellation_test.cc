// Cancellation safety (docs/cancellation.md): the CancellationToken's
// trip/poll/deadline semantics, the bounded checkpoint intervals
// DerivePlanProperties computes (VerifyCompiledPlan rejects a tree that
// skipped the pass as unbounded), the GQL008 unwind on deadlines
// and injected cancels in both engines, the GRADOOP_AUDIT_CANCELLATION
// runtime audit over Execute and Count (including its abort on an
// unpolled loop), and the query log's cancellation attribution plus
// SetPath's failure path.
#include "common/cancellation.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/plan_verifier.h"
#include "cypher/parser.h"
#include "dataflow/execution_context.h"
#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/cypher_engine.h"
#include "query/exec/interruptibility.h"
#include "query/exec/physical_operator.h"
#include "telemetry/query_log.h"
#include "telemetry/validate.h"

namespace gradoop::query {
namespace {

using common::CancellationToken;
using common::CancelReason;

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

// --- token semantics ---------------------------------------------------

TEST(CancellationTokenTest, DisabledTokenIsOneRelaxedLoad) {
  CancellationToken token;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(token.CheckCancelled());
  // Structural pin of the disabled-cost contract: the fast path never
  // reaches the poll counter, so a disarmed token records zero polls.
  EXPECT_EQ(token.polls(), 0u);
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  EXPECT_EQ(token.SecondsSinceTrip(), 0.0);
}

TEST(CancellationTokenTest, RequestCancelTripsAndResetClears) {
  CancellationToken token;
  token.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.CheckCancelled());
  EXPECT_TRUE(token.CancelledOrExpired());
  EXPECT_EQ(token.reason(), CancelReason::kExplicit);
  EXPECT_STREQ(common::CancelReasonName(token.reason()), "cancelled");
  token.Reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  EXPECT_EQ(token.polls(), 0u);
  EXPECT_FALSE(token.CheckCancelled());
}

TEST(CancellationTokenTest, FirstTripperWins) {
  CancellationToken token;
  token.RequestCancel();
  token.InjectCancelAfter(1);
  EXPECT_TRUE(token.CheckCancelled());
  // The explicit trip claimed the latch; the injected poll cannot
  // overwrite its attribution.
  EXPECT_EQ(token.reason(), CancelReason::kExplicit);
}

TEST(CancellationTokenTest, InjectionTripsAtTheConfiguredCheckpoint) {
  CancellationToken token;
  token.InjectCancelAfter(5);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(token.CheckCancelled()) << "poll " << i;
  }
  EXPECT_TRUE(token.CheckCancelled());  // the 5th poll trips
  EXPECT_EQ(token.reason(), CancelReason::kInjected);
  EXPECT_EQ(token.trip_poll(), 5u);
  EXPECT_EQ(token.polls_after_trip(), 0u);
  // Late polls (loops draining after the trip) are tallied for the audit.
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(token.CheckCancelled());
  EXPECT_EQ(token.polls_after_trip(), 7u);
}

TEST(CancellationTokenTest, ExpiredDeadlineTripsOnFirstPoll) {
  CancellationToken token;
  token.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1));
  EXPECT_TRUE(token.CheckCancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_STREQ(common::CancelReasonName(token.reason()), "deadline");
}

TEST(CancellationTokenTest, DeadlineTripBackdatesToTheDeadline) {
  CancellationToken token;
  // The trip is observed 3 seconds late — the signature of an unpolled
  // loop. SecondsSinceTrip must measure from the deadline itself, not
  // from the poll that finally noticed, so the audit's latency budget
  // sees the full overrun.
  token.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::seconds(3));
  EXPECT_TRUE(token.CancelledOrExpired());
  EXPECT_GE(token.SecondsSinceTrip(), 3.0);
}

TEST(CancellationTokenTest, FarDeadlineDoesNotTrip) {
  CancellationToken token;
  token.SetDeadline(std::chrono::steady_clock::now() +
                    std::chrono::hours(1));
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(token.CheckCancelled());
  EXPECT_FALSE(token.CancelledOrExpired());
  EXPECT_EQ(token.polls(), 1000u);  // armed: every poll is counted
}

// --- interruptibility claims -------------------------------------------

TEST(InterruptibilityTest, CompilerDerivesBoundedIntervalsOnEveryOperator) {
  CypherEngine engine(LdbcGraph());
  auto result = engine.Execute(ldbc::Query1("Alice"));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_NE(result.value().physical, nullptr);
  std::vector<exec::PhysicalOperator*> ops;
  CollectOps(result.value().physical, &ops);
  ASSERT_FALSE(ops.empty());
  for (exec::PhysicalOperator* op : ops) {
    EXPECT_TRUE(op->properties().interruptibility.bounded())
        << op->Describe();
  }
}

TEST(InterruptibilityTest, VerifierRejectsUnboundedClaim) {
  auto qg = QG("MATCH (a)-[e:knows]->(b) RETURN *");
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  // A structurally valid scan that skipped DerivePlanProperties: its
  // default properties claim no checkpoint at all.
  exec::VertexScanOp scan(meta, 1.0, MorphismSetting::Neo4j(), {},
                          qg.vertices()[0], {});
  const Status s = analysis::VerifyCompiledPlan(qg, scan);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unbounded checkpoint interval"),
            std::string::npos)
      << s.message();
}

// --- the GQL008 unwind -------------------------------------------------

TEST(CancellationEngineTest, ExpiredDeadlineUnwindsToGql008OnBothEngines) {
  CypherEngine engine(LdbcGraph());
  for (const auto mode : {PlannerOptions::ExecutionEngine::kRow,
                          PlannerOptions::ExecutionEngine::kBatch}) {
    engine.planner_options().engine = mode;
    const uint64_t resident_bytes =
        engine.graph().vertices().context()->accountant().current_bytes();
    engine.set_query_deadline(1e-9);  // expires before the first phase
    auto rejected = engine.Execute(ldbc::Query1("Alice"));
    ASSERT_FALSE(rejected.ok());
    EXPECT_NE(rejected.status().message().find("GQL008"), std::string::npos)
        << rejected.status();
    EXPECT_NE(rejected.status().message().find("query timed out"),
              std::string::npos)
        << rejected.status();
    // The cancelled query's accounting window drained: nothing it
    // charged outlives the unwind (graph-resident charges stay put).
    EXPECT_EQ(
        engine.graph().vertices().context()->accountant().current_bytes(),
        resident_bytes);
    // Disabling the deadline admits the same query unchanged.
    engine.set_query_deadline(0.0);
    auto admitted = engine.Execute(ldbc::Query1("Alice"));
    EXPECT_TRUE(admitted.ok()) << admitted.status();
  }
}

TEST(CancellationEngineTest, CancelBetweenQueriesIsANoOp) {
  CypherEngine engine(LdbcGraph());
  engine.Cancel();  // no query in flight: the next Execute re-arms
  EXPECT_TRUE(engine.cancellation().cancelled());
  auto result = engine.Execute(ldbc::Query1("Alice"));
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(engine.cancellation().cancelled());
}

TEST(CancellationEngineTest, CancelledQueryLogsAttribution) {
  CypherEngine engine(LdbcGraph());
  dataflow::ExecutionContext& ctx = *engine.graph().vertices().context();
  ctx.EnableTelemetry();
  engine.set_query_deadline(1e-9);
  auto rejected = engine.Execute(ldbc::Query1("Alice"));
  ASSERT_FALSE(rejected.ok());
  engine.set_query_deadline(0.0);
  const auto counters = ctx.telemetry().metrics().Snapshot().counters;
  auto cancelled = counters.find("query.cancelled");
  ASSERT_NE(cancelled, counters.end());
  EXPECT_GE(cancelled->second, 1u);
  const std::vector<std::string> lines = ctx.query_log().Lines();
  ASSERT_FALSE(lines.empty());
  const std::string& line = lines.back();
  EXPECT_NE(line.find("\"cancelled_phase\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"cancel_reason\": \"deadline\""), std::string::npos)
      << line;
  std::string error;
  EXPECT_TRUE(telemetry::ValidateQueryLogLine(line, &error)) << error;
  ctx.DisableTelemetry();
}

// --- the runtime audit -------------------------------------------------

TEST(CancellationAuditTest, InjectedCancelsUnwindCleanlyOverLdbc) {
  exec::CancellationAuditStats& stats =
      exec::CancellationAuditStats::Instance();
  stats.Reset();
  setenv("GRADOOP_AUDIT_CANCELLATION", "1", 1);
  CypherEngine engine(LdbcGraph());
  for (const auto mode : {PlannerOptions::ExecutionEngine::kRow,
                          PlannerOptions::ExecutionEngine::kBatch}) {
    engine.planner_options().engine = mode;
    for (const std::string& q : LdbcQueries()) {
      auto result = engine.Execute(q);
      // The probe's injected trip is internal; callers still get the
      // clean re-run's result.
      EXPECT_TRUE(result.ok()) << q << " -> " << result.status();
    }
  }
  unsetenv("GRADOOP_AUDIT_CANCELLATION");
  // One probe per query per engine; at least one checkpoint must have
  // actually tripped (a probe that never trips proves nothing), every
  // tripped probe was audited, and none violated its claims.
  EXPECT_EQ(stats.injections(), 12u);
  EXPECT_GT(stats.trips(), 0u);
  EXPECT_EQ(stats.checks(), stats.trips());
  EXPECT_EQ(stats.violations(), 0u);
}

TEST(CancellationAuditTest, InjectedCancelsUnwindCleanlyOverLdbcCount) {
  // Count goes through the same audit probe as Execute; on the batch
  // engine the probe's run counts the root batches in place, so this
  // covers the count path's unwind too. Batch size 7 cuts the root into
  // many batches.
  exec::CancellationAuditStats& stats =
      exec::CancellationAuditStats::Instance();
  stats.Reset();
  setenv("GRADOOP_AUDIT_CANCELLATION", "1", 1);
  CypherEngine engine(LdbcGraph());
  for (const auto mode : {PlannerOptions::ExecutionEngine::kRow,
                          PlannerOptions::ExecutionEngine::kBatch}) {
    engine.planner_options().engine = mode;
    engine.planner_options().batch_size = 7;
    for (const std::string& q : LdbcQueries()) {
      auto count = engine.Count(q);
      EXPECT_TRUE(count.ok()) << q << " -> " << count.status();
    }
  }
  unsetenv("GRADOOP_AUDIT_CANCELLATION");
  EXPECT_EQ(stats.injections(), 12u);
  EXPECT_GT(stats.trips(), 0u);
  EXPECT_EQ(stats.checks(), stats.trips());
  EXPECT_EQ(stats.violations(), 0u);
}

TEST(CancellationAuditDeathTest, CatchesAnUnpolledLoop) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = [] {
    setenv("GRADOOP_CANCELLATION_BUDGET", "0.05", 1);
    CypherEngine engine(LdbcGraph());
    auto result = engine.Execute(ldbc::Query1("Alice"));
    if (!result.ok() || result.value().physical == nullptr) return;
    dataflow::ExecutionContext& ctx = *engine.graph().vertices().context();
    CancellationToken& token = ctx.cancellation();
    token.Reset();
    // Seeded fixture: a kernel loop that runs a whole stage past an
    // already-expired deadline without ever polling. The trip backdates
    // to the deadline, so the overrun lands squarely on the audit's
    // latency budget.
    token.SetDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(200));
    volatile uint64_t sink = 0;
    const std::vector<uint64_t> src(4096, 7);
    for (uint64_t v : src) sink = sink + v;  // no CheckCancelled anywhere
    token.CancelledOrExpired();  // the next boundary finally notices
    exec::AuditCancelledQuery(*result.value().physical, ctx);
  };
  EXPECT_DEATH(run(), "cancellation audit FAILED");
}

TEST(CancellationAuditDeathTest, CatchesExcessPollsAfterTheTrip) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = [] {
    CypherEngine engine(LdbcGraph());
    auto result = engine.Execute(ldbc::Query1("Alice"));
    if (!result.ok() || result.value().physical == nullptr) return;
    dataflow::ExecutionContext& ctx = *engine.graph().vertices().context();
    CancellationToken& token = ctx.cancellation();
    token.Reset();
    token.InjectCancelAfter(1);
    // A loop that keeps polling (and working) long after the trip blows
    // the allowance implied by the root's claimed poll interval.
    for (int i = 0; i < 200000; ++i) token.CheckCancelled();
    exec::AuditCancelledQuery(*result.value().physical, ctx);
  };
  EXPECT_DEATH(run(), "cancellation audit FAILED");
}

// --- query log sink ----------------------------------------------------

TEST(QueryLogSetPathTest, UnwritablePathReturnsStatus) {
  telemetry::QueryLog log;
  const Status bad = log.SetPath("/nonexistent-dir/deeper/query_log.jsonl");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("/nonexistent-dir/deeper/query_log.jsonl"),
            std::string::npos)
      << bad.message();
  // An empty path (close the sink) and a writable path both succeed.
  EXPECT_TRUE(log.SetPath("").ok());
  const std::string path =
      ::testing::TempDir() + "/cancellation_test_query_log.jsonl";
  EXPECT_TRUE(log.SetPath(path).ok());
  EXPECT_TRUE(log.SetPath("").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gradoop::query

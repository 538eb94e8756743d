// Golden tests for EXPLAIN / EXPLAIN ANALYZE: pins the compiled operator
// trees and the actual per-operator cardinalities for the six LDBC
// queries at scale factor 0.05 (generator seed 42, so fully
// deterministic). When a planner or compiler change legitimately alters
// a tree, re-capture with:
//
//   GRADOOP_PRINT_GOLDEN=1 ./explain_analyze_test
//
// and paste the printed blocks below. The EXPLAIN goldens of the same
// queries under the batch engine and without broadcast joins re-capture
// the same way.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/cypher_engine.h"

namespace gradoop::query {
namespace {

struct GoldenCase {
  const char* label;
  std::string query;
  std::string golden;  // ToString with actuals, without timing
};

epgm::LogicalGraph LdbcGraph() {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  return ldbc::LdbcGenerator(cfg).Generate(dataflow::MakeContext());
}

// Deterministic EXPLAIN ANALYZE rendering: actual cardinalities on,
// wall-clock/shuffle figures off.
std::string AnalyzeDeterministic(CypherEngine& engine, const std::string& q) {
  auto result = engine.Execute(q);
  EXPECT_TRUE(result.ok()) << q << " -> " << result.status();
  if (!result.ok() || result.value().physical == nullptr) return "";
  exec::PhysicalOperator::RenderOptions options;
  options.actuals = true;
  options.timing = false;
  return result.value().physical->ToString(options);
}

std::vector<GoldenCase>& Cases();
std::vector<GoldenCase>& BatchEngineExplainCases();
std::vector<GoldenCase>& NoBroadcastExplainCases();

// EXPLAIN (no execution) under `options` must match each case's golden
// byte for byte.
void ExpectExplainGoldens(const PlannerOptions& options,
                          std::vector<GoldenCase>& cases) {
  CypherEngine engine(LdbcGraph(), options);
  const bool print = std::getenv("GRADOOP_PRINT_GOLDEN") != nullptr;
  for (GoldenCase& c : cases) {
    auto explain = engine.Explain(c.query);
    ASSERT_TRUE(explain.ok()) << c.label << " -> " << explain.status();
    if (print) {
      printf("--- %s ---\n%s", c.label, explain.value().c_str());
      continue;
    }
    EXPECT_EQ(explain.value(), c.golden) << c.label;
  }
}

TEST(ExplainAnalyzeTest, GoldenTreesForSixLdbcQueries) {
  CypherEngine engine(LdbcGraph());
  const bool print = std::getenv("GRADOOP_PRINT_GOLDEN") != nullptr;
  for (GoldenCase& c : Cases()) {
    const std::string actual = AnalyzeDeterministic(engine, c.query);
    if (print) {
      printf("--- %s ---\n%s", c.label, actual.c_str());
      continue;
    }
    EXPECT_EQ(actual, c.golden) << c.label;
  }
}

TEST(ExplainAnalyzeTest, ExplainMatchesAnalyzeTreeShape) {
  // EXPLAIN (no execution) renders the same operators in the same order
  // as EXPLAIN ANALYZE; only the rows= annotations differ.
  CypherEngine engine(LdbcGraph());
  for (GoldenCase& c : Cases()) {
    auto explain = engine.Explain(c.query);
    ASSERT_TRUE(explain.ok()) << c.label << " -> " << explain.status();
    // Remove the execution-only annotations (" rows=", " qerror=",
    // " sel=") and the "/<actual>B" halves of the mem= annotations to
    // recover the EXPLAIN rendering.
    std::string stripped = AnalyzeDeterministic(engine, c.query);
    const std::string& expected = explain.value();
    for (const char* key : {" rows=", " qerror=", " sel="}) {
      const size_t key_len = std::strlen(key);
      size_t pos;
      while ((pos = stripped.find(key)) != std::string::npos) {
        size_t end = pos + key_len;
        while (end < stripped.size() && stripped[end] != ' ' &&
               stripped[end] != '\n') {
          ++end;
        }
        stripped.erase(pos, end - pos);
      }
    }
    size_t mem = 0;
    while ((mem = stripped.find("mem=", mem)) != std::string::npos) {
      size_t end = mem + 4;
      while (end < stripped.size() && stripped[end] != ' ' &&
             stripped[end] != '\n') {
        ++end;
      }
      const size_t slash = stripped.find('/', mem);
      if (slash != std::string::npos && slash < end) {
        stripped.erase(slash, end - slash);
      }
      mem += 4;
    }
    EXPECT_EQ(stripped, expected) << c.label;
  }
}

// Under the batch engine every operator line carries batch=<n>.
TEST(ExplainAnalyzeTest, ExplainGoldensUnderBatchEngine) {
  PlannerOptions options;
  options.engine = PlannerOptions::ExecutionEngine::kBatch;
  ExpectExplainGoldens(options, BatchEngineExplainCases());
}

// Without broadcast joins every join repartitions, and the sides the
// partitioning analysis proves co-partitioned render shuffle=elided.
TEST(ExplainAnalyzeTest, ExplainGoldensWithoutBroadcast) {
  PlannerOptions options;
  options.allow_broadcast = false;
  ExpectExplainGoldens(options, NoBroadcastExplainCases());
}

TEST(ExplainAnalyzeTest, ExplainAnalyzeReportsEstimatesAndActuals) {
  CypherEngine engine(LdbcGraph());
  auto rendered = engine.ExplainAnalyze(ldbc::Query1("Alice"));
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  // Estimated (~) and actual (rows=) cardinalities per operator, plus
  // the timing annotations only ANALYZE carries.
  EXPECT_NE(rendered.value().find("~"), std::string::npos);
  EXPECT_NE(rendered.value().find("rows="), std::string::npos);
  EXPECT_NE(rendered.value().find("qerror="), std::string::npos);
  EXPECT_NE(rendered.value().find("sel="), std::string::npos);
  EXPECT_NE(rendered.value().find("self="), std::string::npos);
  EXPECT_NE(rendered.value().find("total="), std::string::npos);
}

TEST(ExplainAnalyzeTest, UnsatisfiableQueryShortCircuits) {
  CypherEngine engine(LdbcGraph());
  auto rendered = engine.ExplainAnalyze(
      "MATCH (p:Person) WHERE p.firstName = 'x' AND p.firstName = 'y' "
      "RETURN *");
  ASSERT_TRUE(rendered.ok()) << rendered.status();
  EXPECT_NE(rendered.value().find("EmptyResult"), std::string::npos);
}

std::vector<GoldenCase>& Cases() {
  static std::vector<GoldenCase> cases = {
      {"ldbc_q1", ldbc::Query1("Alice"),
       R"(JoinEmbeddings(on message, broadcast) ~35 mem=119315B/95251B rows=35 qerror=1.00 sel=0.05
  ScanVertices(message:Comment|Post) ~700 mem=48300B/36680B rows=700 qerror=1.00 sel=1.00
  JoinEmbeddings(on person, broadcast) ~35 mem=58190B/58571B rows=35 qerror=1.00 sel=0.05
    ScanEdges(  __e0:hasCreator) ~700 mem=27300B/27300B rows=700 qerror=1.00 sel=1.00
    ScanVertices(person:Person) ~5 mem=105B/231B rows=11 qerror=2.20 sel=1.00
)"},
      {"ldbc_q2", ldbc::Query2("Alice"),
       R"(JoinEmbeddings(on post, broadcast) ~385 mem=420450B/169062B rows=35 qerror=11.00 sel=0.10
  ExpandEmbeddings(  __e1*0..10) ~385 mem=209420B/95251B rows=68 qerror=5.66 sel=1.94
    JoinEmbeddings(on message, broadcast) ~35 mem=119315B/95251B rows=35 qerror=1.00 sel=0.05
      ScanVertices(message:Comment|Post) ~700 mem=48300B/36680B rows=700 qerror=1.00 sel=1.00
      JoinEmbeddings(on person, broadcast) ~35 mem=58190B/58571B rows=35 qerror=1.00 sel=0.05
        ScanEdges(  __e0:hasCreator) ~700 mem=27300B/27300B rows=700 qerror=1.00 sel=1.00
        ScanVertices(person:Person) ~5 mem=105B/231B rows=11 qerror=2.20 sel=1.00
  ScanVertices(post:Post) ~300 mem=20700B/15190B rows=300 qerror=1.00 sel=1.00
)"},
      {"ldbc_q3", ldbc::Query3("Alice"),
       R"(JoinEmbeddings(on post, broadcast) ~23 mem=395516B/558292B rows=15 qerror=1.54 sel=0.05
  ScanVertices(post:Post) ~300 mem=13500B/11290B rows=300 qerror=1.00 sel=1.00
  ExpandEmbeddings(  __e2*1..10) ~23 mem=382016B/547002B rows=23 qerror=1.00 sel=0.02
    JoinEmbeddings(on p1, broadcast) ~691 mem=341466B/547002B rows=1178 qerror=1.71 sel=1.04
      ScanEdges(  __e3:hasCreator) ~700 mem=27300B/27300B rows=700 qerror=1.00 sel=1.00
      JoinEmbeddings(on comment, broadcast) ~99 mem=167775B/519702B rows=428 qerror=4.34 sel=0.46
        ScanVertices(comment:Comment) ~400 mem=8400B/8400B rows=400 qerror=1.00 sel=1.00
        JoinEmbeddings(on p2, broadcast) ~99 mem=90030B/105602B rows=522 qerror=5.29 sel=0.71
          ScanEdges(  __e1:hasCreator) ~700 mem=27300B/27300B rows=700 qerror=1.00 sel=1.00
          JoinEmbeddings(on p2, broadcast) ~14 mem=33686B/34798B rows=39 qerror=2.77 sel=0.28
            ScanVertices(p2:Person) ~100 mem=6900B/4922B rows=100 qerror=1.00 sel=1.00
            JoinEmbeddings(on p1, broadcast) ~14 mem=26786B/27557B rows=39 qerror=2.77 sel=0.13
              ScanEdges(  __e0:knows) ~282 mem=10998B/10998B rows=282 qerror=1.00 sel=1.00
              ScanVertices(p1:Person) ~5 mem=345B/549B rows=11 qerror=2.20 sel=1.00
)"},
      {"ldbc_q4", ldbc::Query4(),
       R"(JoinEmbeddings(on tag, broadcast) ~199 mem=224800B/116814B rows=156 qerror=1.28 sel=0.61
  JoinEmbeddings(on person, broadcast) ~199 mem=166564B/82120B rows=156 qerror=1.28 sel=0.31
    ScanEdges(  __e1:hasInterest) ~463 mem=18057B/18057B rows=463 qerror=1.00 sel=1.00
    JoinEmbeddings(on uni, broadcast) ~43 mem=75220B/50110B rows=36 qerror=1.19 sel=0.64
      JoinEmbeddings(on person, broadcast) ~43 mem=75220B/50110B rows=36 qerror=1.19 sel=0.30
        ScanEdges(  __e2:studyAt) ~79 mem=3081B/3081B rows=79 qerror=1.00 sel=1.00
        JoinEmbeddings(on city, broadcast) ~43 mem=63883B/42474B rows=43 qerror=1.00 sel=0.46
          ScanVertices(city:City) ~50 mem=2250B/1841B rows=50 qerror=1.00 sel=1.00
          JoinEmbeddings(on person, broadcast) ~43 mem=58798B/40633B rows=43 qerror=1.00 sel=0.30
            ScanEdges(  __e0:isLocatedIn) ~100 mem=3900B/3900B rows=100 qerror=1.00 sel=1.00
            JoinEmbeddings(on forum, broadcast) ~43 mem=38998B/29237B rows=43 qerror=1.00 sel=0.90
              JoinEmbeddings(on person, broadcast) ~43 mem=38998B/29237B rows=43 qerror=1.00 sel=0.30
                ScanVertices(person:Person) ~100 mem=6900B/4922B rows=100 qerror=1.00 sel=1.00
                ScanEdges(  __e3:hasMember|hasModerator) ~43 mem=1677B/1677B rows=43 qerror=1.00 sel=1.00
              ScanVertices(forum:Forum) ~5 mem=225B/185B rows=5 qerror=1.00 sel=1.00
      ScanVertices(uni:University) ~20 mem=900B/716B rows=20 qerror=1.00 sel=1.00
  ScanVertices(tag:Tag) ~100 mem=4500B/3780B rows=100 qerror=1.00 sel=1.00
)"},
      {"ldbc_q5", ldbc::Query5(),
       R"(JoinEmbeddings(on p1,p3, broadcast) ~22 mem=527256B/430400B rows=164 qerror=7.31 sel=0.14
  JoinEmbeddings(on p2, broadcast) ~795 mem=432048B/223700B rows=886 qerror=1.11 sel=1.57
    JoinEmbeddings(on p1, broadcast) ~282 mem=116068B/72206B rows=282 qerror=1.00 sel=0.74
      ScanEdges(  __e0:knows) ~282 mem=10998B/10998B rows=282 qerror=1.00 sel=1.00
      ScanVertices(p1:Person) ~100 mem=6900B/4922B rows=100 qerror=1.00 sel=1.00
    JoinEmbeddings(on p2, broadcast) ~282 mem=116068B/72206B rows=282 qerror=1.00 sel=0.74
      ScanEdges(  __e1:knows) ~282 mem=10998B/10998B rows=282 qerror=1.00 sel=1.00
      ScanVertices(p2:Person) ~100 mem=6900B/4922B rows=100 qerror=1.00 sel=1.00
  JoinEmbeddings(on p3, broadcast) ~282 mem=116068B/72206B rows=282 qerror=1.00 sel=0.74
    ScanEdges(  __e2:knows) ~282 mem=10998B/10998B rows=282 qerror=1.00 sel=1.00
    ScanVertices(p3:Person) ~100 mem=6900B/4922B rows=100 qerror=1.00 sel=1.00
)"},
      {"ldbc_q6", ldbc::Query6(),
       R"(JoinEmbeddings(on p2, broadcast) ~280 mem=640240B/543972B rows=1354 qerror=4.84 sel=1.79
  JoinEmbeddings(on t2, broadcast) ~463 mem=122050B/80614B rows=463 qerror=1.00 sel=0.82
    ScanEdges(  __e3:hasInterest) ~463 mem=18057B/18057B rows=463 qerror=1.00 sel=1.00
    ScanVertices(t2:Tag) ~100 mem=4500B/3780B rows=100 qerror=1.00 sel=1.00
  JoinEmbeddings(on p1,t1, broadcast) ~60 mem=606904B/513962B rows=293 qerror=4.85 sel=0.17
    JoinEmbeddings(on p2, broadcast) ~1306 mem=458358B/229216B rows=1261 qerror=1.04 sel=1.69
      ScanEdges(  __e2:hasInterest) ~463 mem=18057B/18057B rows=463 qerror=1.00 sel=1.00
      JoinEmbeddings(on p2, broadcast) ~282 mem=121954B/79388B rows=282 qerror=1.00 sel=0.74
        JoinEmbeddings(on p1, broadcast) ~282 mem=116068B/72206B rows=282 qerror=1.00 sel=0.74
          ScanEdges(  __e0:knows) ~282 mem=10998B/10998B rows=282 qerror=1.00 sel=1.00
          ScanVertices(p1:Person) ~100 mem=6900B/4922B rows=100 qerror=1.00 sel=1.00
        ScanVertices(p2:Person) ~100 mem=2100B/2100B rows=100 qerror=1.00 sel=1.00
    JoinEmbeddings(on t1, broadcast) ~463 mem=96538B/72214B rows=463 qerror=1.00 sel=0.82
      ScanEdges(  __e1:hasInterest) ~463 mem=18057B/18057B rows=463 qerror=1.00 sel=1.00
      ScanVertices(t1:Tag) ~100 mem=2100B/2100B rows=100 qerror=1.00 sel=1.00
)"},
  };
  return cases;
}

std::vector<GoldenCase>& BatchEngineExplainCases() {
  static std::vector<GoldenCase> cases = {
      {"ldbc_q1", ldbc::Query1("Alice"),
       R"(JoinEmbeddings(on message, broadcast) ~35 mem=119315B batch=1024
  ScanVertices(message:Comment|Post) ~700 mem=48300B batch=1024
  JoinEmbeddings(on person, broadcast) ~35 mem=58190B batch=1024
    ScanEdges(  __e0:hasCreator) ~700 mem=27300B batch=1024
    ScanVertices(person:Person) ~5 mem=105B batch=1024
)"},
      {"ldbc_q2", ldbc::Query2("Alice"),
       R"(JoinEmbeddings(on post, broadcast) ~385 mem=420450B batch=1024
  ExpandEmbeddings(  __e1*0..10) ~385 mem=209420B batch=1024
    JoinEmbeddings(on message, broadcast) ~35 mem=119315B batch=1024
      ScanVertices(message:Comment|Post) ~700 mem=48300B batch=1024
      JoinEmbeddings(on person, broadcast) ~35 mem=58190B batch=1024
        ScanEdges(  __e0:hasCreator) ~700 mem=27300B batch=1024
        ScanVertices(person:Person) ~5 mem=105B batch=1024
  ScanVertices(post:Post) ~300 mem=20700B batch=1024
)"},
      {"ldbc_q3", ldbc::Query3("Alice"),
       R"(JoinEmbeddings(on post, broadcast) ~23 mem=395516B batch=1024
  ScanVertices(post:Post) ~300 mem=13500B batch=1024
  ExpandEmbeddings(  __e2*1..10) ~23 mem=382016B batch=1024
    JoinEmbeddings(on p1, broadcast) ~691 mem=341466B batch=1024
      ScanEdges(  __e3:hasCreator) ~700 mem=27300B batch=1024
      JoinEmbeddings(on comment, broadcast) ~99 mem=167775B batch=1024
        ScanVertices(comment:Comment) ~400 mem=8400B batch=1024
        JoinEmbeddings(on p2, broadcast) ~99 mem=90030B batch=1024
          ScanEdges(  __e1:hasCreator) ~700 mem=27300B batch=1024
          JoinEmbeddings(on p2, broadcast) ~14 mem=33686B batch=1024
            ScanVertices(p2:Person) ~100 mem=6900B batch=1024
            JoinEmbeddings(on p1, broadcast) ~14 mem=26786B batch=1024
              ScanEdges(  __e0:knows) ~282 mem=10998B batch=1024
              ScanVertices(p1:Person) ~5 mem=345B batch=1024
)"},
      {"ldbc_q4", ldbc::Query4(),
       R"(JoinEmbeddings(on tag, broadcast) ~199 mem=224800B batch=1024
  JoinEmbeddings(on person, broadcast) ~199 mem=166564B batch=1024
    ScanEdges(  __e1:hasInterest) ~463 mem=18057B batch=1024
    JoinEmbeddings(on uni, broadcast) ~43 mem=75220B batch=1024
      JoinEmbeddings(on person, broadcast) ~43 mem=75220B batch=1024
        ScanEdges(  __e2:studyAt) ~79 mem=3081B batch=1024
        JoinEmbeddings(on city, broadcast) ~43 mem=63883B batch=1024
          ScanVertices(city:City) ~50 mem=2250B batch=1024
          JoinEmbeddings(on person, broadcast) ~43 mem=58798B batch=1024
            ScanEdges(  __e0:isLocatedIn) ~100 mem=3900B batch=1024
            JoinEmbeddings(on forum, broadcast) ~43 mem=38998B batch=1024
              JoinEmbeddings(on person, broadcast) ~43 mem=38998B batch=1024
                ScanVertices(person:Person) ~100 mem=6900B batch=1024
                ScanEdges(  __e3:hasMember|hasModerator) ~43 mem=1677B batch=1024
              ScanVertices(forum:Forum) ~5 mem=225B batch=1024
      ScanVertices(uni:University) ~20 mem=900B batch=1024
  ScanVertices(tag:Tag) ~100 mem=4500B batch=1024
)"},
      {"ldbc_q5", ldbc::Query5(),
       R"(JoinEmbeddings(on p1,p3, broadcast) ~22 mem=527256B batch=1024
  JoinEmbeddings(on p2, broadcast) ~795 mem=432048B batch=1024
    JoinEmbeddings(on p1, broadcast) ~282 mem=116068B batch=1024
      ScanEdges(  __e0:knows) ~282 mem=10998B batch=1024
      ScanVertices(p1:Person) ~100 mem=6900B batch=1024
    JoinEmbeddings(on p2, broadcast) ~282 mem=116068B batch=1024
      ScanEdges(  __e1:knows) ~282 mem=10998B batch=1024
      ScanVertices(p2:Person) ~100 mem=6900B batch=1024
  JoinEmbeddings(on p3, broadcast) ~282 mem=116068B batch=1024
    ScanEdges(  __e2:knows) ~282 mem=10998B batch=1024
    ScanVertices(p3:Person) ~100 mem=6900B batch=1024
)"},
      {"ldbc_q6", ldbc::Query6(),
       R"(JoinEmbeddings(on p2, broadcast) ~280 mem=640240B batch=1024
  JoinEmbeddings(on t2, broadcast) ~463 mem=122050B batch=1024
    ScanEdges(  __e3:hasInterest) ~463 mem=18057B batch=1024
    ScanVertices(t2:Tag) ~100 mem=4500B batch=1024
  JoinEmbeddings(on p1,t1, broadcast) ~60 mem=606904B batch=1024
    JoinEmbeddings(on p2, broadcast) ~1306 mem=458358B batch=1024
      ScanEdges(  __e2:hasInterest) ~463 mem=18057B batch=1024
      JoinEmbeddings(on p2, broadcast) ~282 mem=121954B batch=1024
        JoinEmbeddings(on p1, broadcast) ~282 mem=116068B batch=1024
          ScanEdges(  __e0:knows) ~282 mem=10998B batch=1024
          ScanVertices(p1:Person) ~100 mem=6900B batch=1024
        ScanVertices(p2:Person) ~100 mem=2100B batch=1024
    JoinEmbeddings(on t1, broadcast) ~463 mem=96538B batch=1024
      ScanEdges(  __e1:hasInterest) ~463 mem=18057B batch=1024
      ScanVertices(t1:Tag) ~100 mem=2100B batch=1024
)"},
  };
  return cases;
}

std::vector<GoldenCase>& NoBroadcastExplainCases() {
  static std::vector<GoldenCase> cases = {
      {"ldbc_q1", ldbc::Query1("Alice"),
       R"(JoinEmbeddings(on message, repartition) ~35 mem=105875B
  ScanVertices(message:Comment|Post) ~700 mem=48300B
  JoinEmbeddings(on person, repartition) ~35 mem=56810B
    ScanEdges(  __e0:hasCreator) ~700 mem=27300B
    ScanVertices(person:Person) ~5 mem=105B
)"},
      {"ldbc_q2", ldbc::Query2("Alice"),
       R"(JoinEmbeddings(on post, repartition) ~385 mem=280050B
  ExpandEmbeddings(  __e1*0..10) ~385 mem=209420B
    JoinEmbeddings(on message, repartition) ~35 mem=105875B
      ScanVertices(message:Comment|Post) ~700 mem=48300B
      JoinEmbeddings(on person, repartition) ~35 mem=56810B
        ScanEdges(  __e0:hasCreator) ~700 mem=27300B
        ScanVertices(person:Person) ~5 mem=105B
  ScanVertices(post:Post) ~300 mem=20700B
)"},
      {"ldbc_q3", ldbc::Query3("Alice"),
       R"(JoinEmbeddings(on post, repartition) ~23 mem=395516B
  ScanVertices(post:Post) ~300 mem=13500B
  ExpandEmbeddings(  __e2*1..10) ~23 mem=382016B
    JoinEmbeddings(on p1, repartition) ~691 mem=247614B
      ScanEdges(  __e3:hasCreator) ~700 mem=27300B
      JoinEmbeddings(on comment, repartition) ~99 mem=86370B
        ScanVertices(comment:Comment) ~400 mem=8400B
        JoinEmbeddings(on p2, repartition, right shuffle=elided (co-partitioned on p2)) ~99 mem=77970B
          ScanEdges(  __e1:hasCreator) ~700 mem=27300B
          JoinEmbeddings(on p2, repartition) ~14 mem=31346B
            ScanVertices(p2:Person) ~100 mem=6900B
            JoinEmbeddings(on p1, repartition) ~14 mem=24446B
              ScanEdges(  __e0:knows) ~282 mem=10998B
              ScanVertices(p1:Person) ~5 mem=345B
)"},
      {"ldbc_q4", ldbc::Query4(),
       R"(JoinEmbeddings(on tag, repartition) ~199 mem=187600B
  JoinEmbeddings(on person, repartition) ~199 mem=115480B
    ScanEdges(  __e1:hasInterest) ~463 mem=18057B
    JoinEmbeddings(on forum, repartition) ~43 mem=33265B
      JoinEmbeddings(on uni, repartition) ~43 mem=33265B
        JoinEmbeddings(on city, repartition) ~43 mem=33265B
          ScanVertices(city:City) ~50 mem=2250B
          JoinEmbeddings(on person, repartition, right shuffle=elided (co-partitioned on person)) ~43 mem=31015B
            ScanEdges(  __e2:studyAt) ~79 mem=3081B
            JoinEmbeddings(on person, repartition, right shuffle=elided (co-partitioned on person)) ~43 mem=27934B
              ScanEdges(  __e0:isLocatedIn) ~100 mem=3900B
              JoinEmbeddings(on person, repartition) ~43 mem=24034B
                ScanVertices(person:Person) ~100 mem=6900B
                ScanEdges(  __e3:hasMember|hasModerator) ~43 mem=1677B
        ScanVertices(uni:University) ~20 mem=900B
      ScanVertices(forum:Forum) ~5 mem=225B
  ScanVertices(tag:Tag) ~100 mem=4500B
)"},
      {"ldbc_q5", ldbc::Query5(),
       R"(JoinEmbeddings(on p1,p3, repartition) ~22 mem=364824B
  JoinEmbeddings(on p2, repartition, right shuffle=elided (co-partitioned on p2)) ~795 mem=269616B
    JoinEmbeddings(on p1, repartition) ~282 mem=69268B
      ScanEdges(  __e0:knows) ~282 mem=10998B
      ScanVertices(p1:Person) ~100 mem=6900B
    JoinEmbeddings(on p2, repartition) ~282 mem=69268B
      ScanEdges(  __e1:knows) ~282 mem=10998B
      ScanVertices(p2:Person) ~100 mem=6900B
  JoinEmbeddings(on p3, repartition) ~282 mem=69268B
    ScanEdges(  __e2:knows) ~282 mem=10998B
    ScanVertices(p3:Person) ~100 mem=6900B
)"},
      {"ldbc_q6", ldbc::Query6(),
       R"(JoinEmbeddings(on p2, repartition) ~280 mem=462448B
  JoinEmbeddings(on t2, repartition) ~463 mem=84850B
    ScanEdges(  __e3:hasInterest) ~463 mem=18057B
    ScanVertices(t2:Tag) ~100 mem=4500B
  JoinEmbeddings(on p1,t1, repartition) ~60 mem=429112B
    JoinEmbeddings(on p2, repartition, right shuffle=elided (co-partitioned on p2)) ~1306 mem=285774B
      ScanEdges(  __e2:hasInterest) ~463 mem=18057B
      JoinEmbeddings(on p2, repartition) ~282 mem=94354B
        JoinEmbeddings(on p1, repartition) ~282 mem=69268B
          ScanEdges(  __e0:knows) ~282 mem=10998B
          ScanVertices(p1:Person) ~100 mem=6900B
        ScanVertices(p2:Person) ~100 mem=2100B
    JoinEmbeddings(on t1, repartition) ~463 mem=68938B
      ScanEdges(  __e1:hasInterest) ~463 mem=18057B
      ScanVertices(t1:Tag) ~100 mem=2100B
)"},
  };
  return cases;
}

}  // namespace
}  // namespace gradoop::query

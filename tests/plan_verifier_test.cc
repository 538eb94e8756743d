#include "analysis/plan_verifier.h"

#include <gtest/gtest.h>

#include <string>

#include "analysis/type_check.h"
#include "cypher/parser.h"
#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/cypher_engine.h"
#include "query/exec/plan_compiler.h"
#include "query/operators.h"
#include "query/planner.h"

namespace gradoop::analysis {
namespace {

using cypher::Expression;
using cypher::QueryGraph;
using query::PlanNode;
using query::PlanNodePtr;

QueryGraph QG(const std::string& text) {
  auto ast = cypher::ParseCypher(text);
  EXPECT_TRUE(ast.ok()) << ast.status();
  auto qg = QueryGraph::Build(ast.value());
  EXPECT_TRUE(qg.ok()) << qg.status();
  return std::move(qg).value();
}

query::GraphStatistics LdbcStats() {
  ldbc::LdbcConfig cfg;
  cfg.scale_factor = 0.05;
  auto graph = ldbc::LdbcGenerator(cfg).Generate(dataflow::MakeContext());
  return query::GraphStatistics::Compute(graph);
}

PlanNodePtr PlanFor(const QueryGraph& qg,
                    const query::PlannerOptions& options = {}) {
  auto plan = query::PlanQuery(qg, LdbcStats(), options);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return plan.value();
}

// First node of `kind` in preorder; the tests mutate it to corrupt a
// specific invariant.
PlanNodePtr FindNodePtr(const PlanNodePtr& plan, PlanNode::Kind kind) {
  if (plan == nullptr) return nullptr;
  if (plan->kind == kind) return plan;
  if (PlanNodePtr n = FindNodePtr(plan->left, kind)) return n;
  return FindNodePtr(plan->right, kind);
}

PlanNode* FindNode(const PlanNodePtr& plan, PlanNode::Kind kind) {
  return FindNodePtr(plan, kind).get();
}

// --- planner output is accepted --------------------------------------

TEST(PlanVerifierTest, AcceptsAllSixLdbcPlansInEveryPlannerMode) {
  auto stats = LdbcStats();
  for (const auto mode : {query::PlannerOptions::Mode::kGreedy,
                          query::PlannerOptions::Mode::kLeftDeep,
                          query::PlannerOptions::Mode::kDynamicProgramming}) {
    query::PlannerOptions options;
    options.mode = mode;
    for (const std::string& q :
         {ldbc::Query1("X"), ldbc::Query2("X"), ldbc::Query3("X"),
          ldbc::Query4(), ldbc::Query5(), ldbc::Query6()}) {
      auto qg = QG(q);
      auto plan = query::PlanQuery(qg, stats, options);
      ASSERT_TRUE(plan.ok()) << q << " -> " << plan.status();
      const Status s =
          VerifyPlan(qg, plan.value(), VerifyOptions::Exhaustive());
      EXPECT_TRUE(s.ok()) << q << " -> " << s;
    }
  }
}

TEST(PlanVerifierTest, AcceptsValueJoinPlans) {
  auto qg = QG(
      "MATCH (p:Person), (q:Person) WHERE p.firstName = q.lastName RETURN *");
  auto plan = PlanFor(qg);
  ASSERT_NE(FindNode(plan, PlanNode::Kind::kValueJoin), nullptr);
  EXPECT_TRUE(VerifyPlan(qg, plan, VerifyOptions::Exhaustive()).ok());
}

TEST(PlanVerifierTest, RejectsIllTypedScanPredicate) {
  // A single-variable clause executes inside the leaf scan and never
  // appears as a plan node; exhaustive verification must still type-check
  // it through the query graph.
  auto qg = QG("MATCH (a:Person) WHERE a.firstName < true RETURN *");
  query::PlannerOptions options;
  options.verify_candidates = false;  // reach VerifyPlan with a full plan
  auto plan = PlanFor(qg, options);
  EXPECT_TRUE(VerifyPlan(qg, plan, VerifyOptions::Cheap()).ok());
  const Status s = VerifyPlan(qg, plan, VerifyOptions::Exhaustive());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kPlanError);
  EXPECT_NE(s.message().find("cannot order"), std::string::npos) << s;
}

// --- one corrupted plan per invariant ---------------------------------

TEST(PlanVerifierTest, RejectsOutOfRangeVertexScanIndex) {
  auto qg = QG("MATCH (p:Person) RETURN *");
  auto plan = PlanFor(qg);
  PlanNode* scan = FindNode(plan, PlanNode::Kind::kScanVertices);
  ASSERT_NE(scan, nullptr);
  scan->element_index = 7;
  const Status s = VerifyCandidatePlan(qg, plan, VerifyOptions::Cheap());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("element_index 7"), std::string::npos) << s;
}

TEST(PlanVerifierTest, RejectsOutOfRangeExpandIndex) {
  auto qg = QG("MATCH (a:Person)-[e:knows*1..3]->(b:Person) RETURN *");
  auto plan = PlanFor(qg);
  PlanNode* expand = FindNode(plan, PlanNode::Kind::kExpand);
  ASSERT_NE(expand, nullptr);
  expand->element_index = 5;
  const Status s = VerifyCandidatePlan(qg, plan, VerifyOptions::Cheap());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("outside query edges"), std::string::npos) << s;
}

TEST(PlanVerifierTest, RejectsUnboundJoinVariable) {
  auto qg = QG("MATCH (p:Person)-[:knows]->(q:Person) RETURN *");
  auto plan = PlanFor(qg);
  PlanNode* join = FindNode(plan, PlanNode::Kind::kJoin);
  ASSERT_NE(join, nullptr);
  // {p, q} are query variables, but no join of this plan shares both
  // between its two inputs.
  join->join_variables.assign({"p", "q"});
  const Status s = VerifyCandidatePlan(qg, plan, VerifyOptions::Cheap());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("shared variables"), std::string::npos) << s;
}

TEST(PlanVerifierTest, RejectsDroppedJoinVariable) {
  auto qg = QG("MATCH (p:Person)-[:knows]->(q:Person) RETURN *");
  auto plan = PlanFor(qg);
  PlanNode* join = FindNode(plan, PlanNode::Kind::kJoin);
  ASSERT_NE(join, nullptr);
  // Forgetting the shared variable silently drops an id equality.
  join->join_variables.clear();
  EXPECT_FALSE(VerifyCandidatePlan(qg, plan, VerifyOptions::Cheap()).ok());
}

TEST(PlanVerifierTest, RejectsCorruptedBoundVariables) {
  auto qg = QG("MATCH (p:Person)-[:knows]->(q:Person) RETURN *");
  auto plan = PlanFor(qg);
  plan->bound_variables.insert("ghost");
  const Status s = VerifyCandidatePlan(qg, plan, VerifyOptions::Cheap());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("ghost"), std::string::npos) << s;
}

TEST(PlanVerifierTest, RejectsFilterOnUnboundVariable) {
  auto qg = QG(
      "MATCH (a:Person)-[:knows]->(b:Person) "
      "WHERE a.firstName <> b.firstName RETURN *");
  auto plan = PlanFor(qg);
  PlanNode* filter = FindNode(plan, PlanNode::Kind::kFilter);
  ASSERT_NE(filter, nullptr);
  // Push the cross filter below the join that binds `b`: find the scan of
  // `a` and hang the filter's clauses off a fresh filter node above it.
  PlanNode* scan = FindNode(plan, PlanNode::Kind::kScanVertices);
  ASSERT_NE(scan, nullptr);
  auto misplaced = std::make_shared<PlanNode>(*scan);
  auto wrapper = std::make_shared<PlanNode>();
  wrapper->kind = PlanNode::Kind::kFilter;
  wrapper->left = misplaced;
  wrapper->clauses = filter->clauses;
  wrapper->bound_variables = misplaced->bound_variables;
  wrapper->property_variables = misplaced->property_variables;
  wrapper->estimated_cardinality = misplaced->estimated_cardinality;
  const Status s =
      VerifyCandidatePlan(qg, wrapper, VerifyOptions::Cheap());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unbound variable"), std::string::npos) << s;
}

TEST(PlanVerifierTest, RejectsIllTypedPredicate) {
  auto qg = QG("MATCH (p:Person) WHERE p.firstName = 'X' RETURN *");
  auto plan = PlanFor(qg);
  // Wrap the plan in a filter whose clause cannot type: ordering an
  // integer against a string is statically never satisfiable.
  auto filter = std::make_shared<PlanNode>();
  filter->kind = PlanNode::Kind::kFilter;
  filter->left = plan;
  filter->bound_variables = plan->bound_variables;
  filter->property_variables = plan->property_variables;
  filter->estimated_cardinality = plan->estimated_cardinality;
  cypher::CnfClause clause;
  clause.atoms.push_back(Expression::Comparison(
      cypher::ComparisonOp::kLt,
      Expression::Literal(epgm::PropertyValue(int64_t{1})),
      Expression::Literal(epgm::PropertyValue("a"))));
  filter->clauses.push_back(clause);
  const Status s =
      VerifyCandidatePlan(qg, filter, VerifyOptions::Exhaustive());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kPlanError);
  EXPECT_NE(s.message().find("ill-typed"), std::string::npos) << s;
}

TEST(PlanVerifierTest, RejectsIncompletePlanOnlyAtTheRoot) {
  auto qg = QG("MATCH (p:Person)-[:knows]->(q:Person) RETURN *");
  auto plan = PlanFor(qg);
  // A lone scan is a fine candidate but not a complete plan: it leaves
  // the edge and the other vertex unbound.
  PlanNodePtr scan = FindNodePtr(plan, PlanNode::Kind::kScanVertices);
  ASSERT_NE(scan, nullptr);
  EXPECT_TRUE(
      VerifyCandidatePlan(qg, scan, VerifyOptions::Exhaustive()).ok());
  const Status s = VerifyPlan(qg, scan, VerifyOptions::Exhaustive());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unbound"), std::string::npos) << s;
}

// --- expression type checker ------------------------------------------

TEST(TypeCheckTest, AcceptsSchemaFreePropertyComparisons) {
  // A property access is statically unknown: everything may compare.
  auto cmp = Expression::Comparison(
      cypher::ComparisonOp::kLt, Expression::PropertyAccess("a", "x"),
      Expression::Literal(epgm::PropertyValue(int64_t{3})));
  auto t = CheckExpression(cmp);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t.value(), StaticType::kBoolean);
}

TEST(TypeCheckTest, AcceptsNullOperands) {
  auto cmp = Expression::Comparison(
      cypher::ComparisonOp::kEq, Expression::Literal(epgm::PropertyValue()),
      Expression::Literal(epgm::PropertyValue("a")));
  EXPECT_TRUE(CheckExpression(cmp).ok());
}

TEST(TypeCheckTest, RejectsOrderingMismatchedLiteralTypes) {
  auto cmp = Expression::Comparison(
      cypher::ComparisonOp::kGte,
      Expression::Literal(epgm::PropertyValue(int64_t{1})),
      Expression::Literal(epgm::PropertyValue("a")));
  const auto t = CheckExpression(cmp);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kPlanError);
  EXPECT_NE(t.status().message().find("cannot order"), std::string::npos);
}

TEST(TypeCheckTest, RejectsOrderingBooleans) {
  auto cmp = Expression::Comparison(
      cypher::ComparisonOp::kLt,
      Expression::Literal(epgm::PropertyValue(true)),
      Expression::Literal(epgm::PropertyValue(false)));
  EXPECT_FALSE(CheckExpression(cmp).ok());
}

TEST(TypeCheckTest, RejectsOrderingAgainstBooleanWithUnknownSide) {
  // A property access is statically unknown, but nothing orders against a
  // boolean, so `a.x < true` is NULL for every value of a.x.
  auto cmp = Expression::Comparison(
      cypher::ComparisonOp::kLt, Expression::PropertyAccess("a", "x"),
      Expression::Literal(epgm::PropertyValue(true)));
  const auto t = CheckExpression(cmp);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("cannot order"), std::string::npos);
  // Equality stays legal: `a.x = true` has a well-defined runtime result.
  auto eq = Expression::Comparison(
      cypher::ComparisonOp::kEq, Expression::PropertyAccess("a", "x"),
      Expression::Literal(epgm::PropertyValue(true)));
  EXPECT_TRUE(CheckExpression(eq).ok());
}

TEST(TypeCheckTest, RejectsComparisonOfNonValueOperand) {
  // The evaluator asserts on this shape (EvaluateValue only handles
  // literals and property accesses); the checker must reject it first.
  auto inner = Expression::Comparison(
      cypher::ComparisonOp::kEq, Expression::PropertyAccess("a", "x"),
      Expression::Literal(epgm::PropertyValue(int64_t{1})));
  auto outer = Expression::Comparison(
      cypher::ComparisonOp::kEq, inner,
      Expression::Literal(epgm::PropertyValue(true)));
  const auto t = CheckExpression(outer);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("not a value"), std::string::npos);
}

TEST(TypeCheckTest, RejectsNonBooleanPredicatePosition) {
  // WHERE 42 — a bare non-boolean literal in predicate position.
  cypher::CnfClause clause;
  clause.atoms.push_back(
      Expression::Literal(epgm::PropertyValue(int64_t{42})));
  EXPECT_FALSE(CheckClause(clause).ok());
}

TEST(TypeCheckTest, AcceptsLogicalOverComparisons) {
  auto lhs = Expression::Comparison(
      cypher::ComparisonOp::kEq, Expression::PropertyAccess("a", "x"),
      Expression::Literal(epgm::PropertyValue(int64_t{1})));
  auto rhs = Expression::Comparison(
      cypher::ComparisonOp::kNeq, Expression::PropertyAccess("b", "y"),
      Expression::Literal(epgm::PropertyValue("z")));
  EXPECT_TRUE(CheckExpression(Expression::And(lhs, rhs)).ok());
  EXPECT_TRUE(CheckExpression(Expression::Not(lhs)).ok());
  // AND over a non-boolean operand is rejected.
  EXPECT_FALSE(
      CheckExpression(
          Expression::And(lhs,
                          Expression::Literal(epgm::PropertyValue(int64_t{1}))))
          .ok());
}

// --- compiled plan verification ---------------------------------------

TEST(VerifyCompiledPlanTest, AcceptsCompiledLdbcPlans) {
  auto stats = LdbcStats();
  for (const std::string& q :
       {ldbc::Query1("X"), ldbc::Query2("X"), ldbc::Query3("X"),
        ldbc::Query4(), ldbc::Query5(), ldbc::Query6()}) {
    auto qg = QG(q);
    auto plan = query::PlanQuery(qg, stats, {});
    ASSERT_TRUE(plan.ok()) << q << " -> " << plan.status();
    query::exec::PlanCompiler compiler(qg, query::MorphismSetting::Neo4j());
    auto physical = compiler.Compile(plan.value());
    ASSERT_TRUE(physical.ok()) << q << " -> " << physical.status();
    const Status s = VerifyCompiledPlan(qg, *physical.value());
    EXPECT_TRUE(s.ok()) << q << " -> " << s;
  }
}

TEST(VerifyCompiledPlanTest, RejectsVertexScanWithExtraIdColumn) {
  auto qg = QG("MATCH (a)-[e:knows]->(b) RETURN *");
  query::EmbeddingMetaData meta;
  meta.AddIdColumn("a", query::EntryType::kVertex);
  meta.AddIdColumn("b", query::EntryType::kVertex);
  query::exec::VertexScanOp scan(meta, 1.0, query::MorphismSetting::Neo4j(),
                                 {}, qg.vertices()[0], {});
  query::exec::DerivePlanProperties(scan, {});
  const Status s = VerifyCompiledPlan(qg, scan);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("one id column"), std::string::npos) << s;
}

TEST(VerifyCompiledPlanTest, RejectsJoinKeyColumnsDisagreeingWithChildren) {
  auto qg = QG("MATCH (a)-[e:knows]->(b) RETURN *");
  auto make_scan = [&](const std::string& var, int index) {
    query::EmbeddingMetaData meta;
    meta.AddIdColumn(var, query::EntryType::kVertex);
    return std::make_shared<query::exec::VertexScanOp>(
        std::move(meta), 1.0, query::MorphismSetting::Neo4j(),
        std::vector<cypher::CnfClause>{}, qg.vertices()[index],
        std::vector<cypher::CnfClause>{});
  };
  auto left = make_scan("a", 0);
  auto right = make_scan("a", 0);
  auto merged = query::EmbeddingMetaData::Merge(left->output_meta(),
                                                right->output_meta());
  // Key column 1 does not hold `a` on either side (both bind it at 0).
  query::exec::JoinOp join(merged, 1.0, query::MorphismSetting::Neo4j(), {},
                           left, right, {"a"}, {1}, {1},
                           dataflow::JoinStrategy::kRepartition);
  query::exec::DerivePlanProperties(join, {});
  const Status s = VerifyCompiledPlan(qg, join);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("key columns"), std::string::npos) << s;
}

TEST(VerifyCompiledPlanTest, RejectsFilterThatChangesLayout) {
  auto qg = QG("MATCH (a)-[e:knows]->(b) RETURN *");
  query::EmbeddingMetaData child_meta;
  child_meta.AddIdColumn("a", query::EntryType::kVertex);
  auto child = std::make_shared<query::exec::VertexScanOp>(
      child_meta, 1.0, query::MorphismSetting::Neo4j(),
      std::vector<cypher::CnfClause>{}, qg.vertices()[0],
      std::vector<cypher::CnfClause>{});
  query::EmbeddingMetaData widened = child_meta;
  widened.AddIdColumn("b", query::EntryType::kVertex);
  query::exec::FilterOp filter(widened, 1.0, query::MorphismSetting::Neo4j(),
                               child, {});
  query::exec::DerivePlanProperties(filter, {});
  const Status s = VerifyCompiledPlan(qg, filter);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("changed the column layout"), std::string::npos)
      << s;
}

}  // namespace
}  // namespace gradoop::analysis

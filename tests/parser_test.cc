#include <gtest/gtest.h>

#include "cypher/parser.h"

namespace gradoop::cypher {
namespace {

CypherQuery MustParse(const std::string& text) {
  auto q = ParseCypher(text);
  EXPECT_TRUE(q.ok()) << text << " -> " << q.status();
  return q.ok() ? std::move(q).value() : CypherQuery{};
}

TEST(ParserTest, MinimalQuery) {
  CypherQuery q = MustParse("MATCH (n) RETURN *");
  ASSERT_EQ(q.paths.size(), 1u);
  EXPECT_EQ(q.paths[0].start.variable, "n");
  EXPECT_TRUE(q.paths[0].start.labels.empty());
  EXPECT_TRUE(q.return_all);
  EXPECT_EQ(q.where, nullptr);
}

TEST(ParserTest, LabeledNode) {
  CypherQuery q = MustParse("MATCH (p:Person) RETURN *");
  EXPECT_EQ(q.paths[0].start.labels, (std::vector<std::string>{"Person"}));
}

TEST(ParserTest, LabelAlternation) {
  CypherQuery q = MustParse("MATCH (m:Comment|Post) RETURN *");
  EXPECT_EQ(q.paths[0].start.labels,
            (std::vector<std::string>{"Comment", "Post"}));
}

TEST(ParserTest, RepeatedLabelsKeepTheirFirstOccurrence) {
  CypherQuery q = MustParse(
      "MATCH (m:Post|Comment|Post)-[e:knows|likes|knows|knows]->(n:Post|Post) "
      "RETURN *");
  EXPECT_EQ(q.paths[0].start.labels,
            (std::vector<std::string>{"Post", "Comment"}));
  EXPECT_EQ(q.paths[0].steps[0].first.types,
            (std::vector<std::string>{"knows", "likes"}));
  EXPECT_EQ(q.paths[0].steps[0].second.labels,
            (std::vector<std::string>{"Post"}));
}

TEST(ParserTest, AnonymousNodeGetsFreshVariable) {
  CypherQuery q = MustParse("MATCH (:Person)-[:knows]->() RETURN *");
  EXPECT_FALSE(q.paths[0].start.variable.empty());
  EXPECT_FALSE(q.paths[0].steps[0].second.variable.empty());
  EXPECT_NE(q.paths[0].start.variable, q.paths[0].steps[0].second.variable);
}

TEST(ParserTest, OutgoingRelationship) {
  CypherQuery q = MustParse("MATCH (a)-[e:knows]->(b) RETURN *");
  ASSERT_EQ(q.paths[0].steps.size(), 1u);
  const RelationshipPattern& rel = q.paths[0].steps[0].first;
  EXPECT_EQ(rel.variable, "e");
  EXPECT_EQ(rel.types, (std::vector<std::string>{"knows"}));
  EXPECT_EQ(rel.direction, PatternDirection::kOutgoing);
  EXPECT_FALSE(rel.IsVariableLength());
}

TEST(ParserTest, IncomingRelationship) {
  CypherQuery q = MustParse("MATCH (p)<-[:hasCreator]-(m) RETURN *");
  EXPECT_EQ(q.paths[0].steps[0].first.direction, PatternDirection::kIncoming);
}

TEST(ParserTest, UndirectedRelationship) {
  CypherQuery q = MustParse("MATCH (a)-[e:knows]-(b) RETURN *");
  EXPECT_EQ(q.paths[0].steps[0].first.direction,
            PatternDirection::kUndirected);
}

TEST(ParserTest, BareArrowWithoutBrackets) {
  CypherQuery q = MustParse("MATCH (a)-->(b) RETURN *");
  const RelationshipPattern& rel = q.paths[0].steps[0].first;
  EXPECT_EQ(rel.direction, PatternDirection::kOutgoing);
  EXPECT_TRUE(rel.types.empty());
}

TEST(ParserTest, VariableLengthBounds) {
  CypherQuery q = MustParse("MATCH (a)-[e:knows*1..3]->(b) RETURN *");
  const RelationshipPattern& rel = q.paths[0].steps[0].first;
  EXPECT_TRUE(rel.IsVariableLength());
  EXPECT_EQ(rel.lower_bound, 1);
  EXPECT_EQ(rel.upper_bound, 3);
}

TEST(ParserTest, VariableLengthZeroLower) {
  CypherQuery q = MustParse("MATCH (a)-[:replyOf*0..10]->(b) RETURN *");
  EXPECT_EQ(q.paths[0].steps[0].first.lower_bound, 0);
  EXPECT_EQ(q.paths[0].steps[0].first.upper_bound, 10);
}

TEST(ParserTest, VariableLengthExact) {
  CypherQuery q = MustParse("MATCH (a)-[e*2]->(b) RETURN *");
  EXPECT_EQ(q.paths[0].steps[0].first.lower_bound, 2);
  EXPECT_EQ(q.paths[0].steps[0].first.upper_bound, 2);
}

TEST(ParserTest, VariableLengthUnbounded) {
  CypherQuery q = MustParse("MATCH (a)-[e*]->(b) RETURN *");
  EXPECT_EQ(q.paths[0].steps[0].first.lower_bound, 1);
  EXPECT_EQ(q.paths[0].steps[0].first.upper_bound,
            RelationshipPattern::kDefaultUpperBound);
}

TEST(ParserTest, PropertyMapOnNode) {
  CypherQuery q = MustParse("MATCH (p:Person {name: 'Alice', yob: 1984}) RETURN *");
  const NodePattern& node = q.paths[0].start;
  ASSERT_EQ(node.properties.size(), 2u);
  EXPECT_EQ(node.properties[0].first, "name");
  EXPECT_EQ(node.properties[0].second, epgm::PropertyValue("Alice"));
  EXPECT_EQ(node.properties[1].second, epgm::PropertyValue(int64_t{1984}));
}

TEST(ParserTest, PropertyMapOnRelationship) {
  CypherQuery q =
      MustParse("MATCH (a)-[e:studyAt {classYear: 2015}]->(b) RETURN *");
  ASSERT_EQ(q.paths[0].steps[0].first.properties.size(), 1u);
}

TEST(ParserTest, MultiplePaths) {
  CypherQuery q = MustParse(
      "MATCH (p1:Person)-[:knows]->(p2), (p2)<-[:hasCreator]-(c:Comment) "
      "RETURN *");
  EXPECT_EQ(q.paths.size(), 2u);
}

TEST(ParserTest, LongChain) {
  CypherQuery q =
      MustParse("MATCH (a)-[:x]->(b)<-[:y]-(c)-[:z]->(d) RETURN *");
  EXPECT_EQ(q.paths[0].steps.size(), 3u);
}

TEST(ParserTest, WhereComparisons) {
  CypherQuery q = MustParse(
      "MATCH (a)-[s]->(b) WHERE a.gender <> b.gender AND s.classYear > 2014 "
      "AND b.name = 'Uni Leipzig' RETURN *");
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->kind(), ExprKind::kAnd);
}

TEST(ParserTest, WherePrecedenceOrOverAnd) {
  // AND binds tighter than OR.
  CypherQuery q =
      MustParse("MATCH (a) WHERE a.x = 1 OR a.y = 2 AND a.z = 3 RETURN *");
  ASSERT_EQ(q.where->kind(), ExprKind::kOr);
  EXPECT_EQ(q.where->right()->kind(), ExprKind::kAnd);
}

TEST(ParserTest, WhereNotAndParens) {
  CypherQuery q = MustParse(
      "MATCH (a) WHERE NOT (a.x = 1 OR a.y = 2) RETURN *");
  EXPECT_EQ(q.where->kind(), ExprKind::kNot);
  EXPECT_EQ(q.where->left()->kind(), ExprKind::kOr);
}

TEST(ParserTest, WhereXor) {
  CypherQuery q = MustParse("MATCH (a) WHERE a.x = 1 XOR a.y = 2 RETURN *");
  EXPECT_EQ(q.where->kind(), ExprKind::kXor);
}

TEST(ParserTest, WhereLiteralKinds) {
  CypherQuery q = MustParse(
      "MATCH (a) WHERE a.b = true AND a.c = -5 AND a.d = 2.5 RETURN *");
  ASSERT_NE(q.where, nullptr);
}

TEST(ParserTest, ReturnItems) {
  CypherQuery q = MustParse(
      "MATCH (p:Person) RETURN p.name, p.gender AS g, p");
  EXPECT_FALSE(q.return_all);
  ASSERT_EQ(q.return_items.size(), 3u);
  EXPECT_EQ(q.return_items[0].variable, "p");
  EXPECT_EQ(q.return_items[0].property_key, "name");
  EXPECT_EQ(q.return_items[1].alias, "g");
  EXPECT_FALSE(q.return_items[2].IsPropertyAccess());
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  CypherQuery q = MustParse("match (n) where n.x = 1 return *");
  EXPECT_EQ(q.paths.size(), 1u);
  EXPECT_NE(q.where, nullptr);
}

TEST(ParserTest, PaperExampleParses) {
  CypherQuery q = MustParse(
      "MATCH (p1:Person)-[s:studyAt]->(u:University), "
      "(p2:Person)-[:studyAt]->(u), "
      "(p1)-[e:knows*1..3]->(p2) "
      "WHERE p1.gender <> p2.gender "
      "AND u.name = 'Uni Leipzig' "
      "AND s.classYear > 2014 "
      "RETURN *");
  EXPECT_EQ(q.paths.size(), 3u);
  EXPECT_TRUE(q.paths[2].steps[0].first.IsVariableLength());
}

// --- error cases ---------------------------------------------------------

TEST(ParserErrorTest, MissingMatch) {
  EXPECT_FALSE(ParseCypher("RETURN *").ok());
}

TEST(ParserErrorTest, MissingReturn) {
  EXPECT_FALSE(ParseCypher("MATCH (n)").ok());
}

TEST(ParserErrorTest, UnclosedNode) {
  EXPECT_FALSE(ParseCypher("MATCH (n RETURN *").ok());
}

TEST(ParserErrorTest, UnclosedRelationship) {
  EXPECT_FALSE(ParseCypher("MATCH (a)-[e->(b) RETURN *").ok());
}

TEST(ParserErrorTest, DoubleArrow) {
  EXPECT_FALSE(ParseCypher("MATCH (a)<-[e]->(b) RETURN *").ok());
}

TEST(ParserTest, BadBoundsParseButArePreserved) {
  // Bound sanity (lower <= upper) is a semantic check: the parser accepts
  // the pattern and the analyzer reports GQL010 with the bounds' span.
  auto q = ParseCypher("MATCH (a)-[e*3..1]->(b) RETURN *");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& rel = q.value().paths[0].steps[0].first;
  EXPECT_EQ(rel.lower_bound, 3);
  EXPECT_EQ(rel.upper_bound, 1);
  EXPECT_TRUE(rel.bounds_span.IsKnown());
}

TEST(ParserErrorTest, TrailingGarbage) {
  EXPECT_FALSE(ParseCypher("MATCH (n) RETURN * garbage").ok());
}

TEST(ParserTest, BareVariableParsesAsElementReference) {
  // `a = b` parses into a comparison over bare element references; the
  // analyzer folds it (isomorphism) or rejects it (homomorphism). It
  // never reaches execution.
  auto q = ParseCypher("MATCH (a)-[e]->(b) WHERE a = b RETURN *");
  ASSERT_TRUE(q.ok()) << q.status();
  const auto& where = q.value().where;
  ASSERT_NE(where, nullptr);
  ASSERT_EQ(where->kind(), ExprKind::kComparison);
  EXPECT_EQ(where->left()->kind(), ExprKind::kVariable);
  EXPECT_EQ(where->left()->variable(), "a");
  EXPECT_EQ(where->right()->kind(), ExprKind::kVariable);
  EXPECT_EQ(where->right()->variable(), "b");
}

TEST(ParserErrorTest, ReservedWordIsNotAValue) {
  EXPECT_FALSE(ParseCypher("MATCH (a) WHERE RETURN = 1 RETURN *").ok());
}

TEST(ParserErrorTest, EmptyPropertyKey) {
  EXPECT_FALSE(ParseCypher("MATCH (a {: 1}) RETURN *").ok());
}

TEST(ParserErrorTest, ErrorMentionsLineColumnAndToken) {
  auto r = ParseCypher("MATCH (n RETURN *");
  ASSERT_FALSE(r.ok());
  // `RETURN` (the unexpected token) starts at line 1, column 10.
  EXPECT_NE(r.status().message().find("1:10"), std::string::npos);
  EXPECT_NE(r.status().message().find("'RETURN'"), std::string::npos);
}

TEST(ParserErrorTest, ErrorOnLaterLineLocatesIt) {
  auto r = ParseCypher("MATCH (n)\nWHERE n.x = RETURN *");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("2:13"), std::string::npos);
}

}  // namespace
}  // namespace gradoop::cypher

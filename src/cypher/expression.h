#ifndef GRADOOP_CYPHER_EXPRESSION_H_
#define GRADOOP_CYPHER_EXPRESSION_H_

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cypher/source_span.h"
#include "epgm/property_value.h"

namespace gradoop::cypher {

// Binary comparison operators of the WHERE clause.
enum class ComparisonOp {
  kEq,   // =
  kNeq,  // <>
  kLt,   // <
  kLte,  // <=
  kGt,   // >
  kGte,  // >=
};

ComparisonOp NegateComparison(ComparisonOp op);
const char* ComparisonOpName(ComparisonOp op);

enum class ExprKind {
  kLiteral,         // 'Uni Leipzig', 2014, true, NULL
  kPropertyAccess,  // p1.gender
  kVariable,        // bare element reference (only `a = b` / `a <> b`
                    // comparisons reach the analyzer; never executed —
                    // semantic analysis folds or rejects every occurrence)
  kComparison,      // lhs op rhs
  kAnd,
  kOr,
  kXor,
  kNot,
};

class Expression;
// Expression trees are immutable and share subtrees freely (CNF rewriting
// duplicates references, not nodes).
using ExpressionPtr = std::shared_ptr<const Expression>;

// A WHERE-clause expression. One node type with a kind discriminator keeps
// the recursive-descent parser and the CNF rewriter compact.
class Expression {
 public:
  static ExpressionPtr Literal(epgm::PropertyValue value,
                               SourceSpan span = {});
  static ExpressionPtr PropertyAccess(std::string variable, std::string key,
                                      SourceSpan span = {});
  static ExpressionPtr Variable(std::string variable, SourceSpan span = {});
  static ExpressionPtr Comparison(ComparisonOp op, ExpressionPtr lhs,
                                  ExpressionPtr rhs, SourceSpan span = {});
  static ExpressionPtr And(ExpressionPtr lhs, ExpressionPtr rhs);
  static ExpressionPtr Or(ExpressionPtr lhs, ExpressionPtr rhs);
  static ExpressionPtr Xor(ExpressionPtr lhs, ExpressionPtr rhs);
  static ExpressionPtr Not(ExpressionPtr operand, SourceSpan span = {});

  ExprKind kind() const { return kind_; }
  // Location of the source fragment this node was parsed from; synthesized
  // nodes (CNF rewriting, property-map sugar) inherit their source's span.
  const SourceSpan& span() const { return span_; }
  const epgm::PropertyValue& literal() const { return literal_; }
  const std::string& variable() const { return variable_; }
  const std::string& property_key() const { return property_key_; }
  ComparisonOp comparison_op() const { return op_; }
  const ExpressionPtr& left() const { return left_; }
  const ExpressionPtr& right() const { return right_; }

  // Collects every `variable.key` pair referenced in the subtree. These
  // drive embedding projection: only referenced properties are carried.
  void CollectPropertyAccesses(
      std::set<std::pair<std::string, std::string>>* out) const;
  // Collects the set of query variables referenced.
  void CollectVariables(std::set<std::string>* out) const;

  // Cypher-style textual form, for debugging and plan explanation.
  std::string ToString() const;

 private:
  Expression() = default;

  ExprKind kind_ = ExprKind::kLiteral;
  epgm::PropertyValue literal_;
  std::string variable_;
  std::string property_key_;
  ComparisonOp op_ = ComparisonOp::kEq;
  ExpressionPtr left_;
  ExpressionPtr right_;
  SourceSpan span_;
};

// Resolves `variable.key` to a property value during evaluation; returns a
// null value when the binding or property is absent.
using ValueResolver = std::function<epgm::PropertyValue(
    const std::string& variable, const std::string& key)>;

// Evaluates an expression subtree under Cypher's ternary logic: nullopt is
// the SQL/Cypher NULL truth value (comparisons against missing properties
// are NULL, AND/OR/NOT propagate it).
std::optional<bool> EvaluateTernary(const Expression& expr,
                                    const ValueResolver& resolver);

// Top-level predicate evaluation: NULL collapses to false (a WHERE clause
// keeps a row only when the predicate is definitely true).
bool EvaluatePredicate(const Expression& expr, const ValueResolver& resolver);

// Compares two operand values: NULL when either is NULL or an ordering
// compares incomparable types.
std::optional<bool> CompareValues(ComparisonOp op,
                                  const epgm::PropertyValue& lhs,
                                  const epgm::PropertyValue& rhs);

// The evaluator behind the ValueResolver overloads, over any callable
// `resolve(variable, key)` that returns a PropertyValue or a const
// reference to one. The query kernels pass a lambda bound once per call,
// so evaluating an element or row builds no std::function, and literals
// are compared in place instead of copied.
template <typename Resolve>
std::optional<bool> EvaluateTernaryWith(const Expression& expr,
                                        const Resolve& resolve);

// A disjunction of atomic predicates; a conjunction of clauses is a CNF.
struct CnfClause {
  std::vector<ExpressionPtr> atoms;  // comparisons (negations folded away)

  // Query variables referenced across all atoms.
  std::set<std::string> Variables() const;
  std::string ToString() const;
};

// Conjunctive normal form of a WHERE expression. Clauses touching a single
// variable can be pushed into the leaf scans (element-centric selection,
// §3.1); the rest run as SelectEmbeddings once all their variables are
// bound.
struct Cnf {
  std::vector<CnfClause> clauses;

  std::string ToString() const;
};

// Rewrites `expr` into CNF: negation normal form (NOT pushed into the
// comparison operators, XOR expanded), then OR distributed over AND.
Cnf ToCnf(const ExpressionPtr& expr);

// Evaluates one CNF clause (disjunction) under ternary logic, collapsing
// NULL to false.
bool EvaluateClause(const CnfClause& clause, const ValueResolver& resolver);

namespace internal {

inline const epgm::PropertyValue& NullValue() {
  static const epgm::PropertyValue kNull;
  return kNull;
}

// Passes the value of an operand (literal or property access) to `then`,
// literals by reference.
template <typename Resolve, typename Then>
std::optional<bool> WithOperand(const Expression& expr, const Resolve& resolve,
                                const Then& then) {
  if (expr.kind() == ExprKind::kLiteral) return then(expr.literal());
  // Bare variable references never survive semantic analysis; evaluating
  // one (only reachable when QueryGraph::Build is driven directly, without
  // the analyzer) yields NULL, which collapses the predicate to false.
  if (expr.kind() == ExprKind::kVariable) return then(NullValue());
  assert(expr.kind() == ExprKind::kPropertyAccess);
  return then(resolve(expr.variable(), expr.property_key()));
}

}  // namespace internal

template <typename Resolve>
std::optional<bool> EvaluateTernaryWith(const Expression& expr,
                                        const Resolve& resolve) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      if (expr.literal().is_bool()) return expr.literal().bool_value();
      return std::nullopt;  // NULL, or a non-boolean literal in predicate
                            // position
    case ExprKind::kPropertyAccess: {
      const epgm::PropertyValue& v =
          resolve(expr.variable(), expr.property_key());
      if (v.is_bool()) return v.bool_value();
      return std::nullopt;
    }
    case ExprKind::kVariable:
      // An element reference is not a truth value (see WithOperand).
      return std::nullopt;
    case ExprKind::kComparison:
      return internal::WithOperand(
          *expr.left(), resolve, [&](const epgm::PropertyValue& lhs) {
            return internal::WithOperand(
                *expr.right(), resolve, [&](const epgm::PropertyValue& rhs) {
                  return CompareValues(expr.comparison_op(), lhs, rhs);
                });
          });
    case ExprKind::kAnd: {
      const auto l = EvaluateTernaryWith(*expr.left(), resolve);
      const auto r = EvaluateTernaryWith(*expr.right(), resolve);
      if (l.has_value() && !*l) return false;
      if (r.has_value() && !*r) return false;
      if (l.has_value() && r.has_value()) return true;
      return std::nullopt;
    }
    case ExprKind::kOr: {
      const auto l = EvaluateTernaryWith(*expr.left(), resolve);
      const auto r = EvaluateTernaryWith(*expr.right(), resolve);
      if (l.has_value() && *l) return true;
      if (r.has_value() && *r) return true;
      if (l.has_value() && r.has_value()) return false;
      return std::nullopt;
    }
    case ExprKind::kXor: {
      const auto l = EvaluateTernaryWith(*expr.left(), resolve);
      const auto r = EvaluateTernaryWith(*expr.right(), resolve);
      if (!l.has_value() || !r.has_value()) return std::nullopt;
      return *l != *r;
    }
    case ExprKind::kNot: {
      const auto v = EvaluateTernaryWith(*expr.left(), resolve);
      if (!v.has_value()) return std::nullopt;
      return !*v;
    }
  }
  return std::nullopt;
}

// EvaluateClause over any resolver callable (see EvaluateTernaryWith).
template <typename Resolve>
bool EvaluateClauseWith(const CnfClause& clause, const Resolve& resolve) {
  for (const ExpressionPtr& atom : clause.atoms) {
    const auto v = EvaluateTernaryWith(*atom, resolve);
    if (v.has_value() && *v) return true;
  }
  return false;
}

}  // namespace gradoop::cypher

#endif  // GRADOOP_CYPHER_EXPRESSION_H_

#ifndef GRADOOP_QUERY_OPERATORS_H_
#define GRADOOP_QUERY_OPERATORS_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cypher/expression.h"
#include "cypher/query_graph.h"
#include "dataflow/dataset.h"
#include "epgm/adjacency_index.h"
#include "epgm/elements.h"
#include "query/embedding.h"
#include "query/embedding_batch.h"
#include "query/embedding_meta_data.h"
#include "query/match_semantics.h"

namespace gradoop::query {

// A distributed set of (partial) embeddings together with the meta data
// describing its columns. Every physical query operator consumes and
// produces this pair (§3.1).
struct EmbeddingSet {
  dataflow::Dataset<Embedding> data;
  EmbeddingMetaData meta;
};

// The operator kernels below execute against column layouts resolved
// ahead of time by exec::PlanCompiler — they never derive meta data
// themselves. `residual` carries cross-variable clauses a fused filter
// pushed into the operator; they are bound to the output meta once per
// call (BoundClauses below) and evaluated on each produced embedding
// before it is emitted.

// SelectAndProjectVertices: filters `vertices` — the per-label datasets
// of the query vertex's label alternation, read in place — by that
// alternation and its element-centric predicates, projects the properties
// listed in `meta` and transforms each survivor into a one-column
// embedding. Executed as a single narrow stage (Select -> Project ->
// Transform fusion).
EmbeddingSet SelectAndProjectVertices(
    const dataflow::DatasetList<epgm::Vertex>& vertices,
    const cypher::QueryVertex& query_vertex,
    const std::vector<cypher::CnfClause>& predicates,
    const EmbeddingMetaData& meta,
    const std::vector<cypher::CnfClause>& residual = {});

// SelectAndProjectEdges: same for a fixed-length query edge; emits
// three-column embeddings [source, edge, target] (plus projected edge
// properties). When `self_loop` is set (the query edge's source variable
// equals its target variable), only edges with source == target survive
// and the embedding carries two columns.
EmbeddingSet SelectAndProjectEdges(
    const dataflow::DatasetList<epgm::Edge>& edges,
    const cypher::QueryEdge& query_edge,
    const std::vector<cypher::CnfClause>& predicates,
    const MorphismSetting& semantics, bool self_loop,
    const EmbeddingMetaData& meta,
    const std::vector<cypher::CnfClause>& residual = {});

// Checks the global morphism constraints on a merged embedding: under
// vertex isomorphism all vertex bindings (distinct query variables) are
// pairwise distinct; under edge isomorphism all edge bindings including
// the edges inside variable-length paths are pairwise distinct.
bool SatisfiesMorphism(const Embedding& embedding,
                       const EmbeddingMetaData& meta,
                       const MorphismSetting& semantics);

// JoinEmbeddings: equi-join of two embedding sets on the id columns
// `left_columns[i]` == `right_columns[i]`, implemented as a FlatJoin —
// the merged embedding is emitted only if the morphism constraints hold
// (§3.1). `merged_meta` must be EmbeddingMetaData::Merge of the inputs'
// metas, resolved at compile time.
// `hints` marks sides the partitioning analysis proved co-partitioned on
// the join key; those sides skip the repartition shuffle (audited under
// GRADOOP_AUDIT_PARTITIONING).
EmbeddingSet JoinEmbeddings(const EmbeddingSet& left,
                            const EmbeddingSet& right,
                            const std::vector<int>& left_columns,
                            const std::vector<int>& right_columns,
                            const EmbeddingMetaData& merged_meta,
                            const MorphismSetting& semantics,
                            dataflow::JoinStrategy strategy =
                                dataflow::JoinStrategy::kRepartition,
                            const std::vector<cypher::CnfClause>& residual =
                                {},
                            dataflow::JoinShuffleHints hints = {});

// SelectEmbeddings: evaluates cross-variable CNF clauses on complete
// (partial) embeddings.
EmbeddingSet SelectEmbeddings(const EmbeddingSet& input,
                              const std::vector<cypher::CnfClause>& clauses);

// ValueJoinEmbeddings: equi-join of two embedding sets on property VALUES
// instead of identifiers — the extension operator §3.1 names ("to join
// subqueries on property values"). `left_key_columns[i]` (a property
// column of the left input) must equal `right_key_columns[i]` value-wise
// for a pair to join; embeddings whose key property is NULL never join
// (Cypher equality with NULL is NULL). The merged embedding is checked
// against the morphism constraints like a regular join.
EmbeddingSet ValueJoinEmbeddings(const EmbeddingSet& left,
                                 const EmbeddingSet& right,
                                 const std::vector<int>& left_key_columns,
                                 const std::vector<int>& right_key_columns,
                                 const EmbeddingMetaData& merged_meta,
                                 const MorphismSetting& semantics,
                                 dataflow::JoinStrategy strategy =
                                     dataflow::JoinStrategy::kRepartition,
                                 const std::vector<cypher::CnfClause>&
                                     residual = {},
                                 dataflow::JoinShuffleHints hints = {});

// ExpandEmbeddings: evaluates a variable-length path expression, the
// paper's bulk iteration (§3.1) run as a hop loop. Starting from the
// embeddings of `input` positioned at `start_column`, repeatedly performs
// 1-hop expansions of the frontier, keeping only paths that satisfy the
// morphism semantics, and unions an emission into the result once the
// iteration count reaches `lower_bound`. Terminates at `upper_bound` or
// when no valid path remains.
//
// Each hop is one pass per partition: it reads the frontier records
// routed to the partition owning their end vertex, walks `adjacency`
// locally — the edge set is never re-shuffled or re-hashed — writes the
// paths the hop finishes and routes the grown records to the next hop.
// The cost model is charged as for the paper's per-hop join of the
// frontier with the edge set (docs/INTERNALS.md, "ExpandEmbeddings").
// ExpandBatches (batch_operators.h) runs the same hop loop.
//
// An adjacency keyed by target id (`adjacency.reverse()`) expands against
// edge direction (used when the plan binds the path's target first). A
// non-negative `bound_end_column` closes a cycle:
// no new column is added and the path end must equal the id at that
// column; otherwise `result_meta` appends a fresh vertex column after the
// path column. A `lower_bound` of 0 admits the empty path (end == start).
EmbeddingSet ExpandEmbeddings(const EmbeddingSet& input,
                              const epgm::AdjacencyIndex& adjacency,
                              int start_column, int bound_end_column,
                              const EmbeddingMetaData& result_meta,
                              int lower_bound, int upper_bound,
                              const MorphismSetting& semantics,
                              const std::vector<cypher::CnfClause>& residual =
                                  {});

// --- Kernel helpers shared by the row (operators.cc) and batch
// (batch_operators.cc) kernels. Inline so the per-row calls stay
// inlinable in both translation units.

// True iff every clause holds under `resolve` (cypher::EvaluateClauseWith).
template <typename Resolve>
bool EvaluateClauses(const std::vector<cypher::CnfClause>& clauses,
                     const Resolve& resolve) {
  for (const cypher::CnfClause& clause : clauses) {
    if (!cypher::EvaluateClauseWith(clause, resolve)) return false;
  }
  return true;
}

// A clause list bound to the layout it is evaluated on, once per kernel
// call: each `variable.key` the clauses read is looked up in the meta
// data here, so evaluating a row probes a few entries instead of a
// std::map per property access, and builds no resolver.
class BoundClauses {
 public:
  BoundClauses(const std::vector<cypher::CnfClause>& clauses,
               const EmbeddingMetaData& meta);

  bool empty() const { return clauses_.empty(); }

  // True iff every clause holds on a row whose property column c reads
  // property_at(c).
  template <typename PropertyAt>
  bool Passes(const PropertyAt& property_at) const {
    return EvaluateClauses(
        clauses_, [&](const std::string& variable, const std::string& key) {
          const int column = Column(variable, key);
          return column < 0 ? epgm::PropertyValue() : property_at(column);
        });
  }
  bool Passes(const Embedding& e) const {
    return Passes([&e](int column) { return e.PropertyAt(column); });
  }
  // Also valid for a builder's pending row (cells pushed, CommitRow not
  // yet called): the kernels check fused residuals speculatively.
  bool Passes(const EmbeddingBatch& b, uint32_t row) const {
    return Passes([&b, row](int column) { return b.PropertyAt(column, row); });
  }

 private:
  struct Access {
    std::string variable;
    std::string key;
    int column;  // -1 when the layout does not project it (reads NULL)
  };
  int Column(const std::string& variable, const std::string& key) const {
    for (const Access& a : accesses_) {
      if (a.key == key && a.variable == variable) return a.column;
    }
    return -1;
  }

  std::vector<cypher::CnfClause> clauses_;
  std::vector<Access> accesses_;
};

// Projection keys for one scanned variable, read off the compiled meta.
inline std::vector<std::string> ProjectedKeys(const EmbeddingMetaData& meta,
                                              const std::string& variable) {
  std::vector<std::string> out;
  for (const auto& [var, key] : meta.PropertyColumnsInOrder()) {
    assert(var == variable && "scan meta projects only the scanned variable");
    (void)variable;
    out.push_back(key);
  }
  return out;
}

// True iff `ids` holds no duplicate; sorts `ids` in place.
inline bool AllDistinct(std::vector<uint64_t>* ids) {
  std::sort(ids->begin(), ids->end());
  return std::adjacent_find(ids->begin(), ids->end()) == ids->end();
}

}  // namespace gradoop::query

#endif  // GRADOOP_QUERY_OPERATORS_H_

#ifndef GRADOOP_QUERY_BATCH_OPERATORS_H_
#define GRADOOP_QUERY_BATCH_OPERATORS_H_

#include <string>
#include <vector>

#include "cypher/query_graph.h"
#include "dataflow/dataset.h"
#include "epgm/elements.h"
#include "query/embedding_batch.h"
#include "query/embedding_meta_data.h"
#include "query/match_semantics.h"
#include "query/operators.h"

namespace gradoop::query {

// A distributed set of columnar embedding batches plus the meta data
// describing the columns — the batch engine's counterpart of
// EmbeddingSet. The meta is identical to the row engine's: the compiler
// resolves one layout, both engines execute it (docs/vectorized.md).
struct BatchSet {
  dataflow::Dataset<EmbeddingBatch> data;
  EmbeddingMetaData meta;
};

// Conversions between the two representations. Both are narrow stages;
// the reconstruction in BatchesToRows is byte-identical to what the row
// kernels would have produced (the differential tests pin this).
BatchSet RowsToBatches(const EmbeddingSet& rows, int batch_size);
EmbeddingSet BatchesToRows(const BatchSet& batches);

// The vectorized kernels below mirror query/operators.h one-to-one:
// same compiled layouts, same predicate/morphism semantics, same
// std::hash-based partition placement (so the partitioning claims and
// GRADOOP_AUDIT_PARTITIONING hold unchanged in batch mode). They differ
// only in processing whole column batches per dataflow record.

// Scan kernels: materialize batches of up to `batch_size` rows directly
// from each element partition (no per-row Embedding is ever built).
BatchSet ScanVerticesBatch(const dataflow::Dataset<epgm::Vertex>& vertices,
                           const cypher::QueryVertex& query_vertex,
                           const std::vector<cypher::CnfClause>& predicates,
                           const EmbeddingMetaData& meta,
                           const std::vector<cypher::CnfClause>& residual,
                           int batch_size);

BatchSet ScanEdgesBatch(const dataflow::Dataset<epgm::Edge>& edges,
                        const cypher::QueryEdge& query_edge,
                        const std::vector<cypher::CnfClause>& predicates,
                        const MorphismSetting& semantics, bool self_loop,
                        const EmbeddingMetaData& meta,
                        const std::vector<cypher::CnfClause>& residual,
                        int batch_size);

// Filter as a tight select-loop: evaluates the clauses over each batch's
// active rows and writes a selection vector — no rows move or copy.
BatchSet SelectBatches(const BatchSet& input,
                       const std::vector<cypher::CnfClause>& clauses);

// Equi-join on id columns: scatters only the selected rows of each batch
// by the row engine's join-key hash, builds per-partition hash tables
// over raw u64 key columns (single-column joins probe without any key
// materialization) and emits merged batches. Elided sides are adopted in
// place and re-audited per row under GRADOOP_AUDIT_PARTITIONING.
BatchSet JoinBatches(const BatchSet& left, const BatchSet& right,
                     const std::vector<int>& left_columns,
                     const std::vector<int>& right_columns,
                     const EmbeddingMetaData& merged_meta,
                     const MorphismSetting& semantics,
                     dataflow::JoinStrategy strategy,
                     const std::vector<cypher::CnfClause>& residual,
                     dataflow::JoinShuffleHints hints, int batch_size);

// Equi-join on property values. NULL-key rows are masked out by a
// selection pass (the row engine's pre-join Filter) before the scatter.
BatchSet ValueJoinBatches(const BatchSet& left, const BatchSet& right,
                          const std::vector<int>& left_key_columns,
                          const std::vector<int>& right_key_columns,
                          const EmbeddingMetaData& merged_meta,
                          const MorphismSetting& semantics,
                          dataflow::JoinStrategy strategy,
                          const std::vector<cypher::CnfClause>& residual,
                          dataflow::JoinShuffleHints hints, int batch_size);

// Variable-length expansion, batch-at-a-time at the boundaries: input
// batches compact to rows, the row engine's bulk frontier iteration runs
// (the traversal is inherently row-dependent), and the emissions
// re-batch. See docs/vectorized.md for why this operator is the
// deliberate exception to end-to-end columnar processing.
BatchSet ExpandBatches(const BatchSet& input,
                       const epgm::AdjacencyIndex& adjacency,
                       int start_column, int bound_end_column,
                       const EmbeddingMetaData& result_meta, int lower_bound,
                       int upper_bound, const MorphismSetting& semantics,
                       const std::vector<cypher::CnfClause>& residual,
                       int batch_size);

}  // namespace gradoop::query

#endif  // GRADOOP_QUERY_BATCH_OPERATORS_H_

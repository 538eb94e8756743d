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

// Column flags of a fresh batch for `meta`: only columns bound to a path
// variable hold PATH entries. A merged layout's duplicate column of a
// shared variable stays kIdFlag — shared variables are join keys, and
// path bindings cannot be joined on.
inline std::vector<uint8_t> BatchColumnFlags(const EmbeddingMetaData& meta) {
  std::vector<uint8_t> flags(static_cast<size_t>(meta.id_column_count()),
                             Embedding::kIdFlag);
  for (const int c : meta.PathColumns()) {
    flags[static_cast<size_t>(c)] = Embedding::kPathFlag;
  }
  return flags;
}

// Appends row `row`'s value-join key over the property `columns`: the
// concatenated key encodings, numerics normalized so 2 and 2.0 join —
// byte for byte the key the row engine's ValueJoinEmbeddings builds, so
// both engines place every row with the same std::hash<std::string>.
// NULL keys must have been pruned.
void AppendValueKey(const EmbeddingBatch& b, uint32_t row,
                    const std::vector<int>& columns, std::string* key);

// Conversions between the two representations. Both are narrow stages;
// the reconstruction in BatchesToRows is byte-identical to what the row
// kernels would have produced (the differential tests pin this).
BatchSet RowsToBatches(const EmbeddingSet& rows, int batch_size);
EmbeddingSet BatchesToRows(const BatchSet& batches);

// The number of rows BatchesToRows(batches) would produce, summed over
// the batches' active rows without building one. Charges exactly what
// the conversion charges, so a count-only caller leaves the cost model
// where converting and counting the rows would have left it.
uint64_t CountBatchRows(const BatchSet& batches);

// The vectorized kernels below mirror query/operators.h one-to-one:
// same compiled layouts, same predicate/morphism semantics, same
// std::hash-based partition placement (so the partitioning claims and
// GRADOOP_AUDIT_PARTITIONING hold unchanged in batch mode). They differ
// only in processing whole column batches per dataflow record.

// Scan kernels: materialize batches of up to `batch_size` rows directly
// from each element partition (no per-row Embedding is ever built). The
// per-label datasets of an alternation are read in place, in list order,
// and one builder carries on across their boundaries, so batches are cut
// exactly where a scan of their Union would cut them.
BatchSet ScanVerticesBatch(const dataflow::DatasetList<epgm::Vertex>& vertices,
                           const cypher::QueryVertex& query_vertex,
                           const std::vector<cypher::CnfClause>& predicates,
                           const EmbeddingMetaData& meta,
                           const std::vector<cypher::CnfClause>& residual,
                           int batch_size);

BatchSet ScanEdgesBatch(const dataflow::DatasetList<epgm::Edge>& edges,
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

// Equi-join on id columns, run by Dataset::EquiJoin, the driver behind
// the row engine's HashJoin: the same exchange, adoption (audited per row
// under GRADOOP_AUDIT_PARTITIONING), broadcast and charges. A scattered
// side sends only the selected rows of each batch, placed by the row
// engine's join-key hash; a broadcast build side is read in place. Each
// worker builds a hash table over raw u64 key columns (single-column joins
// probe without any key materialization) and emits merged batches.
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

// Variable-length expansion: ExpandEmbeddings' hop loop (operators.cc
// runs both engines through one template), with each frontier record
// naming its base row in place as (batch, row) and every emitted path
// written straight into the partition's output batch. Emits the rows,
// per-partition order and batch boundaries of
// RowsToBatches(ExpandEmbeddings(BatchesToRows(input))) without building
// a row, and charges what ExpandEmbeddings charges.
BatchSet ExpandBatches(const BatchSet& input,
                       const epgm::AdjacencyIndex& adjacency,
                       int start_column, int bound_end_column,
                       const EmbeddingMetaData& result_meta, int lower_bound,
                       int upper_bound, const MorphismSetting& semantics,
                       const std::vector<cypher::CnfClause>& residual,
                       int batch_size);

}  // namespace gradoop::query

#endif  // GRADOOP_QUERY_BATCH_OPERATORS_H_

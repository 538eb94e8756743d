#ifndef GRADOOP_QUERY_EMBEDDING_BATCH_H_
#define GRADOOP_QUERY_EMBEDDING_BATCH_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "epgm/property_value.h"
#include "query/embedding.h"

namespace gradoop::query {

// Columnar batch of embeddings (docs/vectorized.md): the vectorized
// counterpart of the row-at-a-time Embedding of §3.3.
//
//   ids[c]        fixed-width u64 column per id entry; PATH columns hold
//                 byte offsets into path_pool
//   path_pool     (path-length, ids...) segments, the same encoding as
//                 Embedding::path_data
//   prop cells    (offset, length) per row x property column into
//                 prop_pool, whose bytes are the PropertyValue encoding
//                 verbatim (never re-encoded — RowAt() reconstructs a
//                 byte-identical Embedding)
//   selection     optional vector of active row indices; filters write it
//                 instead of materializing surviving rows
//
// The column store is shared (shared_ptr) so attaching a selection vector
// — the only thing a filter changes — costs one refcount bump, not a
// column copy. Builders own their store exclusively until the batch is
// handed off; after that all access is read-only, so concurrent readers
// on the host pool need no locks and the batch carries no lock rank.
class EmbeddingBatch {
 public:
  EmbeddingBatch() : cols_(std::make_shared<Columns>()) {}

  // A batch with `column_flags[c]` (Embedding::kIdFlag / kPathFlag) id
  // columns and `property_columns` property columns, matching the
  // operator's compiled EmbeddingMetaData.
  EmbeddingBatch(std::vector<uint8_t> column_flags, int property_columns)
      : cols_(std::make_shared<Columns>()) {
    cols_->flags = std::move(column_flags);
    cols_->ids.resize(cols_->flags.size());
    cols_->property_columns = property_columns;
  }

  // --- shape -----------------------------------------------------------

  int num_id_columns() const { return static_cast<int>(cols_->flags.size()); }
  int num_property_columns() const { return cols_->property_columns; }
  uint32_t num_rows() const { return cols_->rows; }
  bool IsPathColumn(int column) const {
    return cols_->flags[static_cast<size_t>(column)] == Embedding::kPathFlag;
  }

  // --- cell access -----------------------------------------------------

  uint64_t IdAt(int column, uint32_t row) const {
    assert(!IsPathColumn(column));
    return cols_->ids[static_cast<size_t>(column)][row];
  }
  // Raw payload (identifier, or path-pool offset for PATH columns).
  uint64_t PayloadAt(int column, uint32_t row) const {
    return cols_->ids[static_cast<size_t>(column)][row];
  }
  std::vector<uint64_t> PathAt(int column, uint32_t row) const;
  // True if any listed PATH column of row `row` holds `id` at an even
  // (edge) or odd (vertex) position — Embedding::PathContains on a row
  // read in place.
  bool PathContains(uint64_t id, const std::vector<int>& path_columns,
                    bool edges, uint32_t row) const;
  epgm::PropertyValue PropertyAt(int column, uint32_t row) const;
  // Encoded property bytes (no length prefix), copyable verbatim.
  std::string_view PropertyCellAt(int column, uint32_t row) const {
    const size_t cell =
        static_cast<size_t>(row) * cols_->property_columns + column;
    return std::string_view(cols_->prop_pool)
        .substr(cols_->prop_offsets[cell], cols_->prop_lens[cell]);
  }

  // Type of an encoded property cell: its leading tag byte.
  static epgm::PropertyValue::Type CellType(std::string_view cell) {
    assert(!cell.empty());
    return static_cast<epgm::PropertyValue::Type>(cell[0]);
  }

  // --- selection vector ------------------------------------------------

  bool has_selection() const { return has_selection_; }
  const std::vector<uint32_t>& selection() const { return selection_; }
  uint32_t ActiveRows() const {
    return has_selection_ ? static_cast<uint32_t>(selection_.size())
                          : cols_->rows;
  }
  uint32_t ActiveRow(uint32_t i) const {
    return has_selection_ ? selection_[i] : i;
  }
  // Same columns (shared), new selection — the filter select-loop output.
  EmbeddingBatch WithSelection(std::vector<uint32_t> selected) const {
    EmbeddingBatch out = *this;
    out.selection_ = std::move(selected);
    out.has_selection_ = true;
    return out;
  }

  // --- building (requires exclusive ownership of the column store) -----

  void PushId(int column, uint64_t id) {
    MutableColumns().ids[static_cast<size_t>(column)].push_back(id);
  }
  void PushPath(int column, const std::vector<uint64_t>& via_ids);
  void PushProperty(const epgm::PropertyValue& value);
  // Appends an already-encoded property value verbatim (no prefix).
  void PushPropertyEncoded(std::string_view encoded);
  // Closes the current row once every column received its cell.
  void CommitRow();

  // Rollback point for speculative appends: a scan pushes the row, then
  // evaluates the fused residual on it and rolls back on failure.
  struct RowMark {
    uint32_t rows = 0;
    size_t path_pool_bytes = 0;
    size_t prop_pool_bytes = 0;
    size_t prop_cells = 0;
  };
  RowMark Mark() const {
    return {cols_->rows, cols_->path_pool.size(), cols_->prop_pool.size(),
            cols_->prop_offsets.size()};
  }
  void Rollback(const RowMark& mark);

  // Appends row `row` of `src` (same column flags from `col_offset` on,
  // property cells in order); the merge path lays a left slice and a right
  // slice side by side before one CommitRow().
  void AppendRowCells(const EmbeddingBatch& src, uint32_t row,
                      int col_offset);
  // Bulk gather: appends the given rows of `src` (same layout) with
  // column-major inner loops — one pass per id column over the row list,
  // then the property cells. The scatter path compacts whole fragments
  // through this.
  void AppendRows(const EmbeddingBatch& src,
                  const std::vector<uint32_t>& rows);

  // One surviving probe match: left row `left_row` of the probe batch
  // merged with row `right_row` of build batch `*right`.
  struct MergePair {
    uint32_t left_row;
    const EmbeddingBatch* right;
    uint32_t right_row;
  };
  // Bulk merge gather for the join probe: appends `count` merged rows
  // from `pairs[offset..)` — left columns at offset 0, right columns at
  // `left_id_columns` — column-major like AppendRows. Only valid when
  // the merged row needs no residual check (pairs are pre-filtered).
  void AppendMergedRows(const EmbeddingBatch& left, int left_id_columns,
                        const std::vector<MergePair>& pairs, size_t offset,
                        size_t count);

  // --- row conversion --------------------------------------------------

  // Appends one row embedding's cells verbatim (ids, path segments and
  // encoded property bytes are copied, never re-encoded).
  void AppendRow(const Embedding& embedding);
  // Reconstructs row `row` as a byte-identical Embedding: id/path entries
  // in column order followed by the property cells in column order — the
  // exact append order of the row kernels. Each of the row's three byte
  // arrays is sized once and written with memcpy.
  Embedding RowAt(uint32_t row) const;
  // RowAt(row).SerializedSize(), without building the row: the wire size
  // the cost model bills when a row travels as an Embedding.
  size_t RowSerializedSize(uint32_t row) const;

  // --- accounting ------------------------------------------------------

  // Byte size in the MemoryAccountant's currency (record_traits.h):
  // column tags and payloads, both pools, the property cell directory and
  // the selection vector, plus a fixed header.
  size_t SerializedSize() const {
    size_t bytes = 4 * sizeof(uint32_t) + cols_->flags.size();
    for (const auto& column : cols_->ids) bytes += 8 * column.size();
    bytes += cols_->path_pool.size() + cols_->prop_pool.size();
    bytes += cols_->prop_offsets.size() *
             (sizeof(uint64_t) + sizeof(uint32_t));
    bytes += selection_.size() * sizeof(uint32_t);
    return bytes;
  }
  size_t property_pool_bytes() const { return cols_->prop_pool.size(); }

 private:
  struct Columns {
    std::vector<uint8_t> flags;              // per id column
    std::vector<std::vector<uint64_t>> ids;  // one payload vector per column
    int property_columns = 0;
    std::vector<uint64_t> prop_offsets;      // row-major cells into prop_pool
    std::vector<uint32_t> prop_lens;
    std::string path_pool;
    std::string prop_pool;
    uint32_t rows = 0;
  };

  // Byte sizes of row `row`'s path segments and of its length-prefixed
  // property cells: the two variable-length arrays RowAt writes.
  void RowFootprint(uint32_t row, size_t* path_bytes,
                    size_t* prop_bytes) const;

  Columns& MutableColumns() {
    assert(cols_.use_count() == 1 && "mutating a shared batch");
    return *cols_;
  }

  std::shared_ptr<Columns> cols_;
  std::vector<uint32_t> selection_;
  bool has_selection_ = false;
};

namespace exec {
// Rows per EmbeddingBatch unless the engine/tooling overrides it.
inline constexpr int kDefaultBatchSize = 1024;
}  // namespace exec

}  // namespace gradoop::query

#endif  // GRADOOP_QUERY_EMBEDDING_BATCH_H_

#ifndef GRADOOP_QUERY_EMBEDDING_META_DATA_H_
#define GRADOOP_QUERY_EMBEDDING_META_DATA_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "query/embedding.h"

namespace gradoop::query {

// Kind of binding a query variable holds in an embedding column.
enum class EntryType {
  kVertex,
  kEdge,
  kPath,  // variable-length expansion result
};

// Maps query variables and their projected properties to column indices of
// an Embedding (§3.3: "a meta data object that stores the mapping
// information between query variables/properties and indices of embedding
// entries"). Maintained and merged by the query operators; never shipped
// with the data.
class EmbeddingMetaData {
 public:
  EmbeddingMetaData() = default;

  // Registers `variable` at the next id column. Returns the column index.
  int AddIdColumn(const std::string& variable, EntryType type);
  // Registers a projected property (variable.key) at the next property
  // column. Returns the column index.
  int AddPropertyColumn(const std::string& variable, const std::string& key);

  bool HasVariable(const std::string& variable) const;
  int IdColumn(const std::string& variable) const;  // -1 when absent
  EntryType TypeOf(const std::string& variable) const;
  // -1 when the property is not projected.
  int PropertyColumn(const std::string& variable,
                     const std::string& key) const;

  int id_column_count() const { return id_column_count_; }
  int property_column_count() const { return property_column_count_; }

  // All projected (variable, key) pairs ordered by property column index.
  // Scan kernels derive their projection from the compiled meta data
  // through this, so the compiler stays the single source of layouts.
  std::vector<std::pair<std::string, std::string>> PropertyColumnsInOrder()
      const;

  // All distinct columns bound to vertex / edge variables (morphism
  // uniqueness checks operate on these, not on raw columns, because a
  // merged embedding may contain duplicate columns for shared variables).
  std::vector<int> VertexColumns() const;
  std::vector<int> EdgeColumns() const;
  std::vector<int> PathColumns() const;

  // Variables present in this meta data.
  std::vector<std::string> Variables() const;

  // Meta data of Embedding::Merge(left, right): right id/property columns
  // shift by the left counts; variables already bound on the left keep
  // their left column.
  static EmbeddingMetaData Merge(const EmbeddingMetaData& left,
                                 const EmbeddingMetaData& right);

  std::string ToString() const;

 private:
  std::map<std::string, std::pair<int, EntryType>> id_columns_;
  std::map<std::pair<std::string, std::string>, int> property_columns_;
  int id_column_count_ = 0;
  int property_column_count_ = 0;
};

}  // namespace gradoop::query

#endif  // GRADOOP_QUERY_EMBEDDING_META_DATA_H_

#include "query/embedding_meta_data.h"

#include <cassert>

namespace gradoop::query {

int EmbeddingMetaData::AddIdColumn(const std::string& variable,
                                   EntryType type) {
  assert(!id_columns_.contains(variable));
  const int column = id_column_count_++;
  id_columns_.emplace(variable, std::make_pair(column, type));
  return column;
}

int EmbeddingMetaData::AddPropertyColumn(const std::string& variable,
                                         const std::string& key) {
  const int column = property_column_count_++;
  property_columns_.emplace(std::make_pair(variable, key), column);
  return column;
}

bool EmbeddingMetaData::HasVariable(const std::string& variable) const {
  return id_columns_.contains(variable);
}

int EmbeddingMetaData::IdColumn(const std::string& variable) const {
  auto it = id_columns_.find(variable);
  return it == id_columns_.end() ? -1 : it->second.first;
}

EntryType EmbeddingMetaData::TypeOf(const std::string& variable) const {
  auto it = id_columns_.find(variable);
  assert(it != id_columns_.end());
  return it->second.second;
}

int EmbeddingMetaData::PropertyColumn(const std::string& variable,
                                      const std::string& key) const {
  auto it = property_columns_.find(std::make_pair(variable, key));
  return it == property_columns_.end() ? -1 : it->second;
}

std::vector<int> EmbeddingMetaData::VertexColumns() const {
  std::vector<int> out;
  for (const auto& [var, entry] : id_columns_) {
    if (entry.second == EntryType::kVertex) out.push_back(entry.first);
  }
  return out;
}

std::vector<int> EmbeddingMetaData::EdgeColumns() const {
  std::vector<int> out;
  for (const auto& [var, entry] : id_columns_) {
    if (entry.second == EntryType::kEdge) out.push_back(entry.first);
  }
  return out;
}

std::vector<int> EmbeddingMetaData::PathColumns() const {
  std::vector<int> out;
  for (const auto& [var, entry] : id_columns_) {
    if (entry.second == EntryType::kPath) out.push_back(entry.first);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>>
EmbeddingMetaData::PropertyColumnsInOrder() const {
  // Property columns are dense: AddPropertyColumn assigns sequential
  // indices and Merge rebases without gaps.
  std::vector<std::pair<std::string, std::string>> out(
      static_cast<size_t>(property_column_count_));
  for (const auto& [key, column] : property_columns_) {
    out[static_cast<size_t>(column)] = key;
  }
  return out;
}

std::vector<std::string> EmbeddingMetaData::Variables() const {
  std::vector<std::string> out;
  out.reserve(id_columns_.size());
  for (const auto& [var, entry] : id_columns_) out.push_back(var);
  return out;
}

EmbeddingMetaData EmbeddingMetaData::Merge(const EmbeddingMetaData& left,
                                           const EmbeddingMetaData& right) {
  EmbeddingMetaData out = left;
  out.id_column_count_ = left.id_column_count_ + right.id_column_count_;
  out.property_column_count_ =
      left.property_column_count_ + right.property_column_count_;
  for (const auto& [var, entry] : right.id_columns_) {
    // Shared variables keep the left binding (both columns hold the same
    // id after an equi-join on that variable).
    out.id_columns_.emplace(
        var, std::make_pair(entry.first + left.id_column_count_,
                            entry.second));
  }
  for (const auto& [key, column] : right.property_columns_) {
    out.property_columns_.emplace(key,
                                  column + left.property_column_count_);
  }
  return out;
}

std::string EmbeddingMetaData::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [var, entry] : id_columns_) {
    if (!first) out += ", ";
    first = false;
    out += var + ":" + std::to_string(entry.first);
  }
  for (const auto& [key, column] : property_columns_) {
    if (!first) out += ", ";
    first = false;
    out += key.first + "." + key.second + ":" + std::to_string(column);
  }
  return out + "}";
}

}  // namespace gradoop::query

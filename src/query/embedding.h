#ifndef GRADOOP_QUERY_EMBEDDING_H_
#define GRADOOP_QUERY_EMBEDDING_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "epgm/property_value.h"

namespace gradoop::query {

// Compact binary representation of one (partial) query embedding (§3.3).
//
//   idEntry   := (ID, id)
//   pathEntry := (PATH, offset)
//   Embedding := idData[], pathData[], propData[]
//
// idData is an array of fixed-width entries — a one-byte flag followed by
// an 8-byte payload. ID entries hold a vertex/edge identifier; PATH
// entries hold a byte offset into pathData, where the path is stored as
// (path-length, ids...) with the alternating edge/vertex identifiers of a
// variable-length expansion. propData stores length-prefixed property
// values bound to query variables.
//
// Identifier and path entries are readable in constant time; property
// access walks the length prefixes. Merging two embeddings is append-only
// for ids and properties; path offsets of the right side are rebased.
//
// Column semantics (which query variable lives at which index) are NOT
// part of the embedding — they live in EmbeddingMetaData, maintained by
// the query operators.
class Embedding {
 public:
  static constexpr uint8_t kIdFlag = 0;
  static constexpr uint8_t kPathFlag = 1;
  static constexpr size_t kEntryWidth = 9;  // flag byte + 8-byte payload

  Embedding() = default;

  // --- id/path columns -----------------------------------------------

  int NumIdEntries() const {
    return static_cast<int>(id_data_.size() / kEntryWidth);
  }
  bool IsPathEntry(int column) const;
  // Identifier stored at `column` (must be an ID entry).
  uint64_t IdAt(int column) const;
  // Decoded path stored at `column` (must be a PATH entry): the
  // alternating edge/vertex ids between the expansion's endpoints.
  std::vector<uint64_t> PathAt(int column) const;

  void AppendId(uint64_t id);
  void AppendPath(const std::vector<uint64_t>& via_ids);

  // Adopts three byte arrays already in the layout above, without
  // copying or re-encoding them: `prop_data` holds `num_properties`
  // length-prefixed values. The batch-to-row conversion sizes each array
  // once, writes it with memcpy and hands it over through this.
  static Embedding FromEncoded(std::string id_data, std::string path_data,
                               std::string prop_data, int num_properties) {
    Embedding out;
    out.id_data_ = std::move(id_data);
    out.path_data_ = std::move(path_data);
    out.prop_data_ = std::move(prop_data);
    out.num_properties_ = num_properties;
    return out;
  }

  // True if any listed ID column holds `id` (morphism uniqueness checks).
  bool ContainsIdAt(uint64_t id, const std::vector<int>& columns) const;
  // True if any listed PATH column contains `id` among its even (edge) or
  // odd (vertex) positions; `edges` selects which alternation to scan.
  bool PathContains(uint64_t id, const std::vector<int>& path_columns,
                    bool edges) const;

  // --- property columns ----------------------------------------------

  int NumProperties() const { return num_properties_; }
  epgm::PropertyValue PropertyAt(int index) const;
  void AppendProperty(const epgm::PropertyValue& value);

  // --- merge / size ---------------------------------------------------

  // Concatenates two embeddings: ids and properties append; the right
  // side's path offsets are rebased by the left pathData length.
  static Embedding Merge(const Embedding& left, const Embedding& right);

  // Wire size: the three byte arrays plus their length headers.
  size_t SerializedSize() const {
    return 3 * sizeof(uint32_t) + id_data_.size() + path_data_.size() +
           prop_data_.size();
  }

  // Wire format: three length-prefixed byte arrays, appended to `out`.
  // The payload needs no re-encoding — the in-memory representation IS
  // the wire representation, which is the point of §3.3. DecodeFrom reads
  // one embedding back, advancing *pos.
  void EncodeTo(std::string* out) const;
  static Result<Embedding> DecodeFrom(const std::string& data, size_t* pos);

  bool operator==(const Embedding& other) const {
    return id_data_ == other.id_data_ && path_data_ == other.path_data_ &&
           prop_data_ == other.prop_data_;
  }

  // Raw storage accessors (tests, serialization).
  const std::string& id_data() const { return id_data_; }
  const std::string& path_data() const { return path_data_; }
  const std::string& prop_data() const { return prop_data_; }

  // Debug form: [10, path(5,20,7), 30 | Alice, Bob].
  std::string ToString() const;

 private:
  uint64_t PayloadAt(int column) const;

  std::string id_data_;
  std::string path_data_;
  std::string prop_data_;
  int num_properties_ = 0;
};

}  // namespace gradoop::query

#endif  // GRADOOP_QUERY_EMBEDDING_H_

// Kernel-level tests for the batch engine's join and convert kernels
// (docs/vectorized.md, "Vectorized kernels"):
//
//   - the build+probe kernel, driven through JoinBatches and
//     ValueJoinBatches, must emit exactly what a std::unordered_multimap
//     build table emits — same rows, same order, same batch boundaries —
//     for u64, pair and byte-string keys;
//   - the cross-side morphism check must keep exactly the pairs the full
//     SatisfiesMorphism check keeps, under every MorphismSetting, with
//     shared variables and with PATH columns;
//   - RowsToBatches followed by BatchesToRows must give back the input
//     rows byte for byte, selection vectors included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataflow/execution_context.h"
#include "query/batch_operators.h"
#include "query/embedding_meta_data.h"
#include "query/operators.h"

namespace gradoop::query {
namespace {

// One worker: the whole build side lands in one table, so the reference
// below can model the kernel's emission order exactly.
dataflow::ExecutionContextPtr OneWorker() {
  dataflow::ClusterConfig config;
  config.num_workers = 1;
  return dataflow::MakeContext(config);
}

BatchSet ToBatches(const dataflow::ExecutionContextPtr& ctx,
                   std::vector<Embedding> rows, const EmbeddingMetaData& meta,
                   int batch_size) {
  return RowsToBatches(
      {dataflow::Dataset<Embedding>::FromVector(ctx, std::move(rows)), meta},
      batch_size);
}

// Every output batch's active rows, batch by batch.
std::vector<std::vector<Embedding>> BatchRows(const BatchSet& set) {
  std::vector<std::vector<Embedding>> out;
  for (int p = 0; p < set.data.num_partitions(); ++p) {
    for (const EmbeddingBatch& b : set.data.partition(p)) {
      std::vector<Embedding> rows;
      for (uint32_t i = 0; i < b.ActiveRows(); ++i) {
        rows.push_back(b.RowAt(b.ActiveRow(i)));
      }
      out.push_back(std::move(rows));
    }
  }
  return out;
}

// Cuts `rows` into batch_size chunks — where the kernel's output batches
// break.
std::vector<std::vector<Embedding>> Chunk(const std::vector<Embedding>& rows,
                                          int batch_size) {
  std::vector<std::vector<Embedding>> out;
  for (size_t i = 0; i < rows.size(); i += batch_size) {
    out.emplace_back(rows.begin() + i,
                     rows.begin() + std::min(rows.size(), i + batch_size));
  }
  return out;
}

void ExpectSameBatches(const std::vector<std::vector<Embedding>>& actual,
                       const std::vector<std::vector<Embedding>>& expected,
                       const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what << ": batch count";
  for (size_t b = 0; b < expected.size(); ++b) {
    ASSERT_EQ(actual[b].size(), expected[b].size())
        << what << ": rows in batch " << b;
    for (size_t r = 0; r < expected[b].size(); ++r) {
      ASSERT_TRUE(actual[b][r] == expected[b][r])
          << what << ": batch " << b << " row " << r << ": "
          << actual[b][r].ToString() << " vs " << expected[b][r].ToString();
    }
  }
}

// Reference join: a std::unordered_multimap over the right rows in input
// order, probed with every left row in input order; a pair survives iff
// the full morphism check passes on the merged row.
template <typename Key, typename Hash, typename KeyOf>
std::vector<Embedding> ReferenceJoin(const std::vector<Embedding>& left,
                                     const std::vector<Embedding>& right,
                                     KeyOf key_of,
                                     const EmbeddingMetaData& merged_meta,
                                     const MorphismSetting& semantics) {
  std::unordered_multimap<Key, size_t, Hash> table;
  table.reserve(right.size());
  for (size_t i = 0; i < right.size(); ++i) {
    table.emplace(key_of(right[i], /*is_left=*/false), i);
  }
  std::vector<Embedding> out;
  for (const Embedding& l : left) {
    const auto [begin, end] = table.equal_range(key_of(l, /*is_left=*/true));
    for (auto it = begin; it != end; ++it) {
      Embedding merged = Embedding::Merge(l, right[it->second]);
      if (SatisfiesMorphism(merged, merged_meta, semantics)) {
        out.push_back(std::move(merged));
      }
    }
  }
  return out;
}

struct PairHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& k) const {
    return std::hash<uint64_t>()(k.first * 31 + k.second);
  }
};

// Key shapes of the id-join reference test.
enum class KeyKind { kU64, kPair, kBytes };

constexpr int KeyColumns(KeyKind kind) {
  return kind == KeyKind::kU64 ? 1 : kind == KeyKind::kPair ? 2 : 3;
}

// A side of the id-join test: key vertices k0..k{n-1}, one own vertex,
// one own string property (so merged property cells are compared too).
EmbeddingMetaData SideMeta(int key_columns, const std::string& own) {
  EmbeddingMetaData meta;
  for (int k = 0; k < key_columns; ++k) {
    meta.AddIdColumn("k" + std::to_string(k), EntryType::kVertex);
  }
  meta.AddIdColumn(own, EntryType::kVertex);
  meta.AddPropertyColumn(own, "name");
  return meta;
}

// `count` rows whose key takes values from `keys` in turn; own ids are
// unique per side and the property is the row number as a string (empty
// for every fifth row).
std::vector<Embedding> SideRows(int key_columns,
                                const std::vector<uint64_t>& keys,
                                size_t count, uint64_t own_base) {
  std::vector<Embedding> rows(count);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t key = keys.empty() ? 0 : keys[i % keys.size()];
    for (int k = 0; k < key_columns; ++k) {
      rows[i].AppendId(key * 1000 + static_cast<uint64_t>(k));
    }
    rows[i].AppendId(own_base + i);
    rows[i].AppendProperty(
        epgm::PropertyValue(i % 5 == 0 ? std::string() : std::to_string(i)));
  }
  return rows;
}

std::string IdKeyBytes(const Embedding& e, int key_columns) {
  std::string key;
  for (int k = 0; k < key_columns; ++k) {
    const uint64_t id = e.IdAt(k);
    char buf[8];
    std::memcpy(buf, &id, 8);
    key.append(buf, 8);
  }
  return key;
}

struct Shape {
  const char* name;
  std::vector<uint64_t> left_keys;
  size_t left_rows;
  std::vector<uint64_t> right_keys;
  size_t right_rows;
};

std::vector<Shape> Shapes() {
  return {
      {"heavy_duplicates", {1, 2, 3, 4, 5, 6}, 90, {1, 2, 3, 4, 5}, 120},
      // At most 20 build entries: the byte-key table's small-table order.
      {"small_build", {1, 2, 3}, 40, {1, 2, 3}, 14},
      {"all_keys_equal", {7}, 30, {7}, 60},
      {"empty_build", {1, 2}, 25, {}, 0},
      {"every_probe_missing", {10, 11, 12}, 50, {1, 2, 3}, 80},
  };
}

std::vector<Embedding> ReferenceIdJoin(KeyKind kind,
                                       const std::vector<Embedding>& left,
                                       const std::vector<Embedding>& right,
                                       const EmbeddingMetaData& merged_meta,
                                       const MorphismSetting& semantics) {
  switch (kind) {
    case KeyKind::kU64:
      return ReferenceJoin<uint64_t, std::hash<uint64_t>>(
          left, right, [](const Embedding& e, bool) { return e.IdAt(0); },
          merged_meta, semantics);
    case KeyKind::kPair:
      return ReferenceJoin<std::pair<uint64_t, uint64_t>, PairHash>(
          left, right,
          [](const Embedding& e, bool) {
            return std::make_pair(e.IdAt(0), e.IdAt(1));
          },
          merged_meta, semantics);
    case KeyKind::kBytes:
      return ReferenceJoin<std::string, std::hash<std::string>>(
          left, right,
          [](const Embedding& e, bool) { return IdKeyBytes(e, 3); },
          merged_meta, semantics);
  }
  return {};
}

TEST(BatchKernelsTest, IdJoinMatchesMultimapReference) {
  const auto ctx = OneWorker();
  const MorphismSetting semantics = MorphismSetting::FullHomomorphism();
  for (const KeyKind kind : {KeyKind::kU64, KeyKind::kPair, KeyKind::kBytes}) {
    const int n = KeyColumns(kind);
    const EmbeddingMetaData left_meta = SideMeta(n, "l");
    const EmbeddingMetaData right_meta = SideMeta(n, "r");
    const EmbeddingMetaData merged_meta =
        EmbeddingMetaData::Merge(left_meta, right_meta);
    std::vector<int> key_columns;
    for (int k = 0; k < n; ++k) key_columns.push_back(k);
    for (const Shape& shape : Shapes()) {
      const std::vector<Embedding> left =
          SideRows(n, shape.left_keys, shape.left_rows, 100000);
      const std::vector<Embedding> right =
          SideRows(n, shape.right_keys, shape.right_rows, 200000);
      const std::vector<Embedding> expected =
          ReferenceIdJoin(kind, left, right, merged_meta, semantics);
      for (const int batch_size : {1, 7, 1024}) {
        // Scattered and adopted inputs take different exchange paths to
        // the same single table.
        for (const bool adopt : {false, true}) {
          const BatchSet joined = JoinBatches(
              ToBatches(ctx, left, left_meta, batch_size),
              ToBatches(ctx, right, right_meta, batch_size), key_columns,
              key_columns, merged_meta, semantics,
              dataflow::JoinStrategy::kRepartition, {}, {adopt, adopt},
              batch_size);
          ExpectSameBatches(BatchRows(joined), Chunk(expected, batch_size),
                            std::string(shape.name) + " key_columns=" +
                                std::to_string(n) + " batch_size=" +
                                std::to_string(batch_size));
        }
      }
    }
  }
}

TEST(BatchKernelsTest, ValueJoinMatchesMultimapReference) {
  const auto ctx = OneWorker();
  const MorphismSetting semantics = MorphismSetting::FullHomomorphism();
  const EmbeddingMetaData left_meta = SideMeta(0, "l");
  const EmbeddingMetaData right_meta = SideMeta(0, "r");
  const EmbeddingMetaData merged_meta =
      EmbeddingMetaData::Merge(left_meta, right_meta);
  for (const Shape& shape : Shapes()) {
    // Key on the string property: row i carries "<key>" instead of its
    // row number.
    auto rows_of = [](const std::vector<uint64_t>& keys, size_t count,
                      uint64_t base) {
      std::vector<Embedding> rows(count);
      for (size_t i = 0; i < count; ++i) {
        rows[i].AppendId(base + i);
        rows[i].AppendProperty(epgm::PropertyValue(
            "v" + std::to_string(keys.empty() ? 0 : keys[i % keys.size()])));
      }
      return rows;
    };
    const std::vector<Embedding> left =
        rows_of(shape.left_keys, shape.left_rows, 100000);
    const std::vector<Embedding> right =
        rows_of(shape.right_keys, shape.right_rows, 200000);
    const std::vector<Embedding> expected =
        ReferenceJoin<std::string, std::hash<std::string>>(
            left, right,
            [](const Embedding& e, bool) {
              std::string key;
              e.PropertyAt(0).EncodeTo(&key);
              return key;
            },
            merged_meta, semantics);
    for (const int batch_size : {1, 7, 1024}) {
      const BatchSet joined = ValueJoinBatches(
          ToBatches(ctx, left, left_meta, batch_size),
          ToBatches(ctx, right, right_meta, batch_size), {0}, {0},
          merged_meta, semantics, dataflow::JoinStrategy::kRepartition, {},
          {}, batch_size);
      ExpectSameBatches(BatchRows(joined), Chunk(expected, batch_size),
                        std::string(shape.name) + " batch_size=" +
                            std::to_string(batch_size));
    }
  }
}

// Random rows over a small id range (so bindings collide often), kept
// only where the side's own morphism holds — the invariant every
// operator's output satisfies and the cross-side check relies on.
std::vector<Embedding> MorphismRows(const EmbeddingMetaData& meta,
                                    const MorphismSetting& semantics,
                                    size_t count, std::mt19937_64* rng) {
  std::uniform_int_distribution<uint64_t> id(1, 6);
  std::uniform_int_distribution<int> path_hops(0, 2);
  std::vector<Embedding> rows;
  while (rows.size() < count) {
    Embedding e;
    for (int c = 0; c < meta.id_column_count(); ++c) {
      bool is_path = false;
      for (const int p : meta.PathColumns()) is_path = is_path || p == c;
      if (is_path) {
        // e1, v1, e2, ..., ek: 2k-1 ids for k hops (k = 0: empty path).
        std::vector<uint64_t> via;
        const int hops = path_hops(*rng);
        for (int i = 0; i < 2 * hops - 1; ++i) via.push_back(id(*rng));
        e.AppendPath(via);
      } else {
        e.AppendId(id(*rng));
      }
    }
    if (SatisfiesMorphism(e, meta, semantics)) rows.push_back(std::move(e));
  }
  return rows;
}

TEST(BatchKernelsTest, CrossSideMorphismEqualsFullCheck) {
  const auto ctx = OneWorker();
  const MorphismSetting settings[] = {
      MorphismSetting::Neo4j(), MorphismSetting::FullIsomorphism(),
      MorphismSetting::FullHomomorphism(),
      {MatchSemantics::kIsomorphism, MatchSemantics::kHomomorphism}};
  // (a)-[e1]->(b) joined with (b)-[e2]->(c) on b; then a two-variable
  // share (a, b) joined on both; then a left side carrying a PATH column.
  struct Layout {
    const char* name;
    std::vector<std::pair<std::string, EntryType>> left;
    std::vector<std::pair<std::string, EntryType>> right;
    std::vector<int> left_keys;
    std::vector<int> right_keys;
  };
  const Layout layouts[] = {
      {"one_shared",
       {{"a", EntryType::kVertex},
        {"e1", EntryType::kEdge},
        {"b", EntryType::kVertex}},
       {{"b", EntryType::kVertex},
        {"e2", EntryType::kEdge},
        {"c", EntryType::kVertex}},
       {2},
       {0}},
      {"two_shared",
       {{"a", EntryType::kVertex},
        {"e1", EntryType::kEdge},
        {"b", EntryType::kVertex}},
       {{"b", EntryType::kVertex},
        {"e2", EntryType::kEdge},
        {"a", EntryType::kVertex},
        {"c", EntryType::kVertex}},
       {0, 2},
       {2, 0}},
      {"path",
       {{"a", EntryType::kVertex},
        {"p", EntryType::kPath},
        {"b", EntryType::kVertex}},
       {{"b", EntryType::kVertex},
        {"e2", EntryType::kEdge},
        {"c", EntryType::kVertex}},
       {2},
       {0}},
  };
  std::mt19937_64 rng(20);
  for (const Layout& layout : layouts) {
    EmbeddingMetaData left_meta;
    for (const auto& [var, type] : layout.left) {
      left_meta.AddIdColumn(var, type);
    }
    EmbeddingMetaData right_meta;
    for (const auto& [var, type] : layout.right) {
      right_meta.AddIdColumn(var, type);
    }
    const EmbeddingMetaData merged_meta =
        EmbeddingMetaData::Merge(left_meta, right_meta);
    for (const MorphismSetting& semantics : settings) {
      const std::vector<Embedding> left =
          MorphismRows(left_meta, semantics, 150, &rng);
      const std::vector<Embedding> right =
          MorphismRows(right_meta, semantics, 150, &rng);
      const auto key_of = [&layout](const Embedding& e, bool is_left) {
        std::string key;
        for (const int c : is_left ? layout.left_keys : layout.right_keys) {
          key += std::to_string(e.IdAt(c)) + ",";
        }
        return key;
      };
      std::vector<Embedding> expected =
          ReferenceJoin<std::string, std::hash<std::string>>(
              left, right, key_of, merged_meta, semantics);
      const BatchSet joined = JoinBatches(
          ToBatches(ctx, left, left_meta, 7),
          ToBatches(ctx, right, right_meta, 7), layout.left_keys,
          layout.right_keys, merged_meta, semantics,
          dataflow::JoinStrategy::kBroadcast, {}, {}, 1024);
      // The reference keys differ from the kernel's (decimal text, not
      // id bytes), so compare the surviving pairs as a multiset.
      std::vector<std::string> actual_rows;
      for (const auto& batch : BatchRows(joined)) {
        for (const Embedding& e : batch) {
          actual_rows.emplace_back();
          e.EncodeTo(&actual_rows.back());
        }
      }
      std::vector<std::string> expected_rows;
      for (const Embedding& e : expected) {
        expected_rows.emplace_back();
        e.EncodeTo(&expected_rows.back());
      }
      std::sort(actual_rows.begin(), actual_rows.end());
      std::sort(expected_rows.begin(), expected_rows.end());
      EXPECT_EQ(actual_rows, expected_rows)
          << layout.name << " vertex_iso="
          << (semantics.vertex == MatchSemantics::kIsomorphism)
          << " edge_iso=" << (semantics.edge == MatchSemantics::kIsomorphism);
      // Collisions must actually occur for the comparison to mean
      // anything: under full homomorphism every key-equal pair survives.
      if (semantics.vertex == MatchSemantics::kHomomorphism &&
          semantics.edge == MatchSemantics::kHomomorphism) {
        EXPECT_GT(expected_rows.size(), 0u) << layout.name;
      }
    }
  }
}

TEST(BatchKernelsTest, RowsToBatchesToRowsRoundTripsBytes) {
  const auto ctx = OneWorker();
  // Layouts: ids only (zero property columns), a PATH column between
  // ids, and properties including empty strings and NULLs.
  EmbeddingMetaData ids_only;
  ids_only.AddIdColumn("a", EntryType::kVertex);
  ids_only.AddIdColumn("e", EntryType::kEdge);
  EmbeddingMetaData with_path;
  with_path.AddIdColumn("a", EntryType::kVertex);
  with_path.AddIdColumn("p", EntryType::kPath);
  with_path.AddIdColumn("b", EntryType::kVertex);
  with_path.AddIdColumn("q", EntryType::kPath);
  with_path.AddPropertyColumn("a", "name");
  with_path.AddPropertyColumn("b", "age");
  with_path.AddPropertyColumn("b", "tag");

  const auto rows_of = [](const EmbeddingMetaData& meta, size_t count) {
    std::vector<Embedding> rows(count);
    for (size_t i = 0; i < count; ++i) {
      for (int c = 0; c < meta.id_column_count(); ++c) {
        bool is_path = false;
        for (const int p : meta.PathColumns()) is_path = is_path || p == c;
        if (is_path) {
          std::vector<uint64_t> via;
          for (size_t k = 0; k < (i + c) % 4; ++k) via.push_back(i * 10 + k);
          rows[i].AppendPath(via);
        } else {
          rows[i].AppendId(i * 100 + static_cast<uint64_t>(c));
        }
      }
      for (int c = 0; c < meta.property_column_count(); ++c) {
        switch ((i + c) % 4) {
          case 0:
            rows[i].AppendProperty(epgm::PropertyValue(std::string()));
            break;
          case 1:
            rows[i].AppendProperty(epgm::PropertyValue::Null());
            break;
          case 2:
            rows[i].AppendProperty(epgm::PropertyValue(
                static_cast<int64_t>(i)));
            break;
          default:
            rows[i].AppendProperty(
                epgm::PropertyValue("row " + std::to_string(i)));
        }
      }
    }
    return rows;
  };

  for (const EmbeddingMetaData* meta : {&ids_only, &with_path}) {
    const std::vector<Embedding> rows = rows_of(*meta, 50);
    for (const int batch_size : {1, 7, 1024}) {
      const BatchSet batches = ToBatches(ctx, rows, *meta, batch_size);
      const std::vector<Embedding> back =
          BatchesToRows(batches).data.Collect();
      ASSERT_EQ(back.size(), rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_TRUE(back[i] == rows[i])
            << "batch_size=" << batch_size << " row " << i << ": "
            << back[i].ToString() << " vs " << rows[i].ToString();
        EXPECT_EQ(back[i].NumProperties(), rows[i].NumProperties());
      }

      // Selection vectors: keep every third row of each batch (and none
      // of a batch whose rows are all skipped); only those come back.
      auto parts = std::make_shared<dataflow::Dataset<EmbeddingBatch>::
                                        Partitions>(1);
      std::vector<Embedding> selected_rows;
      size_t base = 0;
      for (const EmbeddingBatch& b : batches.data.partition(0)) {
        std::vector<uint32_t> selection;
        for (uint32_t r = 0; r < b.num_rows(); ++r) {
          if ((base + r) % 3 == 0) {
            selection.push_back(r);
            selected_rows.push_back(rows[base + r]);
          }
        }
        base += b.num_rows();
        (*parts)[0].push_back(b.WithSelection(std::move(selection)));
      }
      const BatchSet selected{
          dataflow::Dataset<EmbeddingBatch>(ctx, std::move(parts)), *meta};
      const std::vector<Embedding> selected_back =
          BatchesToRows(selected).data.Collect();
      ASSERT_EQ(selected_back.size(), selected_rows.size());
      for (size_t i = 0; i < selected_rows.size(); ++i) {
        ASSERT_TRUE(selected_back[i] == selected_rows[i])
            << "selected, batch_size=" << batch_size << " row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace gradoop::query

// Kernel-level tests for the batch engine's scan, join and convert kernels
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
//     rows byte for byte, selection vectors included, and
//     RowSerializedSize must price each row as RowAt would build it;
//   - the value-join key must read the bytes the decoded path built;
//   - the batch-native ExpandBatches must emit what the row round trip
//     RowsToBatches(ExpandEmbeddings(BatchesToRows(input))) emits — the
//     same rows, per-partition order and batch boundaries — and charge
//     the same stages minus the two conversions; the per-partition order
//     itself is pinned, and a cancel injected mid-hop must unwind with a
//     drained accountant;
//   - the batch leaf scans must emit, per partition, exactly the row
//     scans' rows, cut into batches across label boundaries, and charge
//     the same stage.
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
#include "epgm/adjacency_index.h"
#include "epgm/elements.h"
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

TEST(BatchKernelsTest, RowSerializedSizeEqualsTheBuiltRowsSize) {
  const auto ctx = OneWorker();
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  meta.AddIdColumn("p", EntryType::kPath);
  meta.AddIdColumn("b", EntryType::kVertex);
  meta.AddPropertyColumn("a", "name");
  meta.AddPropertyColumn("b", "age");
  std::vector<Embedding> rows(40);
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].AppendId(i);
    rows[i].AppendPath(std::vector<uint64_t>(i % 5, i));
    rows[i].AppendId(i + 1);
    rows[i].AppendProperty(i % 3 == 0 ? epgm::PropertyValue::Null()
                           : i % 3 == 1
                               ? epgm::PropertyValue(std::string())
                               : epgm::PropertyValue("name " +
                                                     std::to_string(i)));
    rows[i].AppendProperty(i % 2 == 0 ? epgm::PropertyValue::Null()
                                      : epgm::PropertyValue(int64_t{7}));
  }
  for (const int batch_size : {1, 7, 1024}) {
    const BatchSet batches = ToBatches(ctx, rows, meta, batch_size);
    for (const EmbeddingBatch& b : batches.data.partition(0)) {
      // A selection keeps the column store, so every row stays priced.
      std::vector<uint32_t> odd;
      for (uint32_t r = 1; r < b.num_rows(); r += 2) odd.push_back(r);
      for (const EmbeddingBatch& view : {b, b.WithSelection(odd)}) {
        for (uint32_t i = 0; i < view.ActiveRows(); ++i) {
          const uint32_t row = view.ActiveRow(i);
          EXPECT_EQ(view.RowSerializedSize(row),
                    view.RowAt(row).SerializedSize())
              << "batch_size=" << batch_size << " row " << row;
        }
      }
    }
  }
}

TEST(BatchKernelsTest, ValueJoinKeyReadsTheDecodedKeyBytes) {
  const std::vector<epgm::PropertyValue> values = {
      epgm::PropertyValue(true),
      epgm::PropertyValue(false),
      epgm::PropertyValue(int64_t{2}),
      epgm::PropertyValue(2.0),
      epgm::PropertyValue(int64_t{-7}),
      epgm::PropertyValue(-0.0),
      epgm::PropertyValue(0.0),
      epgm::PropertyValue(int64_t{0}),
      epgm::PropertyValue(std::string()),
      epgm::PropertyValue("Alice"),
      epgm::PropertyValue(std::vector<uint64_t>{3, 5}),
  };
  // One row per value; the second key column repeats the first shifted
  // by one row, so multi-column keys concatenate mixed types.
  EmbeddingBatch batch({Embedding::kIdFlag}, 2);
  for (size_t i = 0; i < values.size(); ++i) {
    batch.PushId(0, i);
    batch.PushProperty(values[i]);
    batch.PushProperty(values[(i + 1) % values.size()]);
    batch.CommitRow();
  }
  // The decoded path: each key property decoded, numerics re-encoded as
  // the double they equal.
  const auto decoded_key = [](const epgm::PropertyValue& v,
                              std::string* key) {
    if (v.is_numeric()) {
      epgm::PropertyValue(v.AsDouble()).EncodeTo(key);
    } else {
      v.EncodeTo(key);
    }
  };
  for (const std::vector<int>& columns :
       {std::vector<int>{0}, std::vector<int>{1, 0}}) {
    for (uint32_t row = 0; row < batch.num_rows(); ++row) {
      std::string expected;
      for (const int c : columns) decoded_key(batch.PropertyAt(c, row), &expected);
      std::string actual;
      AppendValueKey(batch, row, columns, &actual);
      EXPECT_EQ(actual, expected) << "row " << row;
      // Placement hashes the key bytes, so it follows.
      EXPECT_EQ(std::hash<std::string>()(actual),
                std::hash<std::string>()(expected));
    }
  }
  // 2 joins 2.0; -0.0 keeps its own bits, as the decoded path did.
  std::string two_int, two_double;
  AppendValueKey(batch, 2, {0}, &two_int);
  AppendValueKey(batch, 3, {0}, &two_double);
  EXPECT_EQ(two_int, two_double);
  std::string negative_zero, zero;
  AppendValueKey(batch, 5, {0}, &negative_zero);
  AppendValueKey(batch, 6, {0}, &zero);
  EXPECT_NE(negative_zero, zero);
}

// --- Expand ------------------------------------------------------------

dataflow::ExecutionContextPtr FourWorkers() {
  dataflow::ClusterConfig config;
  config.num_workers = 4;
  return dataflow::MakeContext(config);
}

// Random multigraph over vertices 1..num_vertices: self-loops, parallel
// edges and short cycles all occur.
dataflow::Dataset<epgm::Edge> RandomEdges(
    const dataflow::ExecutionContextPtr& ctx, uint32_t seed,
    uint64_t num_vertices, uint64_t num_edges) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<uint64_t> vertex(1, num_vertices);
  std::vector<epgm::Edge> edges;
  for (uint64_t i = 0; i < num_edges; ++i) {
    edges.emplace_back(1000 + i, "knows", vertex(rng), vertex(rng));
  }
  return dataflow::Dataset<epgm::Edge>::FromVector(ctx, std::move(edges));
}

// Every partition's batches, each as its active rows.
std::vector<std::vector<std::vector<Embedding>>> PartitionBatches(
    const BatchSet& set) {
  std::vector<std::vector<std::vector<Embedding>>> out;
  for (int p = 0; p < set.data.num_partitions(); ++p) {
    out.emplace_back();
    for (const EmbeddingBatch& b : set.data.partition(p)) {
      std::vector<Embedding> rows;
      for (uint32_t i = 0; i < b.ActiveRows(); ++i) {
        rows.push_back(b.RowAt(b.ActiveRow(i)));
      }
      out.back().push_back(std::move(rows));
    }
  }
  return out;
}

// The tracker's stages since `from`, without the row/batch conversions.
std::vector<dataflow::StageCost> StagesSince(
    const dataflow::ExecutionContext& ctx, size_t from) {
  std::vector<dataflow::StageCost> out;
  const std::vector<dataflow::StageCost> all = ctx.tracker().Stages();
  for (size_t i = from; i < all.size(); ++i) {
    if (all[i].label == "BatchesToRows" || all[i].label == "RowsToBatches") {
      continue;
    }
    out.push_back(all[i]);
  }
  return out;
}

struct ExpandCase {
  std::string name;
  std::vector<Embedding> rows;
  EmbeddingMetaData meta;
  std::string start;
  std::string end;  // bound when `meta` already holds it
  int lower = 1;
  int upper = 3;
  std::vector<cypher::CnfClause> residual;
};

// Runs `c` through ExpandBatches and through the row round trip at every
// batch size, under every morphism setting, in both directions, over
// input batches whose every third row is deselected; asserts identical
// partitions, batches and rows, identical stages and a drained
// accountant. Adds the rows emitted over all runs to *emitted.
void ExpectExpandMatchesRoundTrip(const dataflow::ExecutionContextPtr& ctx,
                                  const dataflow::Dataset<epgm::Edge>& edges,
                                  const ExpandCase& c, size_t* emitted) {
  const MorphismSetting settings[] = {
      MorphismSetting::Neo4j(), MorphismSetting::FullIsomorphism(),
      MorphismSetting::FullHomomorphism(),
      {MatchSemantics::kIsomorphism, MatchSemantics::kHomomorphism}};
  const int start_column = c.meta.IdColumn(c.start);
  const int bound_end_column = c.meta.IdColumn(c.end);
  EmbeddingMetaData result_meta = c.meta;
  result_meta.AddIdColumn("path_" + c.start, EntryType::kPath);
  if (bound_end_column < 0) result_meta.AddIdColumn(c.end, EntryType::kVertex);
  ctx->accountant().Enable();
  for (const bool reverse : {false, true}) {
    const epgm::AdjacencyIndex adjacency =
        epgm::AdjacencyIndex::Build(edges, reverse);
    for (const MorphismSetting& semantics : settings) {
      // Every operator emits rows that satisfy the morphism on their own
      // columns; so must the input here.
      std::vector<Embedding> rows;
      for (const Embedding& row : c.rows) {
        if (SatisfiesMorphism(row, c.meta, semantics)) rows.push_back(row);
      }
      for (const int batch_size : {1, 7, 1024}) {
        const BatchSet full = RowsToBatches(
            {dataflow::Dataset<Embedding>::FromVector(ctx, rows), c.meta},
            batch_size);
        const BatchSet input{full.data.Map([](const EmbeddingBatch& b) {
                               std::vector<uint32_t> selection;
                               for (uint32_t r = 0; r < b.num_rows(); ++r) {
                                 if (r % 3 != 1) selection.push_back(r);
                               }
                               return b.WithSelection(std::move(selection));
                             }),
                             c.meta};
        const std::string what =
            c.name + " reverse=" + std::to_string(reverse) +
            " batch_size=" + std::to_string(batch_size) + " semantics=" +
            std::to_string(static_cast<int>(semantics.vertex)) +
            std::to_string(static_cast<int>(semantics.edge));
        size_t mark = ctx->tracker().Stages().size();
        const BatchSet expected = RowsToBatches(
            ExpandEmbeddings(BatchesToRows(input), adjacency, start_column,
                             bound_end_column, result_meta, c.lower, c.upper,
                             semantics, c.residual),
            batch_size);
        const std::vector<dataflow::StageCost> expected_stages =
            StagesSince(*ctx, mark);
        mark = ctx->tracker().Stages().size();
        const BatchSet actual = ExpandBatches(
            input, adjacency, start_column, bound_end_column, result_meta,
            c.lower, c.upper, semantics, c.residual, batch_size);
        const std::vector<dataflow::StageCost> actual_stages =
            StagesSince(*ctx, mark);
        EXPECT_EQ(ctx->accountant().current_bytes(), 0u) << what;

        const auto want = PartitionBatches(expected);
        const auto got = PartitionBatches(actual);
        ASSERT_EQ(got.size(), want.size()) << what;
        for (size_t p = 0; p < want.size(); ++p) {
          ExpectSameBatches(got[p], want[p],
                            what + " partition " + std::to_string(p));
          for (size_t b = 0; b < want[p].size(); ++b) {
            // Pools and cell directories too, not only the rows they
            // rebuild.
            EXPECT_EQ(actual.data.partition(p)[b].SerializedSize(),
                      expected.data.partition(p)[b].SerializedSize())
                << what;
            *emitted += want[p][b].size();
          }
        }
        ASSERT_EQ(actual_stages.size(), expected_stages.size()) << what;
        for (size_t i = 0; i < expected_stages.size(); ++i) {
          const dataflow::StageCost& a = actual_stages[i];
          const dataflow::StageCost& e = expected_stages[i];
          EXPECT_EQ(a.label, e.label) << what << " stage " << i;
          EXPECT_EQ(a.compute_sec, e.compute_sec) << what << " " << e.label;
          EXPECT_EQ(a.network_sec, e.network_sec) << what << " " << e.label;
          EXPECT_EQ(a.spill_sec, e.spill_sec) << what << " " << e.label;
          EXPECT_EQ(a.latency_sec, e.latency_sec) << what << " " << e.label;
        }
      }
    }
  }
  ctx->accountant().Disable();
}

// Rows of vertex ids drawn from 1..num_vertices for the id columns of
// `meta` (edge columns from the edge id range), with string, empty,
// integer and NULL property cells.
std::vector<Embedding> ExpandInputRows(const EmbeddingMetaData& meta,
                                       size_t count, uint32_t seed,
                                       uint64_t num_vertices) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<uint64_t> vertex(1, num_vertices);
  std::uniform_int_distribution<uint64_t> edge(1000, 1060);
  const std::vector<int> edge_columns = meta.EdgeColumns();
  std::vector<Embedding> rows(count);
  for (size_t i = 0; i < count; ++i) {
    for (int c = 0; c < meta.id_column_count(); ++c) {
      const bool is_edge = std::find(edge_columns.begin(), edge_columns.end(),
                                     c) != edge_columns.end();
      rows[i].AppendId(is_edge ? edge(rng) : vertex(rng));
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
          rows[i].AppendProperty(epgm::PropertyValue(int64_t(i % 3)));
          break;
        default:
          rows[i].AppendProperty(
              epgm::PropertyValue("v" + std::to_string(i % 3)));
      }
    }
  }
  return rows;
}

TEST(BatchKernelsTest, ExpandMatchesTheRowRoundTrip) {
  const auto ctx = FourWorkers();
  const auto edges = RandomEdges(ctx, 7, 24, 60);

  // A fresh end over a base with a vertex, an edge and properties.
  EmbeddingMetaData wide;
  wide.AddIdColumn("a", EntryType::kVertex);
  wide.AddIdColumn("e", EntryType::kEdge);
  wide.AddIdColumn("x", EntryType::kVertex);
  wide.AddPropertyColumn("a", "name");
  wide.AddPropertyColumn("x", "age");
  const std::vector<Embedding> wide_rows = ExpandInputRows(wide, 30, 11, 24);
  size_t emitted = 0;
  for (const int lower : {0, 1, 2}) {
    ExpectExpandMatchesRoundTrip(
        ctx, edges,
        {"fresh end, lower " + std::to_string(lower), wide_rows, wide, "a",
         "b", lower, 3, {}}, &emitted);
  }

  // A bound end closes cycles: the path must return to b (some rows bind
  // a == b); the residual reads the path end's property.
  EmbeddingMetaData cycle;
  cycle.AddIdColumn("a", EntryType::kVertex);
  cycle.AddIdColumn("b", EntryType::kVertex);
  cycle.AddPropertyColumn("b", "name");
  std::vector<Embedding> cycle_rows = ExpandInputRows(cycle, 40, 13, 24);
  for (size_t i = 0; i < cycle_rows.size(); i += 4) {
    Embedding same;
    same.AppendId(cycle_rows[i].IdAt(0));
    same.AppendId(cycle_rows[i].IdAt(0));
    same.AppendProperty(cycle_rows[i].PropertyAt(0));
    cycle_rows[i] = same;
  }
  cypher::CnfClause end_not_v1;
  end_not_v1.atoms.push_back(cypher::Expression::Comparison(
      cypher::ComparisonOp::kNeq,
      cypher::Expression::PropertyAccess("b", "name"),
      cypher::Expression::Literal(epgm::PropertyValue("v1"))));
  for (const int lower : {0, 1}) {
    ExpectExpandMatchesRoundTrip(
        ctx, edges,
        {"bound end, lower " + std::to_string(lower), cycle_rows, cycle, "a",
         "b", lower, 4, {}}, &emitted);
    ExpectExpandMatchesRoundTrip(
        ctx, edges,
        {"bound end with residual, lower " + std::to_string(lower),
         cycle_rows, cycle, "a", "b", lower, 4, {end_not_v1}}, &emitted);
  }

  // A base that already holds a PATH column:
  // (a)-[*1..3]->(b)-[*0..2]->(c).
  EmbeddingMetaData single;
  single.AddIdColumn("a", EntryType::kVertex);
  single.AddPropertyColumn("a", "name");
  const std::vector<Embedding> single_rows =
      ExpandInputRows(single, 12, 17, 24);
  EmbeddingMetaData first_meta = single;
  first_meta.AddIdColumn("path_a", EntryType::kPath);
  first_meta.AddIdColumn("b", EntryType::kVertex);
  const std::vector<Embedding> first =
      ExpandEmbeddings(
          {dataflow::Dataset<Embedding>::FromVector(ctx, single_rows), single},
          epgm::AdjacencyIndex::Build(edges, false), 0, -1, first_meta, 1, 3,
          MorphismSetting::Neo4j())
          .data.Collect();
  ASSERT_FALSE(first.empty());
  ExpectExpandMatchesRoundTrip(
      ctx, edges, {"path base", first, first_meta, "b", "c", 0, 2, {}}, &emitted);
  EXPECT_GT(emitted, 0u);
}

TEST(BatchKernelsTest, ExpandMatchesTheRowRoundTripOnEdgeCases) {
  const auto ctx = FourWorkers();
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  meta.AddPropertyColumn("a", "name");

  // An empty input emits nothing, at any bound.
  const auto edges = RandomEdges(ctx, 3, 10, 30);
  size_t emitted = 0;
  for (const int lower : {0, 1}) {
    ExpectExpandMatchesRoundTrip(
        ctx, edges, {"empty input", {}, meta, "a", "b", lower, 3, {}},
        &emitted);
  }
  EXPECT_EQ(emitted, 0u);

  // A chain 1 -> 2 -> ... -> 6: the frontier dies after five hops, long
  // before the upper bound.
  std::vector<epgm::Edge> chain;
  for (uint64_t v = 1; v < 6; ++v) chain.emplace_back(500 + v, "knows", v, v + 1);
  const auto chain_edges =
      dataflow::Dataset<epgm::Edge>::FromVector(ctx, std::move(chain));
  const std::vector<Embedding> rows = ExpandInputRows(meta, 10, 5, 6);
  ExpectExpandMatchesRoundTrip(
      ctx, chain_edges, {"dying frontier", rows, meta, "a", "b", 1, 10, {}},
      &emitted);
  EXPECT_GT(emitted, 0u);
}

// FNV-1a over the encoded rows of every ExpandEmbeddings partition, in
// order, across directions, lower bounds and morphism settings.
uint64_t ExpandOrderDigest() {
  dataflow::ClusterConfig config;
  config.num_workers = 4;
  const auto ctx = dataflow::MakeContext(config);
  std::mt19937 rng(99);
  std::uniform_int_distribution<uint64_t> vertex(1, 20);
  std::vector<epgm::Edge> edge_list;
  for (uint64_t i = 0; i < 50; ++i) {
    edge_list.emplace_back(1000 + i, "knows", vertex(rng), vertex(rng));
  }
  const auto edges =
      dataflow::Dataset<epgm::Edge>::FromVector(ctx, std::move(edge_list));
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  meta.AddIdColumn("e", EntryType::kEdge);
  meta.AddIdColumn("x", EntryType::kVertex);
  meta.AddPropertyColumn("a", "name");
  uint64_t digest = 14695981039346656037ull;
  const auto mix = [&digest](const std::string& bytes) {
    for (const char ch : bytes) {
      digest = (digest ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    }
  };
  for (const MorphismSetting& semantics :
       {MorphismSetting::Neo4j(), MorphismSetting::FullIsomorphism()}) {
    std::vector<Embedding> rows;
    for (uint64_t i = 0; i < 24; ++i) {
      Embedding row;
      row.AppendId(vertex(rng));
      row.AppendId(1000 + i * 2);
      row.AppendId(vertex(rng));
      row.AppendProperty(epgm::PropertyValue("n" + std::to_string(i)));
      if (SatisfiesMorphism(row, meta, semantics)) rows.push_back(row);
    }
    const EmbeddingSet input{
        dataflow::Dataset<Embedding>::FromVector(ctx, std::move(rows)), meta};
    EmbeddingMetaData result_meta = meta;
    result_meta.AddIdColumn("p", EntryType::kPath);
    result_meta.AddIdColumn("b", EntryType::kVertex);
    for (const bool reverse : {false, true}) {
      const epgm::AdjacencyIndex adjacency =
          epgm::AdjacencyIndex::Build(edges, reverse);
      for (const int lower : {0, 1}) {
        const EmbeddingSet out =
            ExpandEmbeddings(input, adjacency, 0, -1, result_meta, lower, 3,
                             semantics);
        for (int p = 0; p < out.data.num_partitions(); ++p) {
          mix("partition " + std::to_string(p));
          for (const Embedding& e : out.data.partition(p)) {
            std::string encoded;
            e.EncodeTo(&encoded);
            mix(encoded);
          }
        }
      }
    }
  }
  return digest;
}

// The differential tests above compare the engines with each other; this
// pins the order itself. Every partition's rows must come out in the
// order of the paper's per-hop join: the frontier delivered to each
// partition source by source, each key's adjacency newest first, and hop
// k's rows after hop k-1's. The digest was taken on a hop loop that
// exchanged each frontier with Dataset::RepartitionByKey.
TEST(BatchKernelsTest, ExpandKeepsThePerPartitionOrderOfThePerHopJoin) {
  EXPECT_EQ(ExpandOrderDigest(), 0x6dc1a5d549d43c4full);
}

TEST(BatchKernelsTest, ExpandCancelledMidHopDrainsTheAccountant) {
  const auto ctx = FourWorkers();
  const auto edges = RandomEdges(ctx, 21, 30, 120);
  const epgm::AdjacencyIndex adjacency =
      epgm::AdjacencyIndex::Build(edges, false);
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  EmbeddingMetaData result_meta = meta;
  result_meta.AddIdColumn("p", EntryType::kPath);
  result_meta.AddIdColumn("b", EntryType::kVertex);
  const BatchSet input = RowsToBatches(
      {dataflow::Dataset<Embedding>::FromVector(
           ctx, ExpandInputRows(meta, 40, 23, 30)),
       meta},
      7);
  common::CancellationToken& token = ctx->cancellation();
  const auto run = [&] {
    return ExpandBatches(input, adjacency, 0, -1, result_meta, 1, 4,
                         MorphismSetting::FullHomomorphism(), {}, 7);
  };
  ctx->accountant().Enable();
  // Count the polls of a full run: the injection points below land in
  // its init pass, early hops and the last hop.
  token.InjectCancelAfter(UINT64_MAX);
  run();
  const uint64_t polls = token.polls();
  token.Reset();
  ASSERT_GT(polls, 40u);
  for (const uint64_t at : {uint64_t{20}, uint64_t{60}, polls / 3,
                            polls / 2, polls - 1}) {
    token.InjectCancelAfter(at);
    const BatchSet partial = run();
    EXPECT_TRUE(token.cancelled()) << "trip at poll " << at;
    EXPECT_EQ(ctx->accountant().current_bytes(), 0u) << "trip at poll " << at;
    EXPECT_EQ(ctx->pool().pending_tasks(), 0) << "trip at poll " << at;
    EXPECT_LE(partial.data.num_partitions(), 4);
    token.Reset();
  }
  ctx->accountant().Disable();
}

// --- Leaf scans ----------------------------------------------------------

cypher::CnfClause Clause(std::vector<cypher::ExpressionPtr> atoms) {
  return cypher::CnfClause{std::move(atoms)};
}

cypher::ExpressionPtr Compare(cypher::ComparisonOp op, const std::string& var,
                              const std::string& key,
                              epgm::PropertyValue value) {
  return cypher::Expression::Comparison(
      op, cypher::Expression::PropertyAccess(var, key),
      cypher::Expression::Literal(std::move(value)));
}

// Properties of the i-th element of a label dataset: `name` is missing on
// every third element and `age` on every fourth, where it is a string on
// another fourth (incomparable with numbers), so predicates meet NULLs and
// the projection writes NULL cells.
epgm::Properties ScanProperties(uint64_t i) {
  epgm::Properties props;
  if (i % 3 != 0) props.Set("name", "v" + std::to_string(i % 5));
  if (i % 4 == 2) {
    props.Set("age", "old");
  } else if (i % 4 != 1) {
    props.Set("age", static_cast<int64_t>(i % 50));
  }
  return props;
}

// One dataset per label, each of a different size, so label boundaries
// fall mid-batch and mid-partition.
std::vector<dataflow::Dataset<epgm::Vertex>> VertexLabels(
    const dataflow::ExecutionContextPtr& ctx) {
  std::vector<dataflow::Dataset<epgm::Vertex>> out;
  const std::vector<std::string> labels = {"Person", "Post", "Comment",
                                           "Forum"};
  for (size_t l = 0; l < labels.size(); ++l) {
    std::vector<epgm::Vertex> vertices;
    for (uint64_t i = 0; i < 9 + 11 * l; ++i) {
      vertices.emplace_back(100 * (l + 1) + i, labels[l], ScanProperties(i));
    }
    out.push_back(
        dataflow::Dataset<epgm::Vertex>::FromVector(ctx, std::move(vertices)));
  }
  return out;
}

// Edges over vertices 1..8: parallel edges, both directions, and a data
// self-loop on every fifth edge.
std::vector<dataflow::Dataset<epgm::Edge>> EdgeLabels(
    const dataflow::ExecutionContextPtr& ctx) {
  std::vector<dataflow::Dataset<epgm::Edge>> out;
  const std::vector<std::string> labels = {"knows", "likes", "hasCreator"};
  for (size_t l = 0; l < labels.size(); ++l) {
    std::vector<epgm::Edge> edges;
    for (uint64_t i = 0; i < 13 + 6 * l; ++i) {
      const uint64_t source = 1 + (i * 3 + l) % 8;
      const uint64_t target = i % 5 == 0 ? source : 1 + (i * 5 + 2) % 8;
      edges.emplace_back(1000 * (l + 1) + i, labels[l], source, target,
                         ScanProperties(i));
    }
    out.push_back(
        dataflow::Dataset<epgm::Edge>::FromVector(ctx, std::move(edges)));
  }
  return out;
}

// Runs a scan through both engines at batch sizes 1, 7 and 1024 and
// asserts that BatchesToRows of the batch scan equals the row scan
// element for element, per partition; that each partition's batches are
// its rows cut every batch_size rows, whatever label they came from; and
// that both engines charge the same stage. A narrow stage prices its
// output records, which the batch engine counts in batches, so the
// compute seconds agree only at batch size 1. Adds the rows scanned to
// *emitted.
template <typename ScanRowsFn, typename ScanBatchesFn>
void ExpectScansAgree(const dataflow::ExecutionContextPtr& ctx,
                      const std::string& name, const ScanRowsFn& scan_rows,
                      const ScanBatchesFn& scan_batches, size_t* emitted) {
  for (const int batch_size : {1, 7, 1024}) {
    const std::string what = name + " batch_size=" + std::to_string(batch_size);
    size_t mark = ctx->tracker().Stages().size();
    const EmbeddingSet rows = scan_rows();
    const std::vector<dataflow::StageCost> row_stages = StagesSince(*ctx, mark);
    mark = ctx->tracker().Stages().size();
    const BatchSet batches = scan_batches(batch_size);
    const std::vector<dataflow::StageCost> batch_stages =
        StagesSince(*ctx, mark);
    const EmbeddingSet converted = BatchesToRows(batches);
    const auto got = PartitionBatches(batches);
    ASSERT_EQ(converted.data.num_partitions(), rows.data.num_partitions());
    for (int p = 0; p < rows.data.num_partitions(); ++p) {
      const std::vector<Embedding>& want = rows.data.partition(p);
      const std::vector<Embedding>& have = converted.data.partition(p);
      ASSERT_EQ(have.size(), want.size()) << what << " partition " << p;
      for (size_t r = 0; r < want.size(); ++r) {
        ASSERT_TRUE(have[r] == want[r])
            << what << " partition " << p << " row " << r << ": "
            << have[r].ToString() << " vs " << want[r].ToString();
      }
      ExpectSameBatches(got[p], Chunk(want, batch_size),
                        what + " partition " + std::to_string(p));
      *emitted += want.size();
    }
    ASSERT_EQ(row_stages.size(), 1u) << what;
    ASSERT_EQ(batch_stages.size(), 1u) << what;
    const dataflow::StageCost& r = row_stages[0];
    const dataflow::StageCost& b = batch_stages[0];
    EXPECT_EQ(b.label, r.label) << what;
    EXPECT_EQ(b.network_sec, r.network_sec) << what;
    EXPECT_EQ(b.spill_sec, r.spill_sec) << what;
    EXPECT_EQ(b.latency_sec, r.latency_sec) << what;
    if (batch_size == 1) {
      EXPECT_EQ(b.compute_sec, r.compute_sec) << what;
    }
  }
}

TEST(BatchKernelsTest, VertexScanMatchesTheRowScan) {
  const auto ctx = FourWorkers();
  const auto labels = VertexLabels(ctx);
  const dataflow::DatasetList<epgm::Vertex> all(ctx, labels);
  const dataflow::DatasetList<epgm::Vertex> none(ctx, {});
  using cypher::ComparisonOp;
  struct Case {
    std::string name;
    const dataflow::DatasetList<epgm::Vertex>* list;
    std::vector<std::string> labels;
    std::vector<cypher::CnfClause> predicates;
    std::vector<std::string> projection;
    std::vector<cypher::CnfClause> residual;
  };
  const std::vector<Case> cases = {
      {"alternation", &all, {"Person", "Post"}, {}, {"name", "age"}, {}},
      {"predicates and residual",
       &all,
       {"Comment", "Person"},
       {Clause({Compare(ComparisonOp::kGt, "n", "age", int64_t{3})}),
        Clause({Compare(ComparisonOp::kEq, "n", "name", "v1"),
                Compare(ComparisonOp::kLt, "n", "age", int64_t{30})})},
       {"name", "ghost"},
       {Clause({Compare(ComparisonOp::kNeq, "n", "name", "v3")})}},
      {"any label",
       &all,
       {},
       {Clause({Compare(ComparisonOp::kLte, "n", "age", int64_t{20})})},
       {},
       {}},
      {"empty label list", &none, {"Post"}, {}, {"name"}, {}},
  };
  size_t emitted = 0;
  for (const Case& c : cases) {
    cypher::QueryVertex qv;
    qv.variable = "n";
    qv.labels = c.labels;
    EmbeddingMetaData meta;
    meta.AddIdColumn("n", EntryType::kVertex);
    for (const std::string& key : c.projection) {
      meta.AddPropertyColumn("n", key);
    }
    ExpectScansAgree(
        ctx, c.name,
        [&] {
          return SelectAndProjectVertices(*c.list, qv, c.predicates, meta,
                                          c.residual);
        },
        [&](int batch_size) {
          return ScanVerticesBatch(*c.list, qv, c.predicates, meta,
                                   c.residual, batch_size);
        },
        &emitted);
  }
  EXPECT_GT(emitted, 0u);
}

TEST(BatchKernelsTest, EdgeScanMatchesTheRowScan) {
  const auto ctx = FourWorkers();
  const auto labels = EdgeLabels(ctx);
  const dataflow::DatasetList<epgm::Edge> all(ctx, labels);
  const dataflow::DatasetList<epgm::Edge> none(ctx, {});
  using cypher::ComparisonOp;
  struct Case {
    std::string name;
    const dataflow::DatasetList<epgm::Edge>* list;
    std::vector<std::string> types;
    bool any_direction;
    bool self_loop;
    std::vector<cypher::CnfClause> predicates;
    std::vector<std::string> projection;
    std::vector<cypher::CnfClause> residual;
  };
  const std::vector<Case> cases = {
      {"directed", &all, {"knows", "hasCreator"}, false, false, {}, {"age"},
       {}},
      {"undirected with predicates and residual",
       &all,
       {"likes", "knows"},
       true,
       false,
       {Clause({Compare(ComparisonOp::kGte, "e", "age", int64_t{2})})},
       {"name", "age"},
       {Clause({Compare(ComparisonOp::kNeq, "e", "name", "v2")})}},
      {"self-loop pattern", &all, {}, false, true, {}, {"name"}, {}},
      {"undirected self-loop pattern", &all, {"hasCreator"}, true, true,
       {Clause({Compare(ComparisonOp::kLt, "e", "age", int64_t{40})})},
       {}, {}},
      {"empty label list", &none, {"knows"}, true, false, {}, {"age"}, {}},
  };
  // Vertex isomorphism drops data self-loops from non-loop patterns;
  // homomorphism keeps them.
  const MorphismSetting settings[] = {MorphismSetting::FullIsomorphism(),
                                      MorphismSetting::FullHomomorphism()};
  size_t emitted = 0;
  for (const Case& c : cases) {
    for (const MorphismSetting& semantics : settings) {
      cypher::QueryEdge qe;
      qe.variable = "e";
      qe.types = c.types;
      qe.any_direction = c.any_direction;
      EmbeddingMetaData meta;
      meta.AddIdColumn("s", EntryType::kVertex);
      meta.AddIdColumn("e", EntryType::kEdge);
      if (!c.self_loop) meta.AddIdColumn("t", EntryType::kVertex);
      for (const std::string& key : c.projection) {
        meta.AddPropertyColumn("e", key);
      }
      ExpectScansAgree(
          ctx,
          c.name + " vertex_iso=" +
              std::to_string(semantics.vertex == MatchSemantics::kIsomorphism),
          [&] {
            return SelectAndProjectEdges(*c.list, qe, c.predicates, semantics,
                                         c.self_loop, meta, c.residual);
          },
          [&](int batch_size) {
            return ScanEdgesBatch(*c.list, qe, c.predicates, semantics,
                                  c.self_loop, meta, c.residual, batch_size);
          },
          &emitted);
    }
  }
  EXPECT_GT(emitted, 0u);
}

TEST(BatchKernelsTest, EdgeScanAppliesTheSelfLoopRules) {
  const auto ctx = OneWorker();
  const dataflow::DatasetList<epgm::Edge> edges(
      dataflow::Dataset<epgm::Edge>::FromVector(
          ctx, {epgm::Edge(10, "knows", 1, 2), epgm::Edge(11, "knows", 3, 3)}));
  cypher::QueryEdge qe;
  qe.variable = "e";
  qe.any_direction = true;
  EmbeddingMetaData meta;
  meta.AddIdColumn("s", EntryType::kVertex);
  meta.AddIdColumn("e", EntryType::kEdge);
  EmbeddingMetaData loop_meta = meta;
  meta.AddIdColumn("t", EntryType::kVertex);
  const auto ids = [](const BatchSet& set) {
    std::vector<std::vector<uint64_t>> out;
    for (const std::vector<Embedding>& batch : BatchRows(set)) {
      for (const Embedding& row : batch) {
        std::vector<uint64_t> r;
        for (int c = 0; c < row.NumIdEntries(); ++c) r.push_back(row.IdAt(c));
        out.push_back(std::move(r));
      }
    }
    return out;
  };
  using Rows = std::vector<std::vector<uint64_t>>;
  // Undirected: the edge matches both ways, the data self-loop only once.
  EXPECT_EQ(ids(ScanEdgesBatch(edges, qe, {}, MorphismSetting::Neo4j(),
                               false, meta, {}, 7)),
            (Rows{{1, 10, 2}, {2, 10, 1}, {3, 11, 3}}));
  // Vertex isomorphism: a data self-loop cannot bind two query vertices.
  EXPECT_EQ(ids(ScanEdgesBatch(edges, qe, {},
                               MorphismSetting::FullIsomorphism(), false,
                               meta, {}, 7)),
            (Rows{{1, 10, 2}, {2, 10, 1}}));
  // A self-loop pattern keeps only data self-loops, once, in two columns.
  EXPECT_EQ(ids(ScanEdgesBatch(edges, qe, {},
                               MorphismSetting::FullIsomorphism(), true,
                               loop_meta, {}, 7)),
            (Rows{{3, 11}}));
}

}  // namespace
}  // namespace gradoop::query

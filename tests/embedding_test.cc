#include <gtest/gtest.h>

#include "query/embedding.h"
#include "query/embedding_meta_data.h"
#include "query/operators.h"

namespace gradoop::query {
namespace {

using epgm::PropertyValue;

TEST(EmbeddingTest, EmptyEmbedding) {
  Embedding e;
  EXPECT_EQ(e.NumIdEntries(), 0);
  EXPECT_EQ(e.NumProperties(), 0);
  EXPECT_EQ(e.SerializedSize(), 3 * sizeof(uint32_t));
}

TEST(EmbeddingTest, PaperSection33Example) {
  // The physical embedding for the second row of Table 2b:
  //   idData  = {ID,10, PATH,0, ID,30}
  //   pathData = {3, 5, 20, 7}
  //   propData = {5,Alice, 3,Bob}
  Embedding e;
  e.AppendId(10);
  e.AppendPath({5, 20, 7});
  e.AppendId(30);
  e.AppendProperty(PropertyValue("Alice"));
  e.AppendProperty(PropertyValue("Bob"));

  EXPECT_EQ(e.NumIdEntries(), 3);
  EXPECT_FALSE(e.IsPathEntry(0));
  EXPECT_TRUE(e.IsPathEntry(1));
  EXPECT_FALSE(e.IsPathEntry(2));
  EXPECT_EQ(e.IdAt(0), 10u);
  EXPECT_EQ(e.PathAt(1), (std::vector<uint64_t>{5, 20, 7}));
  EXPECT_EQ(e.IdAt(2), 30u);
  EXPECT_EQ(e.NumProperties(), 2);
  EXPECT_EQ(e.PropertyAt(0), PropertyValue("Alice"));
  EXPECT_EQ(e.PropertyAt(1), PropertyValue("Bob"));
}

TEST(EmbeddingTest, IdEntriesAreFixedWidth) {
  // Constant-time access relies on the 9-byte entry layout.
  Embedding e;
  for (uint64_t i = 0; i < 10; ++i) e.AppendId(i * 100);
  EXPECT_EQ(e.id_data().size(), 10 * Embedding::kEntryWidth);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(e.IdAt(i), static_cast<uint64_t>(i) * 100);
  }
}

TEST(EmbeddingTest, MultiplePathsUseOffsets) {
  Embedding e;
  e.AppendPath({1, 2, 3});
  e.AppendPath({4});
  e.AppendPath({});
  EXPECT_EQ(e.PathAt(0), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(e.PathAt(1), (std::vector<uint64_t>{4}));
  EXPECT_EQ(e.PathAt(2), (std::vector<uint64_t>{}));
}

TEST(EmbeddingTest, PropertyTypesRoundTrip) {
  Embedding e;
  e.AppendProperty(PropertyValue::Null());
  e.AppendProperty(PropertyValue(int64_t{2014}));
  e.AppendProperty(PropertyValue(2.5));
  e.AppendProperty(PropertyValue(true));
  e.AppendProperty(PropertyValue("Uni Leipzig"));
  EXPECT_TRUE(e.PropertyAt(0).is_null());
  EXPECT_EQ(e.PropertyAt(1), PropertyValue(int64_t{2014}));
  EXPECT_EQ(e.PropertyAt(2), PropertyValue(2.5));
  EXPECT_EQ(e.PropertyAt(3), PropertyValue(true));
  EXPECT_EQ(e.PropertyAt(4), PropertyValue("Uni Leipzig"));
}

TEST(EmbeddingTest, MergeAppendsAndRebasesPaths) {
  Embedding left;
  left.AppendId(10);
  left.AppendPath({5, 20, 7});
  left.AppendProperty(PropertyValue("Alice"));

  Embedding right;
  right.AppendPath({8, 9});
  right.AppendId(30);
  right.AppendProperty(PropertyValue("Bob"));

  Embedding merged = Embedding::Merge(left, right);
  EXPECT_EQ(merged.NumIdEntries(), 4);
  EXPECT_EQ(merged.IdAt(0), 10u);
  EXPECT_EQ(merged.PathAt(1), (std::vector<uint64_t>{5, 20, 7}));
  EXPECT_EQ(merged.PathAt(2), (std::vector<uint64_t>{8, 9}));  // rebased
  EXPECT_EQ(merged.IdAt(3), 30u);
  EXPECT_EQ(merged.NumProperties(), 2);
  EXPECT_EQ(merged.PropertyAt(0), PropertyValue("Alice"));
  EXPECT_EQ(merged.PropertyAt(1), PropertyValue("Bob"));
}

TEST(EmbeddingTest, MergeWithEmpty) {
  Embedding e;
  e.AppendId(1);
  e.AppendProperty(PropertyValue(int64_t{5}));
  Embedding empty;
  EXPECT_EQ(Embedding::Merge(e, empty), e);
  EXPECT_EQ(Embedding::Merge(empty, e), e);
}

TEST(EmbeddingTest, ContainsIdAt) {
  Embedding e;
  e.AppendId(10);
  e.AppendId(20);
  e.AppendPath({99});
  EXPECT_TRUE(e.ContainsIdAt(10, {0, 1}));
  EXPECT_TRUE(e.ContainsIdAt(20, {0, 1}));
  EXPECT_FALSE(e.ContainsIdAt(30, {0, 1}));
  // A path column never matches an id probe.
  EXPECT_FALSE(e.ContainsIdAt(99, {0, 1, 2}));
}

TEST(EmbeddingTest, PathContainsAlternation) {
  Embedding e;
  e.AppendId(1);
  e.AppendPath({5, 20, 7, 30, 9});  // edges 5,7,9; vertices 20,30
  EXPECT_TRUE(e.PathContains(5, {1}, /*edges=*/true));
  EXPECT_TRUE(e.PathContains(9, {1}, true));
  EXPECT_FALSE(e.PathContains(20, {1}, true));
  EXPECT_TRUE(e.PathContains(20, {1}, /*edges=*/false));
  EXPECT_TRUE(e.PathContains(30, {1}, false));
  EXPECT_FALSE(e.PathContains(5, {1}, false));
}

TEST(EmbeddingTest, WireFormatRoundTrip) {
  Embedding a;
  a.AppendId(10);
  a.AppendPath({5, 20, 7});
  a.AppendId(30);
  a.AppendProperty(PropertyValue("Alice"));
  a.AppendProperty(PropertyValue(int64_t{2014}));
  Embedding b;  // empty embedding round-trips too
  std::string wire;
  a.EncodeTo(&wire);
  b.EncodeTo(&wire);
  EXPECT_EQ(wire.size(), a.SerializedSize() + b.SerializedSize());

  size_t pos = 0;
  auto da = Embedding::DecodeFrom(wire, &pos);
  ASSERT_TRUE(da.ok()) << da.status();
  EXPECT_EQ(da.value(), a);
  EXPECT_EQ(da.value().NumProperties(), 2);
  EXPECT_EQ(da.value().PropertyAt(0), PropertyValue("Alice"));
  auto db = Embedding::DecodeFrom(wire, &pos);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value(), b);
  EXPECT_EQ(pos, wire.size());
}

TEST(EmbeddingTest, DecodeRejectsTruncatedWire) {
  Embedding a;
  a.AppendId(10);
  a.AppendProperty(PropertyValue("x"));
  std::string wire;
  a.EncodeTo(&wire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    size_t pos = 0;
    const std::string truncated = wire.substr(0, cut);
    EXPECT_FALSE(Embedding::DecodeFrom(truncated, &pos).ok())
        << "cut at " << cut;
  }
}

TEST(EmbeddingTest, SerializedSizeGrowsWithContent) {
  Embedding small;
  small.AppendId(1);
  Embedding large;
  large.AppendId(1);
  large.AppendPath({1, 2, 3, 4, 5});
  large.AppendProperty(PropertyValue("some longer string value"));
  EXPECT_GT(large.SerializedSize(), small.SerializedSize());
}

TEST(EmbeddingTest, ToStringIsReadable) {
  Embedding e;
  e.AppendId(10);
  e.AppendPath({5, 20, 7});
  e.AppendId(30);
  e.AppendProperty(PropertyValue("Alice"));
  EXPECT_EQ(e.ToString(), "[10, path(5,20,7), 30 | Alice]");
}

// --- EmbeddingMetaData ------------------------------------------------------

TEST(MetaDataTest, ColumnsAssignSequentially) {
  EmbeddingMetaData meta;
  EXPECT_EQ(meta.AddIdColumn("p1", EntryType::kVertex), 0);
  EXPECT_EQ(meta.AddIdColumn("s", EntryType::kEdge), 1);
  EXPECT_EQ(meta.AddIdColumn("u", EntryType::kVertex), 2);
  EXPECT_EQ(meta.AddPropertyColumn("p1", "name"), 0);
  EXPECT_EQ(meta.AddPropertyColumn("u", "name"), 1);

  EXPECT_EQ(meta.IdColumn("p1"), 0);
  EXPECT_EQ(meta.IdColumn("u"), 2);
  EXPECT_EQ(meta.IdColumn("ghost"), -1);
  EXPECT_EQ(meta.PropertyColumn("u", "name"), 1);
  EXPECT_EQ(meta.PropertyColumn("u", "city"), -1);
  EXPECT_EQ(meta.TypeOf("s"), EntryType::kEdge);
}

TEST(MetaDataTest, ColumnsByType) {
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  meta.AddIdColumn("e", EntryType::kEdge);
  meta.AddIdColumn("b", EntryType::kVertex);
  meta.AddIdColumn("p", EntryType::kPath);
  EXPECT_EQ(meta.VertexColumns(), (std::vector<int>{0, 2}));
  EXPECT_EQ(meta.EdgeColumns(), (std::vector<int>{1}));
  EXPECT_EQ(meta.PathColumns(), (std::vector<int>{3}));
}

TEST(MetaDataTest, MergeShiftsRightColumns) {
  EmbeddingMetaData left;
  left.AddIdColumn("a", EntryType::kVertex);
  left.AddIdColumn("e", EntryType::kEdge);
  left.AddPropertyColumn("a", "name");

  EmbeddingMetaData right;
  right.AddIdColumn("b", EntryType::kVertex);
  right.AddPropertyColumn("b", "name");

  EmbeddingMetaData merged = EmbeddingMetaData::Merge(left, right);
  EXPECT_EQ(merged.IdColumn("a"), 0);
  EXPECT_EQ(merged.IdColumn("e"), 1);
  EXPECT_EQ(merged.IdColumn("b"), 2);
  EXPECT_EQ(merged.PropertyColumn("a", "name"), 0);
  EXPECT_EQ(merged.PropertyColumn("b", "name"), 1);
  EXPECT_EQ(merged.id_column_count(), 3);
  EXPECT_EQ(merged.property_column_count(), 2);
}

TEST(MetaDataTest, MergeSharedVariableKeepsLeftColumn) {
  EmbeddingMetaData left;
  left.AddIdColumn("u", EntryType::kVertex);
  EmbeddingMetaData right;
  right.AddIdColumn("p2", EntryType::kVertex);
  right.AddIdColumn("u", EntryType::kVertex);  // shared join variable

  EmbeddingMetaData merged = EmbeddingMetaData::Merge(left, right);
  EXPECT_EQ(merged.IdColumn("u"), 0);  // left binding wins
  EXPECT_EQ(merged.IdColumn("p2"), 1);
  // Physical width still includes the duplicate column.
  EXPECT_EQ(merged.id_column_count(), 3);
  // VertexColumns addresses distinct variables only (no duplicate check
  // against the same variable's second copy).
  EXPECT_EQ(merged.VertexColumns().size(), 2u);
}

TEST(MetaDataTest, BoundClausesReadProjectedProperties) {
  EmbeddingMetaData meta;
  meta.AddIdColumn("p", EntryType::kVertex);
  meta.AddPropertyColumn("p", "name");
  Embedding e;
  e.AppendId(10);
  e.AppendProperty(PropertyValue("Alice"));
  const auto equals = [](const std::string& var, const std::string& key,
                         PropertyValue value) {
    return std::vector<cypher::CnfClause>{cypher::CnfClause{
        {cypher::Expression::Comparison(
            cypher::ComparisonOp::kEq,
            cypher::Expression::PropertyAccess(var, key),
            cypher::Expression::Literal(std::move(value)))}}};
  };
  EXPECT_TRUE(BoundClauses(equals("p", "name", "Alice"), meta).Passes(e));
  EXPECT_FALSE(BoundClauses(equals("p", "name", "Bob"), meta).Passes(e));
  // An unprojected property and an unbound variable read NULL, so an
  // equality on them is never true.
  EXPECT_FALSE(BoundClauses(equals("p", "ghost", "Alice"), meta).Passes(e));
  EXPECT_FALSE(BoundClauses(equals("q", "name", "Alice"), meta).Passes(e));
  EXPECT_TRUE(BoundClauses({}, meta).Passes(e));
  // The batch form reads the same cells, pending rows included.
  EmbeddingBatch b({Embedding::kIdFlag}, 1);
  b.PushId(0, 10);
  b.PushProperty(PropertyValue("Alice"));
  EXPECT_TRUE(BoundClauses(equals("p", "name", "Alice"), meta).Passes(b, 0));
  b.CommitRow();
  EXPECT_TRUE(BoundClauses(equals("p", "name", "Alice"), meta).Passes(b, 0));
  EXPECT_FALSE(BoundClauses(equals("p", "name", "Bob"), meta).Passes(b, 0));
}

}  // namespace
}  // namespace gradoop::query

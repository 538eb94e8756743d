#include "query/batch_operators.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/cancellation.h"
#include "dataflow/stage_charges.h"

namespace gradoop::query {

namespace dfl = ::gradoop::dataflow;

namespace {

// Hoisted morphism plan of one merge: the row engine re-reads the meta's
// column lists per embedding; the batch kernels resolve them once per
// operator. Every operator already emits rows that satisfy the morphism
// on their own columns, so a merged pair can only collide across sides:
// the plan lists each (left column, right-only column) pair the setting
// requires distinct and compares just those — no scratch, no sort. Only
// an edge check that reaches into PATH columns keeps the full check.
struct MorphismPlan {
  std::vector<int> vertex_columns;
  std::vector<int> edge_columns;
  std::vector<int> path_columns;
  bool vertex_iso = false;
  bool edge_iso = false;
  int left_columns = 0;
  bool full_check = false;
  // (left column, right batch column) pairs that must hold distinct ids.
  std::vector<std::pair<int, int>> cross_pairs;

  MorphismPlan(const EmbeddingMetaData& merged, int left_cols,
               const MorphismSetting& semantics)
      : vertex_columns(merged.VertexColumns()),
        edge_columns(merged.EdgeColumns()),
        path_columns(merged.PathColumns()),
        vertex_iso(semantics.vertex == MatchSemantics::kIsomorphism),
        edge_iso(semantics.edge == MatchSemantics::kIsomorphism),
        left_columns(left_cols),
        full_check(edge_iso && !path_columns.empty()) {
    const auto add_cross_pairs = [this](const std::vector<int>& columns) {
      for (const int l : columns) {
        if (l >= left_columns) continue;
        for (const int r : columns) {
          if (r >= left_columns) cross_pairs.emplace_back(l, r - left_columns);
        }
      }
    };
    if (vertex_iso) add_cross_pairs(vertex_columns);
    if (edge_iso) add_cross_pairs(edge_columns);
  }

  // Checks a (left row, right row) pair that has NOT been merged yet.
  // Lets the probe loop reject a pair before copying any cells — on
  // selective joins most candidates die here, and the speculative
  // append/rollback is reserved for pairs that still need the residual
  // clauses.
  bool PairSatisfies(const EmbeddingBatch& lb, uint32_t lrow,
                     const EmbeddingBatch& rb, uint32_t rrow,
                     std::vector<uint64_t>* scratch) const {
    if (full_check) return FullPairSatisfies(lb, lrow, rb, rrow, scratch);
    bool distinct = true;
    for (const auto& [l, r] : cross_pairs) {
      if (lb.IdAt(l, lrow) == rb.IdAt(r, rrow)) {
        distinct = false;
        break;
      }
    }
    assert(distinct == FullPairSatisfies(lb, lrow, rb, rrow, scratch) &&
           "cross-side morphism check disagrees with the full check");
    return distinct;
  }

  // The full check over every merged column, reading merged column c
  // from the side that owns it.
  bool FullPairSatisfies(const EmbeddingBatch& lb, uint32_t lrow,
                         const EmbeddingBatch& rb, uint32_t rrow,
                         std::vector<uint64_t>* scratch) const {
    const auto id_at = [&](int c) {
      return c < left_columns ? lb.IdAt(c, lrow)
                              : rb.IdAt(c - left_columns, rrow);
    };
    if (vertex_iso) {
      scratch->clear();
      for (const int c : vertex_columns) scratch->push_back(id_at(c));
      if (!AllDistinct(scratch)) return false;
    }
    if (edge_iso) {
      scratch->clear();
      for (const int c : edge_columns) scratch->push_back(id_at(c));
      for (const int c : path_columns) {
        const std::vector<uint64_t> via =
            c < left_columns ? lb.PathAt(c, lrow)
                             : rb.PathAt(c - left_columns, rrow);
        for (size_t i = 0; i < via.size(); i += 2) scratch->push_back(via[i]);
      }
      if (!AllDistinct(scratch)) return false;
    }
    return true;
  }
};

// Appends the row's join key — concatenated 8-byte ids, the byte string
// the row engine's JoinKeyOf produces, so both engines route every row
// through the same std::hash<std::string> placement.
void AppendIdKey(const EmbeddingBatch& b, uint32_t row,
                 const std::vector<int>& columns, std::string* key) {
  for (const int c : columns) {
    const uint64_t id = b.IdAt(c, row);
    char buf[8];
    std::memcpy(buf, &id, 8);
    key->append(buf, 8);
  }
}

using KeyWriter = void (*)(const EmbeddingBatch&, uint32_t,
                           const std::vector<int>&, std::string*);

// The placement policy of a batch join side (see dataflow::KeyPlacement):
// every active row belongs to std::hash<std::string> of its key bytes
// modulo p, so rows land where the row engine puts them and every elision
// proof holds. Route splits a batch row by row, compacting the rows bound
// for each worker into one sub-batch, so a filtered batch never
// serializes its dead rows into the exchange. The key is built in a
// scratch buffer the policy owns; the exchange copies the policy into each
// routing task, so the buffer is private to the task and stops allocating
// after its first rows.
template <KeyWriter kWriteKey>
class RowScatter {
 public:
  RowScatter(const std::vector<int>& columns, const EmbeddingMetaData& meta)
      : columns_(&columns),
        flags_(BatchColumnFlags(meta)),
        props_(meta.property_column_count()) {}

  // Two passes per batch: route every active row first, then compact each
  // target's rows with one column-major bulk gather (AppendRows) instead
  // of row-at-a-time appends.
  template <typename Emit>
  void Route(const EmbeddingBatch& b, size_t p, Emit&& emit) {
    rows_by_target_.resize(p);
    for (std::vector<uint32_t>& rows : rows_by_target_) rows.clear();
    ForEachActiveRow(b, p, [this](uint32_t row, size_t target) {
      rows_by_target_[target].push_back(row);
    });
    for (size_t target = 0; target < p; ++target) {
      const std::vector<uint32_t>& rows = rows_by_target_[target];
      if (rows.empty()) continue;
      EmbeddingBatch piece(flags_, props_);
      piece.AppendRows(b, rows);
      emit(static_cast<int>(target), std::move(piece));
    }
  }
  template <typename Fn>
  void ForEachRow(const EmbeddingBatch& b, size_t p, Fn&& fn) {
    ForEachActiveRow(b, p, [&fn](uint32_t, size_t target) { fn(target); });
  }
  static uint64_t Rows(const EmbeddingBatch& b) { return b.ActiveRows(); }

 private:
  // fn(row, target) for every active row of `b`, in order.
  template <typename Fn>
  void ForEachActiveRow(const EmbeddingBatch& b, size_t p, Fn&& fn) {
    const uint32_t active = b.ActiveRows();
    for (uint32_t i = 0; i < active; ++i) {
      const uint32_t row = b.ActiveRow(i);
      key_.clear();
      kWriteKey(b, row, *columns_, &key_);
      fn(row, std::hash<std::string>()(key_) % p);
    }
  }

  const std::vector<int>* columns_;
  std::vector<uint8_t> flags_;  // the side's batch layout
  int props_;
  std::string key_;
  std::vector<std::vector<uint32_t>> rows_by_target_;
};

// Everything the build+probe stage needs to merge a (left, right) row
// pair and decide whether it survives.
struct MergeParams {
  std::vector<uint8_t> flags;  // merged layout
  int props = 0;
  int left_id_columns = 0;
  MorphismPlan morphism;
  EmbeddingMetaData merged_meta;
  BoundClauses residual;  // bound to merged_meta
  int batch_size = 0;

  MergeParams(const EmbeddingMetaData& merged, int left_cols,
              const MorphismSetting& semantics,
              const std::vector<cypher::CnfClause>& residual_clauses,
              int size)
      : flags(BatchColumnFlags(merged)),
        props(merged.property_column_count()),
        left_id_columns(left_cols),
        morphism(merged, left_cols, semantics),
        merged_meta(merged),
        residual(residual_clauses, merged),
        batch_size(size) {}
};

// Fibonacci hashing: one multiply leaves the key's entropy in the high
// bits, which BuildTable uses as the slot. Placement was already decided
// by the exchange, so slot hashes only have to fill the table evenly.
constexpr uint64_t kFibonacci = 0x9e3779b97f4a7c15ull;

// Key policies of the build table: how each side's key is read off a row,
// stored, hashed into a slot and matched. One- and two-column id joins
// key on raw u64 columns, stored as they are, with no per-row key
// materialization.
template <typename K>
struct ValueKeys {
  using Key = K;
  using Stored = K;
  static constexpr bool kStdStringOrder = false;
  Stored Store(const Key& key) const { return key; }
  bool Matches(const Stored& stored, const Key& key) const {
    return stored == key;
  }
};

struct U64Key : ValueKeys<uint64_t> {
  int left_column;
  int right_column;

  U64Key(int left, int right) : left_column(left), right_column(right) {}
  Key Left(const EmbeddingBatch& b, uint32_t row) const {
    return b.IdAt(left_column, row);
  }
  Key Right(const EmbeddingBatch& b, uint32_t row) const {
    return b.IdAt(right_column, row);
  }
  static uint64_t Hash(Key key) { return key * kFibonacci; }
};

struct U64PairKey : ValueKeys<std::pair<uint64_t, uint64_t>> {
  std::pair<int, int> left_columns;
  std::pair<int, int> right_columns;

  U64PairKey(std::pair<int, int> left, std::pair<int, int> right)
      : left_columns(left), right_columns(right) {}
  Key Left(const EmbeddingBatch& b, uint32_t row) const {
    return {b.IdAt(left_columns.first, row),
            b.IdAt(left_columns.second, row)};
  }
  Key Right(const EmbeddingBatch& b, uint32_t row) const {
    return {b.IdAt(right_columns.first, row),
            b.IdAt(right_columns.second, row)};
  }
  static uint64_t Hash(const Key& key) {
    return ((key.first * kFibonacci) ^ key.second) * kFibonacci;
  }
};

// Every other join (3+ id columns, property values) keys on encoded bytes:
// a side's key is written into one scratch buffer, and the build side's
// keys are copied into one arena the table addresses by (offset, size).
template <KeyWriter kWriteKey>
class BytesKey {
 public:
  using Key = std::string_view;
  struct Stored {
    size_t offset;
    size_t size;
  };
  // The multimap this table replaced kept string keys in a different
  // order than u64 keys; BuildTable reproduces it (see Insert).
  static constexpr bool kStdStringOrder = true;

  BytesKey(const std::vector<int>& left_columns,
           const std::vector<int>& right_columns)
      : left_columns_(&left_columns), right_columns_(&right_columns) {}

  Key Left(const EmbeddingBatch& b, uint32_t row) {
    return Write(b, row, *left_columns_);
  }
  Key Right(const EmbeddingBatch& b, uint32_t row) {
    return Write(b, row, *right_columns_);
  }
  static uint64_t Hash(Key key) {
    return std::hash<std::string_view>()(key);
  }
  Stored Store(Key key) {
    const Stored stored{arena_.size(), key.size()};
    arena_.append(key);
    return stored;
  }
  bool Matches(const Stored& stored, Key key) const {
    return stored.size == key.size() &&
           std::memcmp(arena_.data() + stored.offset, key.data(),
                       key.size()) == 0;
  }

 private:
  Key Write(const EmbeddingBatch& b, uint32_t row,
            const std::vector<int>& columns) {
    scratch_.clear();
    kWriteKey(b, row, columns, &scratch_);
    return scratch_;
  }

  const std::vector<int>* left_columns_;
  const std::vector<int>* right_columns_;
  std::string scratch_;
  std::string arena_;
};

// The build side's hash table, one flat layout for every key policy.
// `head_` is a power-of-two slot array holding each slot's newest entry;
// `next_`, `keys_` and `where_` hold the entries in insertion order, so a
// build allocates a constant number of times and a probe walks plain
// arrays. A new entry goes onto the front of its slot's chain, so equal
// keys come back newest first — the order the node-based multimap this
// table replaced (libstdc++) returned u64 and pair keys in, so output
// batches keep their content, order and boundaries. An empty slot
// rejects a probe miss with one load, so no separate filter sits in front
// of the table. `head_` has at least two slots per entry and never fewer
// than 64, so even a one-row build side (a broadcast of a selective scan)
// rejects nearly every miss there.
template <typename Keys>
class BuildTable {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  explicit BuildTable(uint64_t entries) {
    assert(entries < kEnd && "build side exceeds the table's entry index");
    int bits = 6;
    while ((uint64_t{1} << bits) < 2 * entries) ++bits;
    head_.assign(size_t{1} << bits, kEnd);
    shift_ = 64 - bits;
    next_.reserve(entries);
    keys_.reserve(entries);
    where_.reserve(entries);
  }

  void Insert(Keys* keys, typename Keys::Key key, uint32_t batch,
              uint32_t row) {
    const uint32_t entry = static_cast<uint32_t>(next_.size());
    uint32_t& slot = head_[Keys::Hash(key) >> shift_];
    uint32_t* link = &slot;
    if constexpr (Keys::kStdStringOrder) {
      // libstdc++'s multimap scans a table of at most 20 entries for an
      // equal key and links the new entry right behind the first one
      // found; larger tables link it in front of its equals. Mirroring
      // that keeps byte-keyed joins emitting what they emitted before.
      if (entry <= 20) {
        for (uint32_t e = slot; e != kEnd; e = next_[e]) {
          if (keys->Matches(keys_[e], key)) {
            link = &next_[e];
            break;
          }
        }
      }
    }
    next_.push_back(*link);
    *link = entry;
    keys_.push_back(keys->Store(key));
    where_.emplace_back(batch, row);
  }

  // First entry of the chain `hash` falls into; walk it with Next and
  // compare keys — the chain also holds other keys of the same slot.
  uint32_t Head(uint64_t hash) const { return head_[hash >> shift_]; }
  uint32_t Next(uint32_t entry) const { return next_[entry]; }
  const typename Keys::Stored& KeyOf(uint32_t entry) const {
    return keys_[entry];
  }
  // (build batch, row) of an entry.
  std::pair<uint32_t, uint32_t> Where(uint32_t entry) const {
    return where_[entry];
  }

 private:
  std::vector<uint32_t> head_;
  std::vector<uint32_t> next_;
  std::vector<typename Keys::Stored> keys_;
  std::vector<std::pair<uint32_t, uint32_t>> where_;
  int shift_ = 0;
};

// The vectorized probe loop: builds the flat table over the build
// (right) side's active rows, probes with every left row and appends
// surviving merged rows. The build side is read in place, so the chain a
// broadcast hands every worker is shared, not copied.
template <typename Keys>
void BuildProbeMerge(const std::vector<EmbeddingBatch>& left_batches,
                     const dfl::ChainedPartition<EmbeddingBatch>& build,
                     Keys keys, const MergeParams& mp,
                     std::vector<EmbeddingBatch>* dst,
                     dfl::BuildSideStats* st,
                     common::CancellationToken& cancel) {
  // Build over the right side (HashJoin's build side), one entry per
  // active row addressed as (batch index, row).
  std::vector<const EmbeddingBatch*> right_batches;
  right_batches.reserve(build.size());
  // cancellation: O(batches) prepass; the build loop below polls.
  for (const EmbeddingBatch& b : build) {
    right_batches.push_back(&b);
    st->state_records += b.ActiveRows();
    st->state_bytes += b.SerializedSize();
  }
  BuildTable<Keys> table(st->state_records);
  for (uint32_t bi = 0; bi < right_batches.size(); ++bi) {
    if (cancel.CheckCancelled()) break;
    const EmbeddingBatch& b = *right_batches[bi];
    const uint32_t active = b.ActiveRows();
    for (uint32_t i = 0; i < active; ++i) {
      const uint32_t row = b.ActiveRow(i);
      table.Insert(&keys, keys.Right(b, row), bi, row);
    }
  }

  EmbeddingBatch builder(mp.flags, mp.props);
  auto flush = [&] {
    if (builder.num_rows() == 0) return;
    dst->push_back(std::move(builder));
    builder = EmbeddingBatch(mp.flags, mp.props);
  };
  std::vector<uint64_t> scratch;
  const bool no_residual = mp.residual.empty();
  std::vector<EmbeddingBatch::MergePair> pairs;
  for (const EmbeddingBatch& lb : left_batches) {
    if (cancel.CheckCancelled()) break;
    const uint32_t active = lb.ActiveRows();
    for (uint32_t i = 0; i < active; ++i) {
      const uint32_t lrow = lb.ActiveRow(i);
      const typename Keys::Key probe = keys.Left(lb, lrow);
      for (uint32_t e = table.Head(Keys::Hash(probe));
           e != BuildTable<Keys>::kEnd; e = table.Next(e)) {
        if (!keys.Matches(table.KeyOf(e), probe)) continue;
        const auto [bi, rrow] = table.Where(e);
        const EmbeddingBatch& rb = *right_batches[bi];
        // Morphism first, straight off the source rows: on selective
        // joins most pairs die here without a single cell copied.
        if (!mp.morphism.PairSatisfies(lb, lrow, rb, rrow, &scratch)) {
          continue;
        }
        if (no_residual) {
          // No residual to check on the merged row: defer the copy and
          // bulk-gather all of this probe batch's survivors below.
          pairs.push_back({lrow, &rb, rrow});
          continue;
        }
        // Speculative merge: lay the left and right slices side by side,
        // check the fused residual on the pending row, and either commit
        // or roll back — the batch analogue of build-Merge-then-drop in
        // the row FlatJoin.
        const EmbeddingBatch::RowMark mark = builder.Mark();
        builder.AppendRowCells(lb, lrow, 0);
        builder.AppendRowCells(rb, rrow, mp.left_id_columns);
        if (!mp.residual.Passes(builder, builder.num_rows())) {
          builder.Rollback(mark);
          continue;
        }
        builder.CommitRow();
        if (static_cast<int>(builder.num_rows()) >= mp.batch_size) flush();
      }
    }
    // Column-major merge of the survivors, chunked at the batch size so
    // output batches break exactly where the row-at-a-time path breaks.
    size_t done = 0;
    while (done < pairs.size()) {
      const size_t room =
          static_cast<size_t>(mp.batch_size) - builder.num_rows();
      const size_t take = std::min(room, pairs.size() - done);
      builder.AppendMergedRows(lb, mp.left_id_columns, pairs, done, take);
      done += take;
      if (static_cast<int>(builder.num_rows()) >= mp.batch_size) flush();
    }
    pairs.clear();
  }
  flush();
}

}  // namespace

// Every encoded cell but an int64 is already its key encoding; an int64
// is re-encoded as the double it equals. No cell is decoded.
void AppendValueKey(const EmbeddingBatch& b, uint32_t row,
                    const std::vector<int>& columns, std::string* key) {
  using Type = epgm::PropertyValue::Type;
  for (const int c : columns) {
    const std::string_view cell = b.PropertyCellAt(c, row);
    const Type type = EmbeddingBatch::CellType(cell);
    assert(type != Type::kNull && "NULL keys must be pruned before the join");
    if (type == Type::kInt64) {
      int64_t value;
      std::memcpy(&value, cell.data() + 1, sizeof(value));
      epgm::PropertyValue(static_cast<double>(value)).EncodeTo(key);
    } else {
      key->append(cell);
    }
  }
}

BatchSet RowsToBatches(const EmbeddingSet& rows, int batch_size) {
  assert(batch_size > 0);
  std::vector<uint8_t> flags = BatchColumnFlags(rows.meta);
  const int props = rows.meta.property_column_count();
  common::CancellationToken& cancel = rows.data.context()->cancellation();
  auto data = rows.data.MapPartition<EmbeddingBatch>(
      [flags = std::move(flags), props, batch_size, &cancel](
          int /*partition*/, const std::vector<Embedding>& src,
          std::vector<EmbeddingBatch>* out) {
        EmbeddingBatch builder(flags, props);
        for (const Embedding& e : src) {
          if (cancel.CheckCancelled()) break;
          builder.AppendRow(e);
          if (static_cast<int>(builder.num_rows()) >= batch_size) {
            out->push_back(std::move(builder));
            builder = EmbeddingBatch(flags, props);
          }
        }
        if (builder.num_rows() > 0) out->push_back(std::move(builder));
      },
      "RowsToBatches");
  return {std::move(data), rows.meta};
}

namespace {

// The root conversion's narrow stage: a FlatMap from each partition's
// batches to its `rows`, charged by BatchesToRows and by CountBatchRows,
// which skips the conversion but not its charge.
void ChargeBatchesToRows(const BatchSet& batches,
                         const std::vector<uint64_t>& rows) {
  std::vector<uint64_t> in_counts(rows.size(), 0);
  for (size_t p = 0; p < rows.size(); ++p) {
    in_counts[p] = batches.data.partition(static_cast<int>(p)).size();
  }
  dfl::ChargeNarrow(*batches.data.context(), "BatchesToRows", in_counts,
                    rows);
}

}  // namespace

EmbeddingSet BatchesToRows(const BatchSet& batches) {
  dfl::ExecutionContext& ctx = *batches.data.context();
  common::CancellationToken& cancel = ctx.cancellation();
  const int p = batches.data.num_partitions();
  auto out = std::make_shared<dfl::Dataset<Embedding>::Partitions>(p);
  std::vector<uint64_t> rows(p, 0);
  // Polled once per batch like a FlatMap; the partition view lets the
  // output vector be sized once.
  ctx.pool().RunAndWait(
      p,
      [&](int t) {
        const std::vector<EmbeddingBatch>& src = batches.data.partition(t);
        std::vector<Embedding>& dst = (*out)[t];
        size_t active = 0;
        // cancellation: O(batches) size prepass; the loop below polls.
        for (const EmbeddingBatch& b : src) active += b.ActiveRows();
        dst.reserve(active);
        for (const EmbeddingBatch& b : src) {
          if (cancel.CheckCancelled()) break;
          const uint32_t n = b.ActiveRows();
          for (uint32_t i = 0; i < n; ++i) {
            dst.push_back(b.RowAt(b.ActiveRow(i)));
          }
        }
        rows[t] = dst.size();
      },
      "BatchesToRows");
  ChargeBatchesToRows(batches, rows);
  return {dfl::Dataset<Embedding>(batches.data.context(), std::move(out)),
          batches.meta};
}

uint64_t CountBatchRows(const BatchSet& batches) {
  const int p = batches.data.num_partitions();
  std::vector<uint64_t> rows(p, 0);
  uint64_t total = 0;
  for (int t = 0; t < p; ++t) {
    // cancellation: O(batches) sum over a materialized root; every kernel
    // that produced the batches polled.
    for (const EmbeddingBatch& b : batches.data.partition(t)) {
      rows[t] += b.ActiveRows();
    }
    total += rows[t];
  }
  ChargeBatchesToRows(batches, rows);
  return total;
}

BatchSet SelectBatches(const BatchSet& input,
                       const std::vector<cypher::CnfClause>& clauses) {
  const BoundClauses bound(clauses, input.meta);
  // The select-loop: no row moves — the survivors' indices become the
  // batch's selection vector over the shared column store.
  auto data = input.data.Map(
      [&bound](const EmbeddingBatch& b) {
        std::vector<uint32_t> selected;
        const uint32_t active = b.ActiveRows();
        selected.reserve(active);
        for (uint32_t i = 0; i < active; ++i) {
          const uint32_t row = b.ActiveRow(i);
          if (bound.Passes(b, row)) {
            selected.push_back(row);
          }
        }
        return b.WithSelection(std::move(selected));
      },
      "SelectEmbeddings");
  return {std::move(data), input.meta};
}

BatchSet JoinBatches(const BatchSet& left, const BatchSet& right,
                     const std::vector<int>& left_columns,
                     const std::vector<int>& right_columns,
                     const EmbeddingMetaData& merged_meta,
                     const MorphismSetting& semantics,
                     dataflow::JoinStrategy strategy,
                     const std::vector<cypher::CnfClause>& residual,
                     dataflow::JoinShuffleHints hints, int batch_size) {
  assert(left_columns.size() == right_columns.size());
  const MergeParams mp(merged_meta, left.meta.id_column_count(), semantics,
                       residual, batch_size);
  common::CancellationToken& cancel = left.data.context()->cancellation();
  const auto merge = [&](const std::vector<EmbeddingBatch>& ls,
                         const dfl::ChainedPartition<EmbeddingBatch>& rs,
                         std::vector<EmbeddingBatch>* dst,
                         dfl::BuildSideStats* st) {
    if (left_columns.size() == 1) {
      BuildProbeMerge(ls, rs, U64Key(left_columns[0], right_columns[0]), mp,
                      dst, st, cancel);
    } else if (left_columns.size() == 2) {
      // E.g. closing a triangle: a packed u64 pair, no key strings.
      BuildProbeMerge(ls, rs,
                      U64PairKey({left_columns[0], left_columns[1]},
                                 {right_columns[0], right_columns[1]}),
                      mp, dst, st, cancel);
    } else {
      BuildProbeMerge(ls, rs,
                      BytesKey<AppendIdKey>(left_columns, right_columns), mp,
                      dst, st, cancel);
    }
  };
  return {left.data.EquiJoin<EmbeddingBatch>(
              right.data, RowScatter<AppendIdKey>(left_columns, left.meta),
              RowScatter<AppendIdKey>(right_columns, right.meta), merge,
              strategy, "JoinEmbeddings", hints),
          merged_meta};
}

BatchSet ValueJoinBatches(const BatchSet& left, const BatchSet& right,
                          const std::vector<int>& left_key_columns,
                          const std::vector<int>& right_key_columns,
                          const EmbeddingMetaData& merged_meta,
                          const MorphismSetting& semantics,
                          dataflow::JoinStrategy strategy,
                          const std::vector<cypher::CnfClause>& residual,
                          dataflow::JoinShuffleHints hints, int batch_size) {
  assert(left_key_columns.size() == right_key_columns.size() &&
         !left_key_columns.empty());
  // Rows with NULL keys can never match (Cypher equality with NULL is
  // NULL); a selection pass masks them before the exchange — the batch
  // form of the row engine's pre-join prune Filters.
  auto prune = [](const BatchSet& side, const std::vector<int>& columns,
                  const char* label) {
    return side.data.Map(
        [columns](const EmbeddingBatch& b) {
          std::vector<uint32_t> selected;
          const uint32_t active = b.ActiveRows();
          selected.reserve(active);
          for (uint32_t i = 0; i < active; ++i) {
            const uint32_t row = b.ActiveRow(i);
            bool has_null = false;
            for (const int c : columns) {
              if (EmbeddingBatch::CellType(b.PropertyCellAt(c, row)) ==
                  epgm::PropertyValue::Type::kNull) {
                has_null = true;
                break;
              }
            }
            if (!has_null) selected.push_back(row);
          }
          return b.WithSelection(std::move(selected));
        },
        label);
  };
  const BatchSet pruned_left{
      prune(left, left_key_columns, "ValueJoinPruneLeft"), left.meta};
  const BatchSet pruned_right{
      prune(right, right_key_columns, "ValueJoinPruneRight"), right.meta};
  const MergeParams mp(merged_meta, left.meta.id_column_count(), semantics,
                       residual, batch_size);
  common::CancellationToken& cancel = left.data.context()->cancellation();
  const auto merge = [&](const std::vector<EmbeddingBatch>& ls,
                         const dfl::ChainedPartition<EmbeddingBatch>& rs,
                         std::vector<EmbeddingBatch>* dst,
                         dfl::BuildSideStats* st) {
    BuildProbeMerge(ls, rs,
                    BytesKey<AppendValueKey>(left_key_columns,
                                             right_key_columns),
                    mp, dst, st, cancel);
  };
  return {pruned_left.data.EquiJoin<EmbeddingBatch>(
              pruned_right.data,
              RowScatter<AppendValueKey>(left_key_columns, left.meta),
              RowScatter<AppendValueKey>(right_key_columns, right.meta), merge,
              strategy, "ValueJoinEmbeddings", hints),
          merged_meta};
}

}  // namespace gradoop::query

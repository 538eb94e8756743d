#include "query/batch_operators.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/cancellation.h"
#include "dataflow/partitioning_audit.h"
#include "query/exec/batch_layout.h"

namespace gradoop::query {

namespace dfl = ::gradoop::dataflow;

namespace {

using BatchDataset = dfl::Dataset<EmbeddingBatch>;

// Resolver over a raw element during leaf scans: only the scanned
// variable's properties are in scope (the row kernels' ElementResolver).
cypher::ValueResolver ElementResolver(std::string variable,
                                      const epgm::Properties& properties) {
  return [variable = std::move(variable), &properties](
             const std::string& var,
             const std::string& key) -> epgm::PropertyValue {
    if (var != variable) return epgm::PropertyValue::Null();
    return properties.Get(key);
  };
}

bool EvaluateClauses(const std::vector<cypher::CnfClause>& clauses,
                     const cypher::ValueResolver& resolver) {
  for (const cypher::CnfClause& clause : clauses) {
    if (!cypher::EvaluateClause(clause, resolver)) return false;
  }
  return true;
}

// Clause evaluation against one batch row — the columnar counterpart of
// EmbeddingMetaData::MakeResolver. Also valid for the *pending* row of a
// builder (cells pushed, CommitRow not yet called), which is how the
// kernels evaluate fused residuals speculatively before committing.
bool RowPassesClauses(const std::vector<cypher::CnfClause>& clauses,
                      const EmbeddingMetaData& meta, const EmbeddingBatch& b,
                      uint32_t row) {
  if (clauses.empty()) return true;
  const auto resolver = [&meta, &b, row](
                            const std::string& var,
                            const std::string& key) -> epgm::PropertyValue {
    const int column = meta.PropertyColumn(var, key);
    if (column < 0) return epgm::PropertyValue::Null();
    return b.PropertyAt(column, row);
  };
  return EvaluateClauses(clauses, resolver);
}

// Projection keys for one scanned variable, read off the compiled meta.
std::vector<std::string> ProjectedKeys(const EmbeddingMetaData& meta,
                                       const std::string& variable) {
  std::vector<std::string> out;
  for (const auto& [var, key] : meta.PropertyColumnsInOrder()) {
    assert(var == variable && "scan meta projects only the scanned variable");
    (void)variable;
    out.push_back(key);
  }
  return out;
}

bool AllDistinct(std::vector<uint64_t>* ids) {
  std::sort(ids->begin(), ids->end());
  return std::adjacent_find(ids->begin(), ids->end()) == ids->end();
}

// Column flags of a fresh batch for `meta` — the same derivation the
// compiler stamps as the operator's BatchLayout claim.
std::vector<uint8_t> FlagsOf(const EmbeddingMetaData& meta) {
  return exec::DeriveBatchLayout(meta, /*batch_size=*/0).column_flags;
}

// Hoisted morphism plan: the row engine re-reads the meta's column lists
// per embedding; the batch kernels resolve them once per operator and
// check each merged row against raw id columns.
struct MorphismPlan {
  std::vector<int> vertex_columns;
  std::vector<int> edge_columns;
  std::vector<int> path_columns;
  bool vertex_iso = false;
  bool edge_iso = false;

  MorphismPlan(const EmbeddingMetaData& meta, const MorphismSetting& semantics)
      : vertex_columns(meta.VertexColumns()),
        edge_columns(meta.EdgeColumns()),
        path_columns(meta.PathColumns()),
        vertex_iso(semantics.vertex == MatchSemantics::kIsomorphism),
        edge_iso(semantics.edge == MatchSemantics::kIsomorphism) {}

  bool RowSatisfies(const EmbeddingBatch& b, uint32_t row,
                    std::vector<uint64_t>* scratch) const {
    if (vertex_iso) {
      scratch->clear();
      for (const int c : vertex_columns) scratch->push_back(b.IdAt(c, row));
      if (!AllDistinct(scratch)) return false;
    }
    if (edge_iso) {
      scratch->clear();
      for (const int c : edge_columns) scratch->push_back(b.IdAt(c, row));
      for (const int c : path_columns) {
        const std::vector<uint64_t> via = b.PathAt(c, row);
        for (size_t i = 0; i < via.size(); i += 2) scratch->push_back(via[i]);
      }
      if (!AllDistinct(scratch)) return false;
    }
    return true;
  }

  // Same check over a (left row, right row) pair that has NOT been merged
  // yet, reading merged column c from the side that owns it. Lets the
  // probe loop reject a pair before copying any cells — on selective
  // joins most candidates die here, and the speculative append/rollback
  // is reserved for pairs that still need the residual clauses.
  bool PairSatisfies(const EmbeddingBatch& lb, uint32_t lrow,
                     const EmbeddingBatch& rb, uint32_t rrow, int left_cols,
                     std::vector<uint64_t>* scratch) const {
    const auto id_at = [&](int c) {
      return c < left_cols ? lb.IdAt(c, lrow) : rb.IdAt(c - left_cols, rrow);
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
            c < left_cols ? lb.PathAt(c, lrow)
                          : rb.PathAt(c - left_cols, rrow);
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

// Appends the row's value-join key: concatenated encodings of the key
// properties, numerics normalized so 2 and 2.0 join. Callers prune NULL
// keys first; a NULL here would be a kernel bug.
void AppendValueKey(const EmbeddingBatch& b, uint32_t row,
                    const std::vector<int>& columns, std::string* key) {
  for (const int c : columns) {
    const epgm::PropertyValue value = b.PropertyAt(c, row);
    assert(!value.is_null() && "NULL keys must be pruned before the join");
    if (value.is_numeric()) {
      epgm::PropertyValue(value.AsDouble()).EncodeTo(key);
    } else {
      value.EncodeTo(key);
    }
  }
}

// Per-row routing key of one join side.
using RowKeyFn =
    std::function<void(const EmbeddingBatch&, uint32_t, std::string*)>;

// Scatters the active rows of every batch to hash(key) % p, compacting
// them into per-target sub-batches. Placement is the row engine's.
BatchDataset ScatterBatches(const BatchDataset& data,
                            std::vector<uint8_t> flags, int props,
                            RowKeyFn key_of, const char* label) {
  const int p = data.num_partitions();
  return data.ScatterShuffle(
      [flags = std::move(flags), props, key_of = std::move(key_of), p](
          const EmbeddingBatch& b, int /*source*/,
          std::vector<std::pair<int, EmbeddingBatch>>* frags) {
        // Two passes: route every active row first, then compact each
        // target's rows with one column-major bulk gather (AppendRows)
        // instead of row-at-a-time appends.
        const std::hash<std::string> hasher;
        std::vector<std::vector<uint32_t>> rows_by_target(
            static_cast<size_t>(p));
        std::string key;
        const uint32_t active = b.ActiveRows();
        for (uint32_t i = 0; i < active; ++i) {
          const uint32_t row = b.ActiveRow(i);
          key.clear();
          key_of(b, row, &key);
          const size_t target = hasher(key) % static_cast<size_t>(p);
          rows_by_target[target].push_back(row);
        }
        for (int target = 0; target < p; ++target) {
          const auto& rows = rows_by_target[static_cast<size_t>(target)];
          if (rows.empty()) continue;
          frags->emplace_back(target, EmbeddingBatch(flags, props));
          frags->back().second.AppendRows(b, rows);
        }
      },
      label);
}

// Adopts an input the partitioning analysis proved co-partitioned on the
// join key: no exchange, no stage, no network bytes. Mirrors the row
// engine's AdoptPrepartitioned — under GRADOOP_AUDIT_PARTITIONING every
// *active row* is re-hashed and the process hard-fails on the first
// misplaced one; telemetry records what the elision saved.
BatchDataset AdoptBatches(const BatchDataset& data, const RowKeyFn& key_of,
                          const char* label) {
  const int p = data.num_partitions();
  if (dfl::PartitioningAuditEnabled()) {
    const std::hash<std::string> hasher;
    uint64_t checked = 0;
    uint64_t misplaced = 0;
    std::string key;
    for (int i = 0; i < p; ++i) {
      // cancellation: opt-in partitioning audit must re-hash every row
      // even while unwinding — a partial check could miss the violation.
      for (const EmbeddingBatch& b : data.partition(i)) {
        const uint32_t active = b.ActiveRows();
        for (uint32_t j = 0; j < active; ++j) {
          ++checked;
          key.clear();
          key_of(b, b.ActiveRow(j), &key);
          if (p != 0 &&
              hasher(key) % static_cast<size_t>(p) !=
                  static_cast<size_t>(i)) {
            ++misplaced;
          }
        }
      }
    }
    dfl::PartitioningAuditStats::Instance().RecordCheck(checked, misplaced);
    if (misplaced != 0) {
      std::fprintf(stderr,
                   "[gradoop] partitioning audit FAILED at %s: %llu of "
                   "%llu rows of an elided batch shuffle sit in the wrong "
                   "partition — the partitioning analysis is unsound\n",
                   label, static_cast<unsigned long long>(misplaced),
                   static_cast<unsigned long long>(checked));
      std::abort();
    }
  }
  const auto& ctx = data.context();
  if (ctx->telemetry().enabled()) {
    uint64_t bytes = 0;
    uint64_t records = 0;
    for (int i = 0; i < p; ++i) {
      // cancellation: telemetry byte walk, O(batches) with no row work.
      for (const EmbeddingBatch& b : data.partition(i)) {
        records += b.ActiveRows();
        bytes += b.SerializedSize();
      }
    }
    telemetry::Telemetry& tel = ctx->telemetry();
    tel.metrics().AddCounter("shuffle.elided.count", 1);
    tel.metrics().AddCounter("shuffle.elided.bytes", bytes);
    const double now_us = tel.tracer().NowMicros();
    tel.tracer().AddSpan(std::string(label) + "/ShuffleElided",
                         telemetry::kCategoryStage, now_us, now_us,
                         /*worker=*/-1,
                         {{"bytes_saved", static_cast<double>(bytes)},
                          {"records", static_cast<double>(records)}});
  }
  return data;
}

// Everything the build+probe stage needs to merge a (left, right) row
// pair and decide whether it survives.
struct MergeParams {
  std::vector<uint8_t> flags;  // merged layout
  int props = 0;
  int left_id_columns = 0;
  MorphismPlan morphism;
  EmbeddingMetaData merged_meta;
  std::vector<cypher::CnfClause> residual;
  int batch_size = 0;

  MergeParams(const EmbeddingMetaData& merged, int left_cols,
              const MorphismSetting& semantics,
              std::vector<cypher::CnfClause> residual_clauses, int size)
      : flags(FlagsOf(merged)),
        props(merged.property_column_count()),
        left_id_columns(left_cols),
        morphism(merged, semantics),
        merged_meta(merged),
        residual(std::move(residual_clauses)),
        batch_size(size) {}
};

// Local-probe hash for two-column id keys (placement was already decided
// by the scatter, so the table hash is free to be cheap).
struct U64PairHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& k) const {
    uint64_t h = k.first * 0x9e3779b97f4a7c15ull;
    h ^= k.second + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

// The vectorized probe loop: builds a multimap over the build (right)
// side's active rows, probes with every left row and appends surviving
// merged rows. Key extraction is a template parameter so one- and
// two-column id joins probe on raw u64 columns with no per-row key
// materialization.
template <typename Key, typename Hash = std::hash<Key>, typename LeftKeyFn,
          typename RightKeyFn>
void BuildProbeMerge(const std::vector<EmbeddingBatch>& left_batches,
                     const std::vector<EmbeddingBatch>& right_batches,
                     LeftKeyFn left_key, RightKeyFn right_key,
                     const MergeParams& mp, std::vector<EmbeddingBatch>* dst,
                     dfl::ZipPartitionStats* st,
                     common::CancellationToken& cancel) {
  // Build over the right side (HashJoin's build side), one entry per
  // active row addressed as (batch, row).
  std::unordered_multimap<Key, std::pair<uint32_t, uint32_t>, Hash> table;
  uint64_t build_rows = 0;
  // cancellation: O(batches) size prepass; the build loop below polls.
  for (const EmbeddingBatch& b : right_batches) build_rows += b.ActiveRows();
  table.reserve(build_rows);
  // Presence filter in front of the multimap: on selective joins most
  // probe keys miss, and a one-byte direct-mapped table rejects a miss
  // with a single cache line instead of a hash-bucket walk. False
  // positives just fall through to the real probe, so match order and
  // results are untouched.
  size_t present_mask = 0;
  std::vector<uint8_t> present;
  if (build_rows > 0) {
    size_t slots = 64;
    while (slots < build_rows * 4 && slots < (1u << 22)) slots <<= 1;
    present.assign(slots, 0);
    present_mask = slots - 1;
  }
  const Hash key_hash;
  for (uint32_t bi = 0; bi < right_batches.size(); ++bi) {
    if (cancel.CheckCancelled()) break;
    const EmbeddingBatch& b = right_batches[bi];
    const uint32_t active = b.ActiveRows();
    for (uint32_t i = 0; i < active; ++i) {
      const uint32_t row = b.ActiveRow(i);
      Key key = right_key(b, row);
      present[key_hash(key) & present_mask] = 1;
      table.emplace(std::move(key), std::make_pair(bi, row));
    }
  }
  st->state_records = build_rows;
  // cancellation: O(batches) accounting byte walk, no per-row work.
  for (const EmbeddingBatch& b : right_batches) {
    st->state_bytes += b.SerializedSize();
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
      const Key probe = left_key(lb, lrow);
      if (present.empty() || !present[key_hash(probe) & present_mask]) {
        continue;
      }
      const auto [begin, end] = table.equal_range(probe);
      for (auto it = begin; it != end; ++it) {
        const EmbeddingBatch& rb = right_batches[it->second.first];
        const uint32_t rrow = it->second.second;
        // Morphism first, straight off the source rows: on selective
        // joins most pairs die here without a single cell copied.
        if (!mp.morphism.PairSatisfies(lb, lrow, rb, rrow,
                                       mp.left_id_columns, &scratch)) {
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
        if (!RowPassesClauses(mp.residual, mp.merged_meta, builder,
                              builder.num_rows())) {
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

// Shared tail of the two join kernels: exchange (scatter / adopt /
// broadcast, matching HashJoin's strategies), then build+probe.
BatchSet ExchangeAndMerge(const BatchSet& left, const BatchSet& right,
                          const RowKeyFn& left_key_of,
                          const RowKeyFn& right_key_of,
                          const std::vector<int>& left_columns,
                          const std::vector<int>& right_columns,
                          bool id_join, const MergeParams& mp,
                          dfl::JoinStrategy strategy,
                          dfl::JoinShuffleHints hints, const char* label) {
  BatchDataset left_exchanged = left.data;
  BatchDataset right_exchanged = right.data;
  if (strategy == dfl::JoinStrategy::kRepartition) {
    left_exchanged =
        hints.left_prepartitioned
            ? AdoptBatches(left.data, left_key_of, label)
            : ScatterBatches(left.data, FlagsOf(left.meta),
                             left.meta.property_column_count(), left_key_of,
                             label);
    right_exchanged =
        hints.right_prepartitioned
            ? AdoptBatches(right.data, right_key_of, label)
            : ScatterBatches(right.data, FlagsOf(right.meta),
                             right.meta.property_column_count(), right_key_of,
                             label);
  } else {
    // Broadcast: the left side stays in place, the right (build) side
    // replicates to every worker.
    right_exchanged = right.data.Replicate(label);
  }
  common::CancellationToken& cancel = left.data.context()->cancellation();
  auto data = left_exchanged.ZipPartitions<EmbeddingBatch>(
      right_exchanged,
      [&](int /*partition*/, const std::vector<EmbeddingBatch>& ls,
          const std::vector<EmbeddingBatch>& rs,
          std::vector<EmbeddingBatch>* dst, dfl::ZipPartitionStats* st) {
        if (id_join && left_columns.size() == 1) {
          // Single-column id join: probe directly on the raw u64 column.
          const int lc = left_columns[0];
          const int rc = right_columns[0];
          BuildProbeMerge<uint64_t>(
              ls, rs,
              [lc](const EmbeddingBatch& b, uint32_t row) {
                return b.IdAt(lc, row);
              },
              [rc](const EmbeddingBatch& b, uint32_t row) {
                return b.IdAt(rc, row);
              },
              mp, dst, st, cancel);
          return;
        }
        if (id_join && left_columns.size() == 2) {
          // Two-column id join (e.g. closing a triangle): packed u64
          // pair, no per-row key strings.
          const int lc0 = left_columns[0], lc1 = left_columns[1];
          const int rc0 = right_columns[0], rc1 = right_columns[1];
          BuildProbeMerge<std::pair<uint64_t, uint64_t>, U64PairHash>(
              ls, rs,
              [lc0, lc1](const EmbeddingBatch& b, uint32_t row) {
                return std::make_pair(b.IdAt(lc0, row), b.IdAt(lc1, row));
              },
              [rc0, rc1](const EmbeddingBatch& b, uint32_t row) {
                return std::make_pair(b.IdAt(rc0, row), b.IdAt(rc1, row));
              },
              mp, dst, st, cancel);
          return;
        }
        auto materialize = [](const RowKeyFn& key_of) {
          return [&key_of](const EmbeddingBatch& b, uint32_t row) {
            std::string key;
            key_of(b, row, &key);
            return key;
          };
        };
        BuildProbeMerge<std::string>(ls, rs, materialize(left_key_of),
                                     materialize(right_key_of), mp, dst, st,
                                     cancel);
      },
      label);
  return {std::move(data), mp.merged_meta};
}

}  // namespace

BatchSet RowsToBatches(const EmbeddingSet& rows, int batch_size) {
  assert(batch_size > 0);
  std::vector<uint8_t> flags = FlagsOf(rows.meta);
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

EmbeddingSet BatchesToRows(const BatchSet& batches) {
  auto data = batches.data.FlatMap<Embedding>(
      [](const EmbeddingBatch& b, std::vector<Embedding>* out) {
        const uint32_t active = b.ActiveRows();
        for (uint32_t i = 0; i < active; ++i) {
          out->push_back(b.RowAt(b.ActiveRow(i)));
        }
      },
      "BatchesToRows");
  return {std::move(data), batches.meta};
}

BatchSet ScanVerticesBatch(const dataflow::Dataset<epgm::Vertex>& vertices,
                           const cypher::QueryVertex& query_vertex,
                           const std::vector<cypher::CnfClause>& predicates,
                           const EmbeddingMetaData& meta,
                           const std::vector<cypher::CnfClause>& residual,
                           int batch_size) {
  assert(batch_size > 0);
  const std::vector<std::string> projected =
      ProjectedKeys(meta, query_vertex.variable);
  std::vector<uint8_t> flags = FlagsOf(meta);
  const int props = meta.property_column_count();
  common::CancellationToken& cancel = vertices.context()->cancellation();
  auto data = vertices.MapPartition<EmbeddingBatch>(
      [query_vertex, predicates, projected, meta, residual,
       flags = std::move(flags), props, batch_size, &cancel](
          int /*partition*/, const std::vector<epgm::Vertex>& src,
          std::vector<EmbeddingBatch>* out) {
        EmbeddingBatch builder(flags, props);
        for (const epgm::Vertex& v : src) {
          if (cancel.CheckCancelled()) break;
          if (!query_vertex.MatchesLabel(v.label)) continue;
          const auto resolver =
              ElementResolver(query_vertex.variable, v.properties);
          if (!EvaluateClauses(predicates, resolver)) continue;
          // Speculative append: push the row's cells, evaluate the fused
          // residual on the pending row, roll back on failure.
          const EmbeddingBatch::RowMark mark = builder.Mark();
          builder.PushId(0, v.id);
          for (const std::string& key : projected) {
            builder.PushProperty(v.properties.Get(key));
          }
          if (!RowPassesClauses(residual, meta, builder,
                                builder.num_rows())) {
            builder.Rollback(mark);
            continue;
          }
          builder.CommitRow();
          if (static_cast<int>(builder.num_rows()) >= batch_size) {
            out->push_back(std::move(builder));
            builder = EmbeddingBatch(flags, props);
          }
        }
        if (builder.num_rows() > 0) out->push_back(std::move(builder));
      },
      "SelectAndProjectVertices");
  return {std::move(data), meta};
}

BatchSet ScanEdgesBatch(const dataflow::Dataset<epgm::Edge>& edges,
                        const cypher::QueryEdge& query_edge,
                        const std::vector<cypher::CnfClause>& predicates,
                        const MorphismSetting& semantics, bool self_loop,
                        const EmbeddingMetaData& meta,
                        const std::vector<cypher::CnfClause>& residual,
                        int batch_size) {
  assert(!query_edge.IsVariableLength());
  assert(batch_size > 0);
  const bool drop_data_self_loops =
      !self_loop && semantics.vertex == MatchSemantics::kIsomorphism;
  const std::vector<std::string> projected =
      ProjectedKeys(meta, query_edge.variable);
  const bool any_direction = query_edge.any_direction;
  std::vector<uint8_t> flags = FlagsOf(meta);
  const int props = meta.property_column_count();
  common::CancellationToken& cancel = edges.context()->cancellation();
  auto data = edges.MapPartition<EmbeddingBatch>(
      [query_edge, predicates, projected, self_loop, any_direction,
       drop_data_self_loops, meta, residual, flags = std::move(flags), props,
       batch_size,
       &cancel](int /*partition*/, const std::vector<epgm::Edge>& src,
                std::vector<EmbeddingBatch>* out) {
        EmbeddingBatch builder(flags, props);
        auto emit = [&](const epgm::Edge& edge, uint64_t source,
                        uint64_t target) {
          const EmbeddingBatch::RowMark mark = builder.Mark();
          int column = 0;
          builder.PushId(column++, source);
          builder.PushId(column++, edge.id);
          if (!self_loop) builder.PushId(column++, target);
          for (const std::string& key : projected) {
            builder.PushProperty(edge.properties.Get(key));
          }
          if (!RowPassesClauses(residual, meta, builder,
                                builder.num_rows())) {
            builder.Rollback(mark);
            return;
          }
          builder.CommitRow();
          if (static_cast<int>(builder.num_rows()) >= batch_size) {
            out->push_back(std::move(builder));
            builder = EmbeddingBatch(flags, props);
          }
        };
        for (const epgm::Edge& edge : src) {
          if (cancel.CheckCancelled()) break;
          if (!query_edge.MatchesType(edge.label)) continue;
          if (self_loop && edge.source_id != edge.target_id) continue;
          if (drop_data_self_loops && edge.source_id == edge.target_id) {
            continue;
          }
          const auto resolver =
              ElementResolver(query_edge.variable, edge.properties);
          if (!EvaluateClauses(predicates, resolver)) continue;
          emit(edge, edge.source_id, edge.target_id);
          // Undirected pattern: the edge also matches flipped (unless it
          // is a data self-loop, which would duplicate).
          if (any_direction && edge.source_id != edge.target_id) {
            emit(edge, edge.target_id, edge.source_id);
          }
        }
        if (builder.num_rows() > 0) out->push_back(std::move(builder));
      },
      "SelectAndProjectEdges");
  return {std::move(data), meta};
}

BatchSet SelectBatches(const BatchSet& input,
                       const std::vector<cypher::CnfClause>& clauses) {
  const EmbeddingMetaData meta = input.meta;
  // The select-loop: no row moves — the survivors' indices become the
  // batch's selection vector over the shared column store.
  auto data = input.data.Map(
      [meta, clauses](const EmbeddingBatch& b) {
        std::vector<uint32_t> selected;
        const uint32_t active = b.ActiveRows();
        selected.reserve(active);
        for (uint32_t i = 0; i < active; ++i) {
          const uint32_t row = b.ActiveRow(i);
          if (RowPassesClauses(clauses, meta, b, row)) {
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
  const RowKeyFn left_key_of = [left_columns](const EmbeddingBatch& b,
                                              uint32_t row,
                                              std::string* key) {
    AppendIdKey(b, row, left_columns, key);
  };
  const RowKeyFn right_key_of = [right_columns](const EmbeddingBatch& b,
                                                uint32_t row,
                                                std::string* key) {
    AppendIdKey(b, row, right_columns, key);
  };
  return ExchangeAndMerge(left, right, left_key_of, right_key_of,
                          left_columns, right_columns, /*id_join=*/true, mp,
                          strategy, hints, "JoinEmbeddings");
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
              if (b.PropertyAt(c, row).is_null()) {
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
  const RowKeyFn left_key_of = [left_key_columns](const EmbeddingBatch& b,
                                                  uint32_t row,
                                                  std::string* key) {
    AppendValueKey(b, row, left_key_columns, key);
  };
  const RowKeyFn right_key_of = [right_key_columns](const EmbeddingBatch& b,
                                                    uint32_t row,
                                                    std::string* key) {
    AppendValueKey(b, row, right_key_columns, key);
  };
  return ExchangeAndMerge(pruned_left, pruned_right, left_key_of,
                          right_key_of, left_key_columns, right_key_columns,
                          /*id_join=*/false, mp, strategy, hints,
                          "ValueJoinEmbeddings");
}

BatchSet ExpandBatches(const BatchSet& input,
                       const epgm::AdjacencyIndex& adjacency,
                       int start_column, int bound_end_column,
                       const EmbeddingMetaData& result_meta, int lower_bound,
                       int upper_bound, const MorphismSetting& semantics,
                       const std::vector<cypher::CnfClause>& residual,
                       int batch_size) {
  // The frontier iteration is inherently row-dependent (each path grows
  // from its own end vertex), so the batch engine compacts to rows at
  // this operator's boundary, runs the row engine's bulk iteration, and
  // re-batches the emissions (docs/vectorized.md).
  EmbeddingSet rows = BatchesToRows(input);
  EmbeddingSet expanded =
      ExpandEmbeddings(rows, adjacency, start_column, bound_end_column,
                       result_meta, lower_bound, upper_bound, semantics,
                       residual);
  return RowsToBatches(expanded, batch_size);
}

}  // namespace gradoop::query

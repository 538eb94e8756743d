#include "query/operators.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "query/batch_operators.h"

namespace gradoop::query {

namespace dfl = ::gradoop::dataflow;

namespace {

// Join key: concatenated 8-byte ids of the given columns.
std::string JoinKeyOf(const Embedding& embedding,
                      const std::vector<int>& columns) {
  std::string key;
  key.reserve(8 * columns.size());
  for (int c : columns) {
    const uint64_t id = embedding.IdAt(c);
    char buf[8];
    std::memcpy(buf, &id, 8);
    key.append(buf, 8);
  }
  return key;
}

}  // namespace

BoundClauses::BoundClauses(const std::vector<cypher::CnfClause>& clauses,
                           const EmbeddingMetaData& meta)
    : clauses_(clauses) {
  std::set<std::pair<std::string, std::string>> accessed;
  for (const cypher::CnfClause& clause : clauses) {
    for (const cypher::ExpressionPtr& atom : clause.atoms) {
      atom->CollectPropertyAccesses(&accessed);
    }
  }
  for (const auto& [variable, key] : accessed) {
    accesses_.push_back({variable, key, meta.PropertyColumn(variable, key)});
  }
}

namespace {

// --- Leaf scans: one select-project loop for both engines -------------

// A partition's output batch under construction: rows are pushed as
// cells, committed, and the batch is cut at `batch_size` rows.
class BatchOutput {
 public:
  BatchOutput(const std::vector<uint8_t>& flags, int props, int batch_size,
              std::vector<EmbeddingBatch>* out)
      : flags_(&flags),
        props_(props),
        batch_size_(batch_size),
        out_(out),
        builder_(flags, props) {}

  EmbeddingBatch& builder() { return builder_; }
  const EmbeddingBatch& builder() const { return builder_; }
  // The pending row's index, for checks before CommitRow.
  uint32_t pending_row() const { return builder_.num_rows(); }

  void CommitRow() {
    builder_.CommitRow();
    if (static_cast<int>(builder_.num_rows()) >= batch_size_) {
      out_->push_back(std::move(builder_));
      builder_ = EmbeddingBatch(*flags_, props_);
    }
  }
  void Finish() {
    if (builder_.num_rows() > 0) out_->push_back(std::move(builder_));
  }

 private:
  const std::vector<uint8_t>* flags_;
  int props_;
  int batch_size_;
  std::vector<EmbeddingBatch>* out_;
  EmbeddingBatch builder_;
};

// The leaf scan of both engines (`Set` EmbeddingSet or BatchSet), over
// vertices or edges: one narrow stage over the label datasets of
// `elements`, read in place in list order. Each partition task runs the
// label test, the element predicates (only when present, through one
// resolver bound to a pointer at the current element) and writes one
// row per match: [id] for a vertex, [source, edge, target] for an edge
// ([source, edge] for a self-loop pattern), flipped once more when
// undirected. A row is an owned Embedding, or cells of the partition's
// batch builder, which carries on across the label datasets, so batches
// are cut where a scan of their union would cut them. A residual is
// checked on the written row (speculatively, with a rollback, in the
// builder) only when there is one. The loop itself allocates nothing
// per element. `semantics` and `self_loop` apply to edges only.
template <typename Set, typename Element, typename Query>
Set RunScan(const dfl::DatasetList<Element>& elements, const Query& query,
            const std::vector<cypher::CnfClause>& predicates,
            const MorphismSetting& semantics, bool self_loop,
            const EmbeddingMetaData& meta,
            const std::vector<cypher::CnfClause>& residual, int batch_size,
            const char* label) {
  constexpr bool kRows = std::is_same_v<Set, EmbeddingSet>;
  using Out = std::conditional_t<kRows, Embedding, EmbeddingBatch>;
  assert(kRows || batch_size > 0);
  const std::vector<std::string> projected =
      ProjectedKeys(meta, query.variable);
  const BoundClauses bound_residual(residual, meta);
  const std::vector<uint8_t> flags = BatchColumnFlags(meta);
  // Under vertex isomorphism a data self-loop cannot bind two distinct
  // query vertices; the scan enforces it so that scan-only plans are
  // already morphism-correct.
  const bool drop_data_self_loops =
      !self_loop && semantics.vertex == MatchSemantics::kIsomorphism;
  common::CancellationToken& cancel = elements.context()->cancellation();
  auto data = elements.template MapPartition<Out>(
      [&](int /*partition*/, const dfl::ChainedPartition<Element>& src,
          std::vector<Out>* out) {
        auto sink = [&] {
          if constexpr (kRows) {
            return out;
          } else {
            return BatchOutput(flags, meta.property_column_count(),
                               batch_size, out);
          }
        }();
        static const epgm::PropertyValue kNull;
        const Element* current = nullptr;
        const auto resolve = [&](const std::string& var,
                                 const std::string& key)
            -> const epgm::PropertyValue& {
          return var == query.variable ? current->properties.Get(key) : kNull;
        };
        const auto write = [&](std::initializer_list<uint64_t> ids) {
          const epgm::Properties& properties = current->properties;
          if constexpr (kRows) {
            Embedding row;
            for (const uint64_t id : ids) row.AppendId(id);
            for (const std::string& key : projected) {
              row.AppendProperty(properties.Get(key));
            }
            if (bound_residual.Passes(row)) out->push_back(std::move(row));
          } else {
            EmbeddingBatch& builder = sink.builder();
            const bool checked = !bound_residual.empty();
            const EmbeddingBatch::RowMark mark =
                checked ? builder.Mark() : EmbeddingBatch::RowMark{};
            int column = 0;
            for (const uint64_t id : ids) builder.PushId(column++, id);
            for (const std::string& key : projected) {
              builder.PushProperty(properties.Get(key));
            }
            if (checked &&
                !bound_residual.Passes(builder, sink.pending_row())) {
              builder.Rollback(mark);
              return;
            }
            sink.CommitRow();
          }
        };
        for (const Element& e : src) {
          if (cancel.CheckCancelled()) break;
          if constexpr (std::is_same_v<Element, epgm::Vertex>) {
            if (!query.MatchesLabel(e.label)) continue;
          } else {
            const bool data_self_loop = e.source_id == e.target_id;
            if (!query.MatchesType(e.label) ||
                (self_loop ? !data_self_loop
                           : drop_data_self_loops && data_self_loop)) {
              continue;
            }
          }
          current = &e;
          if (!predicates.empty() && !EvaluateClauses(predicates, resolve)) {
            continue;
          }
          if constexpr (std::is_same_v<Element, epgm::Vertex>) {
            write({e.id});
          } else if (self_loop) {
            write({e.source_id, e.id});
          } else {
            write({e.source_id, e.id, e.target_id});
            // Undirected pattern: the edge also matches flipped (unless
            // it is a data self-loop, which would duplicate).
            if (query.any_direction && e.source_id != e.target_id) {
              write({e.target_id, e.id, e.source_id});
            }
          }
        }
        if constexpr (!kRows) sink.Finish();
      },
      label);
  return {std::move(data), meta};
}

}  // namespace

EmbeddingSet SelectAndProjectVertices(
    const dataflow::DatasetList<epgm::Vertex>& vertices,
    const cypher::QueryVertex& query_vertex,
    const std::vector<cypher::CnfClause>& predicates,
    const EmbeddingMetaData& meta,
    const std::vector<cypher::CnfClause>& residual) {
  return RunScan<EmbeddingSet>(vertices, query_vertex, predicates, {}, false,
                               meta, residual, 0, "SelectAndProjectVertices");
}

EmbeddingSet SelectAndProjectEdges(
    const dataflow::DatasetList<epgm::Edge>& edges,
    const cypher::QueryEdge& query_edge,
    const std::vector<cypher::CnfClause>& predicates,
    const MorphismSetting& semantics, bool self_loop,
    const EmbeddingMetaData& meta,
    const std::vector<cypher::CnfClause>& residual) {
  assert(!query_edge.IsVariableLength());
  return RunScan<EmbeddingSet>(edges, query_edge, predicates, semantics,
                               self_loop, meta, residual, 0,
                               "SelectAndProjectEdges");
}

BatchSet ScanVerticesBatch(const dataflow::DatasetList<epgm::Vertex>& vertices,
                           const cypher::QueryVertex& query_vertex,
                           const std::vector<cypher::CnfClause>& predicates,
                           const EmbeddingMetaData& meta,
                           const std::vector<cypher::CnfClause>& residual,
                           int batch_size) {
  return RunScan<BatchSet>(vertices, query_vertex, predicates, {}, false,
                           meta, residual, batch_size,
                           "SelectAndProjectVertices");
}

BatchSet ScanEdgesBatch(const dataflow::DatasetList<epgm::Edge>& edges,
                        const cypher::QueryEdge& query_edge,
                        const std::vector<cypher::CnfClause>& predicates,
                        const MorphismSetting& semantics, bool self_loop,
                        const EmbeddingMetaData& meta,
                        const std::vector<cypher::CnfClause>& residual,
                        int batch_size) {
  assert(!query_edge.IsVariableLength());
  return RunScan<BatchSet>(edges, query_edge, predicates, semantics,
                           self_loop, meta, residual, batch_size,
                           "SelectAndProjectEdges");
}

bool SatisfiesMorphism(const Embedding& embedding,
                       const EmbeddingMetaData& meta,
                       const MorphismSetting& semantics) {
  if (semantics.vertex == MatchSemantics::kIsomorphism) {
    std::vector<uint64_t> ids;
    for (int c : meta.VertexColumns()) ids.push_back(embedding.IdAt(c));
    if (!AllDistinct(&ids)) return false;
  }
  if (semantics.edge == MatchSemantics::kIsomorphism) {
    std::vector<uint64_t> ids;
    for (int c : meta.EdgeColumns()) ids.push_back(embedding.IdAt(c));
    for (int c : meta.PathColumns()) {
      const std::vector<uint64_t> via = embedding.PathAt(c);
      for (size_t i = 0; i < via.size(); i += 2) ids.push_back(via[i]);
    }
    if (!AllDistinct(&ids)) return false;
  }
  return true;
}

EmbeddingSet JoinEmbeddings(const EmbeddingSet& left,
                            const EmbeddingSet& right,
                            const std::vector<int>& left_columns,
                            const std::vector<int>& right_columns,
                            const EmbeddingMetaData& merged_meta,
                            const MorphismSetting& semantics,
                            dataflow::JoinStrategy strategy,
                            const std::vector<cypher::CnfClause>& residual,
                            dataflow::JoinShuffleHints hints) {
  assert(left_columns.size() == right_columns.size());
  const BoundClauses bound_residual(residual, merged_meta);
  auto data = left.data.HashJoin<Embedding>(
      right.data,
      [left_columns](const Embedding& e) { return JoinKeyOf(e, left_columns); },
      [right_columns](const Embedding& e) {
        return JoinKeyOf(e, right_columns);
      },
      [&merged_meta, semantics, &bound_residual](
          const Embedding& l, const Embedding& r,
          std::vector<Embedding>* out) {
        Embedding merged = Embedding::Merge(l, r);
        if (!SatisfiesMorphism(merged, merged_meta, semantics)) return;
        if (!bound_residual.Passes(merged)) return;
        out->push_back(std::move(merged));
      },
      strategy, "JoinEmbeddings", hints);
  return {std::move(data), merged_meta};
}

namespace {

// Value-join key: concatenated encodings of the key properties, or
// nullopt when any key property is NULL (such rows never join).
std::optional<std::string> ValueJoinKeyOf(const Embedding& embedding,
                                          const std::vector<int>& columns) {
  std::string out;
  for (int c : columns) {
    const epgm::PropertyValue value = embedding.PropertyAt(c);
    if (value.is_null()) return std::nullopt;
    // Normalize numerics so 2 and 2.0 join (Cypher equality semantics).
    if (value.is_numeric()) {
      epgm::PropertyValue(value.AsDouble()).EncodeTo(&out);
    } else {
      value.EncodeTo(&out);
    }
  }
  return out;
}

}  // namespace

EmbeddingSet ValueJoinEmbeddings(const EmbeddingSet& left,
                                 const EmbeddingSet& right,
                                 const std::vector<int>& left_key_columns,
                                 const std::vector<int>& right_key_columns,
                                 const EmbeddingMetaData& merged_meta,
                                 const MorphismSetting& semantics,
                                 dataflow::JoinStrategy strategy,
                                 const std::vector<cypher::CnfClause>&
                                     residual,
                                 dataflow::JoinShuffleHints hints) {
  assert(left_key_columns.size() == right_key_columns.size() &&
         !left_key_columns.empty());
  // Rows with NULL keys are dropped before the join (they can never
  // match), keeping the join key total.
  auto left_data = left.data.Filter(
      [left_key_columns](const Embedding& e) {
        return ValueJoinKeyOf(e, left_key_columns).has_value();
      },
      "ValueJoinPruneLeft");
  auto right_data = right.data.Filter(
      [right_key_columns](const Embedding& e) {
        return ValueJoinKeyOf(e, right_key_columns).has_value();
      },
      "ValueJoinPruneRight");
  const BoundClauses bound_residual(residual, merged_meta);
  auto data = left_data.HashJoin<Embedding>(
      right_data,
      [left_key_columns](const Embedding& e) {
        return *ValueJoinKeyOf(e, left_key_columns);
      },
      [right_key_columns](const Embedding& e) {
        return *ValueJoinKeyOf(e, right_key_columns);
      },
      [&merged_meta, semantics, &bound_residual](
          const Embedding& l, const Embedding& r,
          std::vector<Embedding>* out) {
        Embedding merged = Embedding::Merge(l, r);
        if (!SatisfiesMorphism(merged, merged_meta, semantics)) return;
        if (!bound_residual.Passes(merged)) return;
        out->push_back(std::move(merged));
      },
      strategy, "ValueJoinEmbeddings", hints);
  return {std::move(data), merged_meta};
}

EmbeddingSet SelectEmbeddings(const EmbeddingSet& input,
                              const std::vector<cypher::CnfClause>& clauses) {
  const BoundClauses bound(clauses, input.meta);
  auto data = input.data.Filter(
      [&bound](const Embedding& e) { return bound.Passes(e); },
      "SelectEmbeddings");
  return {std::move(data), input.meta};
}

namespace {

// --- Variable-length expansion: one hop loop for both engines ---------
//
// A frontier record names its base row in place. The row engine's base is
// the input Embedding itself; the batch engine's is a BatchRow, an input
// batch row addressed as (batch, row) with its wire size computed once.
// Neither engine copies a base row until a finished path is written.
struct BatchRow {
  const EmbeddingBatch* batch = nullptr;
  uint32_t row = 0;
  size_t bytes = 0;  // batch->RowSerializedSize(row)
};

// What the hop loop reads off a base row, per engine.
size_t BaseBytes(const Embedding& e) { return e.SerializedSize(); }
size_t BaseBytes(const BatchRow& r) { return r.bytes; }
uint64_t BaseId(const Embedding& e, int column) { return e.IdAt(column); }
uint64_t BaseId(const BatchRow& r, int column) {
  return r.batch->IdAt(column, r.row);
}
// True if the base row binds `edge` in an edge column or inside a path.
bool BaseBindsEdge(const Embedding& e, uint64_t edge,
                   const std::vector<int>& edge_columns,
                   const std::vector<int>& path_columns) {
  return e.ContainsIdAt(edge, edge_columns) ||
         e.PathContains(edge, path_columns, true);
}
bool BaseBindsEdge(const BatchRow& r, uint64_t edge,
                   const std::vector<int>& edge_columns,
                   const std::vector<int>& path_columns) {
  for (const int c : edge_columns) {
    if (r.batch->IdAt(c, r.row) == edge) return true;
  }
  return r.batch->PathContains(edge, path_columns, true, r.row);
}

// Working record of one in-flight variable-length expansion: a path of
// `hops` edges from the start binding of `*base` to `end`. Neither the
// base row nor the path is copied from hop to hop: `prev` points at the
// record this one grew from, in the previous hop's routed frontier, which
// the hop loop keeps alive until it returns. The path's via list
// (alternating edge/vertex ids) is the chain of (edge, end) pairs.
template <typename Base>
struct ExpandState {
  const Base* base = nullptr;         // the input row, untouched
  const ExpandState* prev = nullptr;  // the path without its last hop
  uint64_t edge = 0;                  // last edge walked (hops >= 1)
  uint64_t end = 0;                   // current path end vertex
  uint32_t hops = 0;

  size_t ViaSize() const { return hops == 0 ? 0 : 2 * size_t{hops} - 1; }

  // The record the paper's plan ships per hop carries the whole base
  // embedding and the via list, so that is what the cost model prices.
  size_t SerializedSize() const {
    return BaseBytes(*base) + sizeof(uint32_t) + 8 * ViaSize() + 8;
  }

  // The via list in walk order: e1, v1, e2, ..., v(k-1), ek.
  void Via(std::vector<uint64_t>* via) const {
    via->resize(ViaSize());
    size_t i = via->size();
    for (const ExpandState* s = this; s->hops > 0; s = s->prev) {
      (*via)[--i] = s->edge;
      if (i > 0) (*via)[--i] = s->prev->end;
    }
  }
};

// The compiled parameters of one Expand, shared by both engines.
struct ExpandSpec {
  ExpandSpec(const EmbeddingMetaData& input_meta,
             const epgm::AdjacencyIndex& adjacency_index, int start,
             int bound_end, const EmbeddingMetaData& meta, int lower,
             int upper, const MorphismSetting& semantics,
             const std::vector<cypher::CnfClause>& residual_clauses)
      : adjacency(adjacency_index),
        start_column(start),
        bound_end_column(bound_end),
        result_meta(meta),
        lower_bound(lower),
        upper_bound(upper),
        morphism(semantics),
        residual(residual_clauses, meta),
        base_vertex_columns(input_meta.VertexColumns()),
        base_edge_columns(input_meta.EdgeColumns()),
        base_path_columns(input_meta.PathColumns()),
        path_column(input_meta.id_column_count()),
        reverse(adjacency_index.reverse()),
        end_bound(bound_end >= 0),
        vertex_iso(semantics.vertex == MatchSemantics::kIsomorphism),
        edge_iso(semantics.edge == MatchSemantics::kIsomorphism) {}

  const epgm::AdjacencyIndex& adjacency;
  int start_column;
  int bound_end_column;
  const EmbeddingMetaData& result_meta;
  int lower_bound;
  int upper_bound;
  MorphismSetting morphism;
  BoundClauses residual;  // bound to result_meta
  // Columns of the *input* layout (the result meta additionally holds the
  // fresh path/end columns).
  std::vector<int> base_vertex_columns;
  std::vector<int> base_edge_columns;
  std::vector<int> base_path_columns;
  int path_column;  // the new PATH column, right after the base's columns
  bool reverse;
  bool end_bound;
  bool vertex_iso;
  bool edge_iso;
};

// Writes finished paths as owned Embeddings: the base row, then the PATH
// column and (unless the end is bound) the end id. A path is written as
// a pending row, checked, then committed or dropped.
class RowPathWriter {
 public:
  RowPathWriter(const ExpandSpec& spec, std::vector<Embedding>* out)
      : spec_(&spec), out_(out) {}

  void Begin(const Embedding& base, const std::vector<uint64_t>& via,
             uint64_t end) {
    pending_ = base;
    pending_.AppendPath(via);
    if (!spec_->end_bound) pending_.AppendId(end);
  }
  bool PendingSatisfiesMorphism() const {
    return SatisfiesMorphism(pending_, spec_->result_meta, spec_->morphism);
  }
  bool PendingPassesResidual() const {
    return spec_->residual.Passes(pending_);
  }
  void Commit() { out_->push_back(std::move(pending_)); }
  void Rollback() {}
  void Finish() {}

 private:
  const ExpandSpec* spec_;
  std::vector<Embedding>* out_;
  Embedding pending_;
};

// Writes finished paths as cells appended to the partition's output
// batch: the base row's id cells and PATH segments (rebased), the new
// PATH column, the end id, and the base's property cells verbatim — the
// cells RowsToBatches would copy out of the row engine's Embedding. The
// builder persists across hops and is cut at `batch_size` rows, so
// batches break where a re-batching of the row engine's output breaks.
class BatchPathWriter : public BatchOutput {
 public:
  BatchPathWriter(const ExpandSpec& spec, const std::vector<uint8_t>& flags,
                  int props, int batch_size, std::vector<EmbeddingBatch>* out)
      : BatchOutput(flags, props, batch_size, out), spec_(&spec) {}

  void Begin(const BatchRow& base, const std::vector<uint64_t>& via,
             uint64_t end) {
    mark_ = builder().Mark();
    builder().AppendRowCells(*base.batch, base.row, 0);
    builder().PushPath(spec_->path_column, via);
    if (!spec_->end_bound) builder().PushId(spec_->path_column + 1, end);
  }
  bool PendingSatisfiesMorphism() const {
    return SatisfiesMorphism(builder().RowAt(pending_row()),
                             spec_->result_meta, spec_->morphism);
  }
  bool PendingPassesResidual() const {
    return spec_->residual.Passes(builder(), pending_row());
  }
  void Commit() { CommitRow(); }
  void Rollback() { builder().Rollback(mark_); }

 private:
  const ExpandSpec* spec_;
  EmbeddingBatch::RowMark mark_;
};

// The hop loop of both engines. `visit_bases(t, visit)` calls
// visit(base) for each input row of partition t, in order, polling the
// cancellation token per row, and returns the partition's row count;
// (*writers)[t] writes partition t's finished paths.
//
// Every pass is one pool dispatch. Partition t reads the records routed
// to it in place, one per-source bucket after another in source order —
// the partition a hash exchange would have assembled — walks
// `adjacency`, writes the paths the hop finishes, and routes each grown
// record into the next hop's bucket for the partition owning its end.
// The init pass maps the input rows, writes the zero-hop paths and routes
// hop 1 the same way; the last hop routes nothing. Each pass keeps its
// tallies per task, and the driver charges them after the pass in the
// order of the paper's per-hop plan: the frontier exchange, the edge
// side's exchange, the staged state, the build/probe stage and the
// emission (docs/INTERNALS.md, "ExpandEmbeddings").
template <typename Base, typename Writer, typename VisitBases>
void RunExpand(dfl::ExecutionContext& ctx, const ExpandSpec& spec,
               const VisitBases& visit_bases, std::vector<Writer>* writers) {
  using State = ExpandState<Base>;
  using Buckets = std::vector<std::vector<State>>;  // [target]
  static constexpr const char* kStepLabel = "ExpandStep";
  const epgm::AdjacencyIndex& adjacency = spec.adjacency;
  const int p = ctx.num_workers();
  common::CancellationToken& cancel = ctx.cancellation();

  // Grows path `s` by the adjacency entry `adj` into *next, enforcing the
  // morphism constraints on the grown path.
  const auto grow = [&spec](const State& s,
                            const epgm::AdjacencyIndex::Neighbor& adj,
                            State* next) {
    const uint64_t new_end = adj.other;
    if (spec.edge_iso) {
      // The new edge must not repeat within the path nor collide with
      // edges already bound in the base row.
      for (const State* q = &s; q->hops > 0; q = q->prev) {
        if (q->edge == adj.edge_id) return false;
      }
      if (BaseBindsEdge(*s.base, adj.edge_id, spec.base_edge_columns,
                        spec.base_path_columns)) {
        return false;
      }
    }
    if (spec.vertex_iso) {
      // Path-local distinctness: the new end must not revisit an interior
      // vertex, and must not return to the path's start — unless it is the
      // bound end binding (cycle queries where the path's endpoints are the
      // same query variable). Distinctness of the end against other vertex
      // *columns* is enforced at emission; path interiors are free, as
      // they bind no query variable.
      if (new_end == s.end) return false;  // data self-loop revisits the end
      for (const State* q = s.prev; q != nullptr && q->hops > 0;
           q = q->prev) {
        if (q->end == new_end) return false;
      }
      const bool is_bound_end =
          spec.end_bound && BaseId(*s.base, spec.bound_end_column) == new_end;
      if (!is_bound_end && new_end == BaseId(*s.base, spec.start_column)) {
        return false;
      }
    }
    *next = {s.base, &s, adj.edge_id, new_end, s.hops + 1};
    return true;
  };

  // Writes the finished path `s` if it closes on the bound end and passes
  // the morphism and residual checks; returns whether it was written. The
  // hop step keeps the path's edges distinct from each other and from the
  // base row's, and every base row already satisfies the morphism on its
  // own columns, so all that is left to compare is a fresh end column
  // against the base's vertex columns. Debug builds confirm every verdict
  // with the full check on the pending row.
  const auto emit = [&spec](const State& s, Writer& w,
                            std::vector<uint64_t>* via) {
    if (spec.end_bound &&
        BaseId(*s.base, spec.bound_end_column) != s.end) {
      return false;
    }
    const bool distinct =
        !spec.vertex_iso || spec.end_bound ||
        std::none_of(spec.base_vertex_columns.begin(),
                     spec.base_vertex_columns.end(),
                     [&s](int c) { return BaseId(*s.base, c) == s.end; });
    s.Via(via);
    if (spec.reverse) std::reverse(via->begin(), via->end());
    if (!distinct) {
#ifndef NDEBUG
      w.Begin(*s.base, *via, s.end);
      assert(!w.PendingSatisfiesMorphism() &&
             "end-column morphism check disagrees with the full check");
      w.Rollback();
#endif
      return false;
    }
    w.Begin(*s.base, *via, s.end);
    assert(w.PendingSatisfiesMorphism() &&
           "end-column morphism check disagrees with the full check");
    if (!w.PendingPassesResidual()) {
      w.Rollback();
      return false;
    }
    w.Commit();
    return true;
  };

  // Appends `s` to `out`'s bucket for the partition owning its end and
  // tallies it as a record source `t` sends into the next hop's exchange.
  // Every record's bytes enter `exchanged`: the exchange's telemetry
  // counter and the state the accountant stages.
  const auto route = [&adjacency](const State& s, int t, Buckets* out,
                                  dfl::ExchangeTally* tally) {
    const int target = adjacency.OwnerOf(s.end);
    const uint64_t bytes = s.SerializedSize();
    tally->exchanged += bytes;
    if (target != t) {
      tally->out_bytes[t] += bytes;
      tally->in_bytes[target] += bytes;
      tally->moved += bytes;
    }
    (*out)[target].push_back(s);
  };

  // routed[s][t]: the records source s routed to partition t for the
  // next hop. Every hop's routed frontier stays alive in `frontiers`:
  // later records point into it.
  std::vector<Buckets> routed(p, Buckets(p));
  std::vector<dfl::ExchangeTally> route_tallies(p, dfl::ExchangeTally(p));
  std::vector<std::vector<Buckets>> frontiers;

  {
    std::vector<uint64_t> rows(p, 0);
    std::vector<uint64_t> emitted(p, 0);
    const bool emit_zero = spec.lower_bound == 0;
    const bool route_first = spec.upper_bound >= 1;
    ctx.pool().RunAndWait(
        p,
        [&](int t) {
          std::vector<uint64_t> via;
          rows[t] = visit_bases(t, [&](const Base& base) {
            const State s{&base, nullptr, 0, BaseId(base, spec.start_column),
                          0};
            if (emit_zero && emit(s, (*writers)[t], &via)) ++emitted[t];
            if (route_first) route(s, t, &routed[t], &route_tallies[t]);
          });
          route_tallies[t].in_counts[t] = route_first ? rows[t] : 0;
        },
        "ExpandInit");
    dfl::ChargeNarrow(ctx, "ExpandInit", rows, rows);
    if (emit_zero) dfl::ChargeNarrow(ctx, "ExpandEmitZero", rows, emitted);
  }

  dfl::MemoryAccountant& accountant = ctx.accountant();
  telemetry::Telemetry& tel = ctx.telemetry();
  const std::string stage_label = std::string(kStepLabel) + "/BuildProbe";
  const auto end_of = [](const State& s) { return s.end; };
  for (int k = 1; k <= spec.upper_bound; ++k) {
    // Each hop runs a full pass, so one boundary check per hop bounds the
    // loop's cancel latency to one stage.
    if (cancel.CancelledOrExpired()) break;
    dfl::ExchangeTally exchange(p);
    for (const dfl::ExchangeTally& source : route_tallies) {
      exchange.Add(source);
    }
    uint64_t frontier_size = 0;
    for (const uint64_t n : exchange.in_counts) frontier_size += n;
    if (frontier_size == 0) break;  // no more valid paths

    const std::vector<Buckets>& frontier =
        frontiers.emplace_back(std::move(routed));
    routed.assign(p, Buckets(p));
    route_tallies.assign(p, dfl::ExchangeTally(p));
    const bool emitting = k >= spec.lower_bound;
    const bool routing = k < spec.upper_bound;
    std::vector<uint64_t> grown(p, 0);
    std::vector<uint64_t> emitted(p, 0);
    dfl::BuildProbeTally tally(p);
    ctx.pool().RunAndWait(
        p,
        [&](int t) {
          uint64_t read = 0;
          // cancellation: O(partitions) size walk, no per-record work.
          for (int s = 0; s < p; ++s) read += frontier[s][t].size();
          std::vector<uint64_t> via;
          Writer& writer = (*writers)[t];
          const auto visit =
              [&](const State& s,
                  std::span<const epgm::AdjacencyIndex::Neighbor> adj) {
                // Newest first: a hash join's build table returns equal
                // keys in that order, so the hop grows the same records in
                // the same per-partition order as the join it replaces.
                // cancellation: adjacency of one frontier record; Walk
                // polls per record.
                for (auto it = adj.rbegin(); it != adj.rend(); ++it) {
                  State next;
                  if (!grow(s, *it, &next)) continue;
                  ++grown[t];
                  if (emitting && emit(next, writer, &via)) ++emitted[t];
                  if (routing) {
                    route(next, t, &routed[t], &route_tallies[t]);
                  }
                }
              };
          // cancellation: one Walk per source bucket, each polling per
          // record; a tripped token skips the remaining buckets.
          for (int s = 0; s < p && !cancel.cancelled(); ++s) {
            if (frontier[s][t].empty()) continue;
            adjacency.Walk(t, frontier[s][t], end_of, visit, cancel);
          }
          route_tallies[t].in_counts[t] = routing ? grown[t] : 0;
          tally.work[t] = read + adjacency.rows(t);
          tally.out_counts[t] = grown[t];
          tally.state_bytes[t] = adjacency.bytes(t);
          tally.state_records[t] = adjacency.rows(t);
        },
        stage_label.c_str());

    // The frontier exchange ran inside the passes, so its span is empty.
    const double now_us = tel.enabled() ? tel.tracer().NowMicros() : 0.0;
    dfl::ChargeExchange(ctx, kStepLabel, exchange, now_us);
    // The edge side's exchange and build state, charged from the totals
    // the index computed when it was built.
    dfl::ChargeExchange(ctx, kStepLabel, adjacency.exchange(), now_us);
    uint64_t staged_bytes = 0;
    if (accountant.enabled()) {
      staged_bytes = exchange.exchanged + adjacency.total_bytes();
      accountant.Charge(staged_bytes);
    }
    dfl::ChargeBuildProbe(ctx, stage_label, tally, staged_bytes);
    if (emitting) dfl::ChargeNarrow(ctx, "ExpandEmit", grown, emitted);
  }
  // cancellation: O(partitions) flush of the writers' open batches.
  for (Writer& writer : *writers) writer.Finish();
}

}  // namespace

EmbeddingSet ExpandEmbeddings(const EmbeddingSet& input,
                              const epgm::AdjacencyIndex& adjacency,
                              int start_column, int bound_end_column,
                              const EmbeddingMetaData& result_meta,
                              int lower_bound, int upper_bound,
                              const MorphismSetting& semantics,
                              const std::vector<cypher::CnfClause>& residual) {
  assert(start_column >= 0 && "expansion start must be bound");
  assert(adjacency.num_partitions() == input.data.num_partitions());
  const ExpandSpec spec(input.meta, adjacency, start_column, bound_end_column,
                        result_meta, lower_bound, upper_bound, semantics,
                        residual);
  const int p = input.data.num_partitions();
  auto results = std::make_shared<dfl::Dataset<Embedding>::Partitions>(p);
  std::vector<RowPathWriter> writers;
  writers.reserve(p);
  for (int t = 0; t < p; ++t) writers.emplace_back(spec, &(*results)[t]);
  common::CancellationToken& cancel = input.data.context()->cancellation();
  RunExpand<Embedding>(
      *input.data.context(), spec,
      [&](int t, const auto& visit) {
        const std::vector<Embedding>& src = input.data.partition(t);
        for (const Embedding& e : src) {
          if (cancel.CheckCancelled()) break;
          visit(e);
        }
        return static_cast<uint64_t>(src.size());
      },
      &writers);
  return {dfl::Dataset<Embedding>(input.data.context(), std::move(results)),
          result_meta};
}

BatchSet ExpandBatches(const BatchSet& input,
                       const epgm::AdjacencyIndex& adjacency,
                       int start_column, int bound_end_column,
                       const EmbeddingMetaData& result_meta, int lower_bound,
                       int upper_bound, const MorphismSetting& semantics,
                       const std::vector<cypher::CnfClause>& residual,
                       int batch_size) {
  assert(start_column >= 0 && "expansion start must be bound");
  assert(adjacency.num_partitions() == input.data.num_partitions());
  assert(batch_size > 0);
  const ExpandSpec spec(input.meta, adjacency, start_column, bound_end_column,
                        result_meta, lower_bound, upper_bound, semantics,
                        residual);
  const int p = input.data.num_partitions();
  const std::vector<uint8_t> flags = BatchColumnFlags(result_meta);
  const int props = result_meta.property_column_count();
  auto results = std::make_shared<dfl::Dataset<EmbeddingBatch>::Partitions>(p);
  std::vector<BatchPathWriter> writers;
  writers.reserve(p);
  for (int t = 0; t < p; ++t) {
    writers.emplace_back(spec, flags, props, batch_size, &(*results)[t]);
  }
  // Each partition's base rows, addressed in place; frontier records
  // point into these tables, so each is sized once before it fills.
  std::vector<std::vector<BatchRow>> bases(p);
  common::CancellationToken& cancel = input.data.context()->cancellation();
  RunExpand<BatchRow>(
      *input.data.context(), spec,
      [&](int t, const auto& visit) {
        const std::vector<EmbeddingBatch>& src = input.data.partition(t);
        uint64_t rows = 0;
        // cancellation: O(batches) size prepass; the loop below polls.
        for (const EmbeddingBatch& b : src) rows += b.ActiveRows();
        std::vector<BatchRow>& table = bases[t];
        table.reserve(rows);
        for (const EmbeddingBatch& b : src) {
          const uint32_t active = b.ActiveRows();
          for (uint32_t i = 0; i < active; ++i) {
            if (cancel.CheckCancelled()) return rows;
            const uint32_t row = b.ActiveRow(i);
            const BatchRow& base =
                table.emplace_back(BatchRow{&b, row, b.RowSerializedSize(row)});
            assert(base.bytes == b.RowAt(row).SerializedSize());
            visit(base);
          }
        }
        return rows;
      },
      &writers);
  return {dfl::Dataset<EmbeddingBatch>(input.data.context(),
                                       std::move(results)),
          result_meta};
}

}  // namespace gradoop::query

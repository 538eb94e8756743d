#include "query/operators.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>

namespace gradoop::query {

namespace dfl = ::gradoop::dataflow;

namespace {

// Resolver over a raw element during leaf scans: only the scanned
// variable's properties are in scope.
cypher::ValueResolver ElementResolver(std::string variable,
                                      const epgm::Properties& properties) {
  // `properties` refers to the element being scanned and outlives the
  // resolver's use within one FlatMap call; the variable name is copied.
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

// Residual clauses of a fused filter, evaluated on the produced embedding.
bool PassesResidual(const std::vector<cypher::CnfClause>& residual,
                    const EmbeddingMetaData& meta, const Embedding& e) {
  if (residual.empty()) return true;
  return EvaluateClauses(residual, meta.MakeResolver(e));
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

bool AllDistinct(std::vector<uint64_t>* ids) {
  std::sort(ids->begin(), ids->end());
  return std::adjacent_find(ids->begin(), ids->end()) == ids->end();
}

}  // namespace

EmbeddingSet SelectAndProjectVertices(
    const dataflow::Dataset<epgm::Vertex>& vertices,
    const cypher::QueryVertex& query_vertex,
    const std::vector<cypher::CnfClause>& predicates,
    const EmbeddingMetaData& meta,
    const std::vector<cypher::CnfClause>& residual) {
  const std::vector<std::string> projected =
      ProjectedKeys(meta, query_vertex.variable);
  auto data = vertices.FlatMap<Embedding>(
      [query_vertex, predicates, projected, meta, residual](
          const epgm::Vertex& v, std::vector<Embedding>* out) {
        if (!query_vertex.MatchesLabel(v.label)) return;
        const auto resolver =
            ElementResolver(query_vertex.variable, v.properties);
        if (!EvaluateClauses(predicates, resolver)) return;
        Embedding e;
        e.AppendId(v.id);
        for (const std::string& key : projected) {
          e.AppendProperty(v.properties.Get(key));
        }
        if (!PassesResidual(residual, meta, e)) return;
        out->push_back(std::move(e));
      },
      "SelectAndProjectVertices");
  return {std::move(data), meta};
}

EmbeddingSet SelectAndProjectEdges(
    const dataflow::Dataset<epgm::Edge>& edges,
    const cypher::QueryEdge& query_edge,
    const std::vector<cypher::CnfClause>& predicates,
    const MorphismSetting& semantics, bool self_loop,
    const EmbeddingMetaData& meta,
    const std::vector<cypher::CnfClause>& residual) {
  assert(!query_edge.IsVariableLength());
  // Under vertex isomorphism a data self-loop cannot bind two distinct
  // query vertices; the scan enforces it so that scan-only plans are
  // already morphism-correct.
  const bool drop_data_self_loops =
      !self_loop && semantics.vertex == MatchSemantics::kIsomorphism;
  const std::vector<std::string> projected =
      ProjectedKeys(meta, query_edge.variable);
  const bool any_direction = query_edge.any_direction;
  auto data = edges.FlatMap<Embedding>(
      [query_edge, predicates, projected, self_loop, any_direction,
       drop_data_self_loops, meta, residual](const epgm::Edge& edge,
                                             std::vector<Embedding>* out) {
        if (!query_edge.MatchesType(edge.label)) return;
        if (self_loop && edge.source_id != edge.target_id) return;
        if (drop_data_self_loops && edge.source_id == edge.target_id) return;
        const auto resolver =
            ElementResolver(query_edge.variable, edge.properties);
        if (!EvaluateClauses(predicates, resolver)) return;
        auto emit = [&](uint64_t src, uint64_t dst) {
          Embedding e;
          e.AppendId(src);
          e.AppendId(edge.id);
          if (!self_loop) e.AppendId(dst);
          for (const std::string& key : projected) {
            e.AppendProperty(edge.properties.Get(key));
          }
          if (!PassesResidual(residual, meta, e)) return;
          out->push_back(std::move(e));
        };
        emit(edge.source_id, edge.target_id);
        // Undirected pattern: the edge also matches flipped (unless it is
        // a data self-loop, which would duplicate).
        if (any_direction && edge.source_id != edge.target_id) {
          emit(edge.target_id, edge.source_id);
        }
      },
      "SelectAndProjectEdges");
  return {std::move(data), meta};
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
  auto data = left.data.HashJoin<Embedding>(
      right.data,
      [left_columns](const Embedding& e) { return JoinKeyOf(e, left_columns); },
      [right_columns](const Embedding& e) {
        return JoinKeyOf(e, right_columns);
      },
      [merged_meta, semantics, residual](const Embedding& l,
                                         const Embedding& r,
                                         std::vector<Embedding>* out) {
        Embedding merged = Embedding::Merge(l, r);
        if (!SatisfiesMorphism(merged, merged_meta, semantics)) return;
        if (!PassesResidual(residual, merged_meta, merged)) return;
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
  auto data = left_data.HashJoin<Embedding>(
      right_data,
      [left_key_columns](const Embedding& e) {
        return *ValueJoinKeyOf(e, left_key_columns);
      },
      [right_key_columns](const Embedding& e) {
        return *ValueJoinKeyOf(e, right_key_columns);
      },
      [merged_meta, semantics, residual](const Embedding& l,
                                         const Embedding& r,
                                         std::vector<Embedding>* out) {
        Embedding merged = Embedding::Merge(l, r);
        if (!SatisfiesMorphism(merged, merged_meta, semantics)) return;
        if (!PassesResidual(residual, merged_meta, merged)) return;
        out->push_back(std::move(merged));
      },
      strategy, "ValueJoinEmbeddings", hints);
  return {std::move(data), merged_meta};
}

EmbeddingSet SelectEmbeddings(const EmbeddingSet& input,
                              const std::vector<cypher::CnfClause>& clauses) {
  const EmbeddingMetaData meta = input.meta;
  auto data = input.data.Filter(
      [meta, clauses](const Embedding& e) {
        return EvaluateClauses(clauses, meta.MakeResolver(e));
      },
      "SelectEmbeddings");
  return {std::move(data), input.meta};
}

namespace {

// Working record of one in-flight variable-length expansion: a path of
// `hops` edges from the start binding of `*base` to `end`. Neither the
// base embedding nor the path is copied from hop to hop: `base` points at
// a row of the expansion's input dataset, and `prev` at the state this one
// grew from — a record of the previous hop's exchanged frontier, which
// ExpandEmbeddings keeps alive until it returns. The path's via list
// (alternating edge/vertex ids) is the chain of (edge, end) pairs.
struct ExpandState {
  const Embedding* base = nullptr;    // the input embedding, untouched
  const ExpandState* prev = nullptr;  // the path without its last hop
  uint64_t edge = 0;                  // last edge walked (hops >= 1)
  uint64_t end = 0;                   // current path end vertex
  uint32_t hops = 0;

  size_t ViaSize() const { return hops == 0 ? 0 : 2 * size_t{hops} - 1; }

  // The record the paper's plan ships per hop carries the whole base
  // embedding and the via list, so that is what the cost model prices.
  size_t SerializedSize() const {
    return base->SerializedSize() + sizeof(uint32_t) + 8 * ViaSize() + 8;
  }

  // The via list in walk order: e1, v1, e2, ..., v(k-1), ek.
  std::vector<uint64_t> Via() const {
    std::vector<uint64_t> via(ViaSize());
    size_t i = via.size();
    for (const ExpandState* s = this; s->hops > 0; s = s->prev) {
      via[--i] = s->edge;
      if (i > 0) via[--i] = s->prev->end;
    }
    return via;
  }
};

uint64_t EndOf(const ExpandState& s) { return s.end; }

// One 1-hop expansion: exchanges the frontier on its end vertex, then
// every partition walks its share of `adjacency` and `step(state,
// neighbor, &out)` grows the surviving paths. The exchanged frontier is
// appended to `paths`, which must outlive the returned states (they point
// into it). Charged exactly as the paper's per-hop repartition join of
// the frontier with the edge set: the frontier exchange really runs; the
// edge side's exchange and build state are charged from the totals the
// index computed when it was built.
template <typename Step>
dfl::Dataset<ExpandState> ExpandHop(
    const dfl::Dataset<ExpandState>& frontier,
    const epgm::AdjacencyIndex& adjacency, const Step& step,
    std::vector<dfl::Dataset<ExpandState>>* paths) {
  static constexpr const char* kLabel = "ExpandStep";
  dfl::ExecutionContext& ctx = *frontier.context();
  const dfl::Dataset<ExpandState> shuffled =
      paths->emplace_back(frontier.RepartitionByKey(EndOf, kLabel));
  telemetry::Telemetry& tel = ctx.telemetry();
  dfl::ChargeExchange(ctx, kLabel, adjacency.exchange(),
                      tel.enabled() ? tel.tracer().NowMicros() : 0.0);

  const int p = frontier.num_partitions();
  dfl::MemoryAccountant& accountant = ctx.accountant();
  uint64_t staged_bytes = 0;
  if (accountant.enabled()) {
    for (int part = 0; part < p; ++part) {
      // cancellation: accounting byte walk; the walk below polls.
      for (const ExpandState& s : shuffled.partition(part)) {
        staged_bytes += dfl::RecordBytes(s);
      }
    }
    staged_bytes += adjacency.total_bytes();
    accountant.Charge(staged_bytes);
  }

  auto out = std::make_shared<dfl::Dataset<ExpandState>::Partitions>(p);
  dfl::BuildProbeTally tally(p);
  const std::string stage_label = std::string(kLabel) + "/BuildProbe";
  common::CancellationToken& cancel = ctx.cancellation();
  ctx.pool().RunAndWait(
      p,
      [&](int part) {
        std::vector<ExpandState>& dst = (*out)[part];
        const std::vector<ExpandState>& src = shuffled.partition(part);
        adjacency.Walk(
            part, src, EndOf,
            [&](const ExpandState& s,
                std::span<const epgm::AdjacencyIndex::Neighbor> adj) {
              // Newest first: HashJoin's unordered_multimap build table
              // returns equal keys in that order, so the hop emits the
              // same rows in the same per-partition order as a join.
              // cancellation: adjacency of one frontier record; Walk polls
              // per record.
              for (auto it = adj.rbegin(); it != adj.rend(); ++it) {
                step(s, *it, &dst);
              }
            },
            cancel);
        tally.work[part] = src.size() + adjacency.rows(part);
        tally.out_counts[part] = dst.size();
        tally.state_bytes[part] = adjacency.bytes(part);
        tally.state_records[part] = adjacency.rows(part);
      },
      stage_label.c_str());
  dfl::ChargeBuildProbe(ctx, stage_label, tally, staged_bytes);
  return dfl::Dataset<ExpandState>(frontier.context(), std::move(out));
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
  const bool reverse = adjacency.reverse();
  const bool end_bound = bound_end_column >= 0;

  // Columns of the *input* layout, read off the input's compiled meta
  // (the result meta additionally holds the fresh path/end columns).
  const std::vector<int> base_edge_columns = input.meta.EdgeColumns();
  const std::vector<int> base_path_columns = input.meta.PathColumns();
  const bool vertex_iso = semantics.vertex == MatchSemantics::kIsomorphism;
  const bool edge_iso = semantics.edge == MatchSemantics::kIsomorphism;

  // Builds the emitted embedding for a completed path of k >= 0 hops.
  auto emit = [=](const ExpandState& state, std::vector<Embedding>* out) {
    if (end_bound && state.base->IdAt(bound_end_column) != state.end) return;
    std::vector<uint64_t> via = state.Via();
    if (reverse) std::reverse(via.begin(), via.end());
    Embedding result = *state.base;
    result.AppendPath(via);
    if (!end_bound) result.AppendId(state.end);
    if (!SatisfiesMorphism(result, result_meta, semantics)) return;
    if (!PassesResidual(residual, result_meta, result)) return;
    out->push_back(std::move(result));
  };

  // Grows path `s` by the adjacency entry `adj`, enforcing the morphism
  // constraints on the grown path.
  auto step = [=](const ExpandState& s,
                  const epgm::AdjacencyIndex::Neighbor& adj,
                  std::vector<ExpandState>* out) {
    const uint64_t new_end = adj.other;
    if (edge_iso) {
      // The new edge must not repeat within the path nor collide with
      // edges already bound in the base embedding.
      for (const ExpandState* p = &s; p->hops > 0; p = p->prev) {
        if (p->edge == adj.edge_id) return;
      }
      if (s.base->ContainsIdAt(adj.edge_id, base_edge_columns)) return;
      if (s.base->PathContains(adj.edge_id, base_path_columns, true)) return;
    }
    if (vertex_iso) {
      // Path-local distinctness: the new end must not revisit an interior
      // vertex, and must not return to the path's start — unless it is the
      // bound end binding (cycle queries where the path's endpoints are the
      // same query variable). Distinctness of the end against other vertex
      // *columns* is enforced at emission by SatisfiesMorphism; path
      // interiors are free, as they bind no query variable.
      if (new_end == s.end) return;  // data self-loop revisits the end
      for (const ExpandState* p = s.prev; p != nullptr && p->hops > 0;
           p = p->prev) {
        if (p->end == new_end) return;
      }
      const bool is_bound_end =
          end_bound && s.base->IdAt(bound_end_column) == new_end;
      if (!is_bound_end && new_end == s.base->IdAt(start_column)) return;
    }
    out->push_back({s.base, &s, adj.edge_id, new_end, s.hops + 1});
  };

  // Initial frontier: every input embedding positioned at its start
  // binding with an empty path.
  dfl::Dataset<ExpandState> frontier = input.data.Map(
      [start_column](const Embedding& e) {
        return ExpandState{&e, nullptr, 0, e.IdAt(start_column), 0};
      },
      "ExpandInit");

  std::vector<dfl::Dataset<Embedding>> emitted;
  std::vector<dfl::Dataset<ExpandState>> paths;

  if (lower_bound == 0) {
    emitted.push_back(frontier.FlatMap<Embedding>(
        [emit](const ExpandState& s, std::vector<Embedding>* out) {
          emit(s, out);
        },
        "ExpandEmitZero"));
  }

  common::CancellationToken& cancel = input.data.context()->cancellation();
  for (int k = 1; k <= upper_bound; ++k) {
    // Each hop runs a full exchange and walk stage, so one boundary check
    // per hop bounds the loop's cancel latency to one stage.
    if (cancel.CancelledOrExpired()) break;
    uint64_t frontier_size = 0;
    // cancellation: O(partitions) size walk, no per-record work.
    for (int p = 0; p < frontier.num_partitions(); ++p) {
      frontier_size += frontier.partition(p).size();
    }
    if (frontier_size == 0) break;  // no more valid paths

    frontier = ExpandHop(frontier, adjacency, step, &paths);

    if (k >= lower_bound) {
      emitted.push_back(frontier.FlatMap<Embedding>(
          [emit](const ExpandState& s, std::vector<Embedding>* out) {
            emit(s, out);
          },
          "ExpandEmit"));
    }
  }
  dfl::Dataset<Embedding> results =
      dfl::Dataset<Embedding>::Empty(input.data.context());
  // cancellation: folds at most upper_bound per-hop result handles;
  // Union is a pure partition splice with no per-record work.
  for (const auto& part : emitted) results = results.Union(part);
  return {std::move(results), result_meta};
}

}  // namespace gradoop::query

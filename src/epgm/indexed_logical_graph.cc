#include "epgm/indexed_logical_graph.h"

#include <memory>

namespace gradoop::epgm {

namespace {

// Splits one element dataset into per-label datasets without moving records
// across partitions.
template <typename T>
std::map<std::string, dataflow::Dataset<T>> SplitByLabel(
    const dataflow::Dataset<T>& input) {
  using Partitions = typename dataflow::Dataset<T>::Partitions;
  const int p = input.num_partitions();
  std::map<std::string, std::shared_ptr<Partitions>> buckets;
  for (int i = 0; i < p; ++i) {
    for (const T& rec : input.partition(i)) {
      auto it = buckets.find(rec.label);
      if (it == buckets.end()) {
        it = buckets.emplace(rec.label, std::make_shared<Partitions>(p)).first;
      }
      (*it->second)[i].push_back(rec);
    }
  }
  std::map<std::string, dataflow::Dataset<T>> out;
  for (auto& [label, parts] : buckets) {
    out.emplace(label, dataflow::Dataset<T>(input.context(), parts));
  }
  return out;
}

}  // namespace

IndexedLogicalGraph IndexedLogicalGraph::Build(const LogicalGraph& graph) {
  IndexedLogicalGraph out;
  out.head_ = graph.head();
  out.ctx_ = graph.context();
  out.vertices_by_label_ = SplitByLabel(graph.vertices());
  out.edges_by_label_ = SplitByLabel(graph.edges());

  // One narrow pass over all elements (load-time re-bucketing).
  dataflow::StageCost cost;
  cost.label = "BuildIndex";
  uint64_t records = 0;
  for (int i = 0; i < graph.vertices().num_partitions(); ++i) {
    records += graph.vertices().partition(i).size();
    records += graph.edges().partition(i).size();
  }
  const auto& cfg = out.ctx_->config();
  cost.compute_sec = static_cast<double>(records) / cfg.num_workers *
                     cfg.seconds_per_record;
  cost.latency_sec = cfg.stage_latency_sec;
  out.ctx_->tracker().AddStage(cost);
  return out;
}

dataflow::Dataset<Vertex> IndexedLogicalGraph::VerticesByLabel(
    const std::string& label) const {
  auto it = vertices_by_label_.find(label);
  if (it == vertices_by_label_.end()) {
    return dataflow::Dataset<Vertex>::Empty(ctx_);
  }
  return it->second;
}

dataflow::Dataset<Edge> IndexedLogicalGraph::EdgesByLabel(
    const std::string& label) const {
  auto it = edges_by_label_.find(label);
  if (it == edges_by_label_.end()) {
    return dataflow::Dataset<Edge>::Empty(ctx_);
  }
  return it->second;
}

dataflow::Dataset<Vertex> IndexedLogicalGraph::AllVertices() const {
  dataflow::Dataset<Vertex> out = dataflow::Dataset<Vertex>::Empty(ctx_);
  for (const auto& [label, ds] : vertices_by_label_) out = out.Union(ds);
  return out;
}

dataflow::Dataset<Edge> IndexedLogicalGraph::AllEdges() const {
  dataflow::Dataset<Edge> out = dataflow::Dataset<Edge>::Empty(ctx_);
  for (const auto& [label, ds] : edges_by_label_) out = out.Union(ds);
  return out;
}

dataflow::Dataset<Edge> IndexedLogicalGraph::EdgesOfTypes(
    const std::vector<std::string>& types) const {
  if (types.empty()) return AllEdges();
  dataflow::Dataset<Edge> out = EdgesByLabel(types.front());
  for (size_t i = 1; i < types.size(); ++i) {
    out = out.Union(EdgesByLabel(types[i]));
  }
  return out;
}

std::shared_ptr<const AdjacencyIndex> IndexedLogicalGraph::Adjacency(
    const std::vector<std::string>& types, bool reverse) const {
  // One lock across the build: a second query asking for the same index
  // waits for it instead of building a duplicate. The build runs pool
  // tasks, whose dataflow-rank locks sit below this one.
  common::MutexLock lock(adjacency_->mu);
  std::shared_ptr<const AdjacencyIndex>& slot =
      adjacency_->indexes[{types, reverse}];
  if (slot != nullptr) return slot;
  telemetry::Telemetry& tel = ctx_->telemetry();
  const bool traced = tel.enabled();
  const double begin_us = traced ? tel.tracer().NowMicros() : 0.0;
  slot = std::make_shared<const AdjacencyIndex>(
      AdjacencyIndex::Build(EdgesOfTypes(types), reverse));
  if (traced) {
    tel.tracer().AddSpan("AdjacencyIndex/Build", telemetry::kCategoryStage,
                         begin_us, tel.tracer().NowMicros(), /*worker=*/-1,
                         {{"edges", static_cast<double>(slot->num_edges())},
                          {"reverse", reverse ? 1.0 : 0.0}});
  }
  return slot;
}

std::vector<std::string> IndexedLogicalGraph::VertexLabels() const {
  std::vector<std::string> out;
  for (const auto& [label, ds] : vertices_by_label_) out.push_back(label);
  return out;
}

std::vector<std::string> IndexedLogicalGraph::EdgeLabels() const {
  std::vector<std::string> out;
  for (const auto& [label, ds] : edges_by_label_) out.push_back(label);
  return out;
}

}  // namespace gradoop::epgm

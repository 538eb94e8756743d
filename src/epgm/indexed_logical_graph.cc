#include "epgm/indexed_logical_graph.h"

#include <memory>
#include <utility>

#include "epgm/label_runs.h"

namespace gradoop::epgm {

namespace {

// One partition's records grouped by label, each group in record order.
template <typename T>
using LabelSplit = std::map<std::string, std::vector<T>>;

template <typename T>
void SplitPartition(const std::vector<T>& partition, LabelSplit<T>* out) {
  ForEachByLabel(partition, out, [](std::vector<T>& bucket, const T& rec) {
    bucket.push_back(rec);
  });
}

// Moves the per-partition splits into one dataset per label; partition i
// of every label's dataset is the label's group of partition i.
template <typename T>
std::map<std::string, dataflow::Dataset<T>> ByLabel(
    const dataflow::ExecutionContextPtr& ctx,
    std::vector<LabelSplit<T>>* splits) {
  using Partitions = typename dataflow::Dataset<T>::Partitions;
  const int p = static_cast<int>(splits->size());
  std::map<std::string, std::shared_ptr<Partitions>> buckets;
  for (int i = 0; i < p; ++i) {
    for (auto& [label, records] : (*splits)[i]) {
      std::shared_ptr<Partitions>& parts = buckets[label];
      if (parts == nullptr) parts = std::make_shared<Partitions>(p);
      (*parts)[i] = std::move(records);
    }
  }
  std::map<std::string, dataflow::Dataset<T>> out;
  for (auto& [label, parts] : buckets) {
    out.emplace(label, dataflow::Dataset<T>(ctx, std::move(parts)));
  }
  return out;
}

// The per-label datasets of `labels` in that order, or every label's when
// `labels` is empty. An absent label has no records to contribute.
template <typename T>
dataflow::DatasetList<T> ListOf(
    const dataflow::ExecutionContextPtr& ctx,
    const std::map<std::string, dataflow::Dataset<T>>& by_label,
    const std::vector<std::string>& labels) {
  std::vector<dataflow::Dataset<T>> members;
  if (labels.empty()) {
    for (const auto& [label, ds] : by_label) members.push_back(ds);
  }
  for (const std::string& label : labels) {
    auto it = by_label.find(label);
    if (it != by_label.end()) members.push_back(it->second);
  }
  return {ctx, std::move(members)};
}

}  // namespace

IndexedLogicalGraph IndexedLogicalGraph::Build(const LogicalGraph& graph) {
  IndexedLogicalGraph out;
  out.head_ = graph.head();
  out.ctx_ = graph.context();
  // One pool task per vertex and per edge partition splits its own
  // partition; no record crosses a partition.
  const int vp = graph.vertices().num_partitions();
  const int ep = graph.edges().num_partitions();
  std::vector<LabelSplit<Vertex>> vertex_splits(vp);
  std::vector<LabelSplit<Edge>> edge_splits(ep);
  out.ctx_->pool().RunAndWait(vp + ep, [&](int task) {
    if (task < vp) {
      SplitPartition(graph.vertices().partition(task), &vertex_splits[task]);
    } else {
      SplitPartition(graph.edges().partition(task - vp),
                     &edge_splits[task - vp]);
    }
  });
  out.vertices_by_label_ =
      ByLabel(graph.vertices().context(), &vertex_splits);
  out.edges_by_label_ = ByLabel(graph.edges().context(), &edge_splits);

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

dataflow::DatasetList<Vertex> IndexedLogicalGraph::VerticesOfLabels(
    const std::vector<std::string>& labels) const {
  return ListOf(ctx_, vertices_by_label_, labels);
}

dataflow::DatasetList<Edge> IndexedLogicalGraph::EdgesOfTypes(
    const std::vector<std::string>& types) const {
  return ListOf(ctx_, edges_by_label_, types);
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

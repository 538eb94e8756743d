#ifndef GRADOOP_EPGM_INDEXED_LOGICAL_GRAPH_H_
#define GRADOOP_EPGM_INDEXED_LOGICAL_GRAPH_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "epgm/adjacency_index.h"
#include "epgm/logical_graph.h"

namespace gradoop::epgm {

// Alternative graph layout that partitions vertices and edges by type label
// and manages one dataset per label (§3.4). When a query element carries a
// label predicate, the planner loads only that label's dataset instead of
// filtering (and re-reading) the full element datasets.
class IndexedLogicalGraph {
 public:
  IndexedLogicalGraph() = default;

  // Splits the element datasets of `graph` label-wise, preserving each
  // record's partition and order (a narrow, local re-bucketing — no
  // shuffle). One task per vertex and per edge partition on the graph's
  // pool splits its own partition; the per-label datasets are then
  // assembled from the tasks' vectors without copying a record again.
  static IndexedLogicalGraph Build(const LogicalGraph& graph);

  const GraphHead& head() const { return head_; }
  const dataflow::ExecutionContextPtr& context() const { return ctx_; }

  // Dataset holding exactly the vertices/edges with `label`; an empty
  // dataset when the label does not occur.
  dataflow::Dataset<Vertex> VerticesByLabel(const std::string& label) const;
  dataflow::Dataset<Edge> EdgesByLabel(const std::string& label) const;

  // The per-label datasets of `labels` (`types`), in that order — a
  // pattern element's label or type alternation — or every label's, in
  // label order, when the list is empty (an unlabeled element). Scans
  // read the list in place: no record is copied. An absent label
  // contributes nothing.
  dataflow::DatasetList<Vertex> VerticesOfLabels(
      const std::vector<std::string>& labels) const;
  dataflow::DatasetList<Edge> EdgesOfTypes(
      const std::vector<std::string>& types) const;

  // Adjacency of EdgesOfTypes(types) keyed by source id (target id when
  // `reverse`). Built on first use — not in Build, which would pay for
  // every label and direction up front — and shared by every later call,
  // including concurrent queries and copies of this graph; freed with the
  // last copy.
  std::shared_ptr<const AdjacencyIndex> Adjacency(
      const std::vector<std::string>& types, bool reverse) const;

  std::vector<std::string> VertexLabels() const;
  std::vector<std::string> EdgeLabels() const;

 private:
  GraphHead head_;
  dataflow::ExecutionContextPtr ctx_;
  std::map<std::string, dataflow::Dataset<Vertex>> vertices_by_label_;
  std::map<std::string, dataflow::Dataset<Edge>> edges_by_label_;

  struct AdjacencyCache {
    common::Mutex mu{common::LockRank::kExec, "epgm.adjacency_cache"};
    std::map<std::pair<std::vector<std::string>, bool>,
             std::shared_ptr<const AdjacencyIndex>>
        indexes GUARDED_BY(mu);
  };
  std::shared_ptr<AdjacencyCache> adjacency_ =
      std::make_shared<AdjacencyCache>();
};

}  // namespace gradoop::epgm

#endif  // GRADOOP_EPGM_INDEXED_LOGICAL_GRAPH_H_

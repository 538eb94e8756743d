#ifndef GRADOOP_QUERY_GRAPH_STATISTICS_H_
#define GRADOOP_QUERY_GRAPH_STATISTICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "epgm/logical_graph.h"

namespace gradoop::query {

// Pre-computed statistics about the data graph used by the greedy planner
// to estimate join cardinalities (§3.2): total counts, label
// distributions, and distinct source/target vertex counts overall and per
// edge label.
class GraphStatistics {
 public:
  GraphStatistics() = default;

  // Computed once at load time, like Gradoop's statistics files, in two
  // passes on the graph's pool: one task per partition counts each
  // label's elements and sorts and deduplicates each edge label's source
  // and target ids; then one task per direction, overall and per edge
  // label, merges those sorted runs and counts the distinct ids. The
  // result does not depend on the pool's size (docs/INTERNALS.md,
  // "Engine set-up").
  static GraphStatistics Compute(const epgm::LogicalGraph& graph);

  uint64_t vertex_count() const { return vertex_count_; }
  uint64_t edge_count() const { return edge_count_; }

  uint64_t VertexCountByLabel(const std::string& label) const;
  uint64_t EdgeCountByLabel(const std::string& label) const;
  // Label vocabulary of the data graph, for semantic analysis (a query
  // label outside it matches nothing). A label is "known" iff at least one
  // element carries it — the model is schema-free, so data is the schema.
  bool HasVertexLabel(const std::string& label) const {
    return vertex_label_count_.count(label) > 0;
  }
  bool HasEdgeLabel(const std::string& label) const {
    return edge_label_count_.count(label) > 0;
  }
  std::vector<std::string> VertexLabels() const;
  std::vector<std::string> EdgeLabels() const;
  // Sum over an alternation; empty alternation = all.
  uint64_t VertexCountByLabels(const std::vector<std::string>& labels) const;
  uint64_t EdgeCountByLabels(const std::vector<std::string>& labels) const;

  uint64_t distinct_source_count() const { return distinct_source_count_; }
  uint64_t distinct_target_count() const { return distinct_target_count_; }
  uint64_t DistinctSourceByLabel(const std::string& label) const;
  uint64_t DistinctTargetByLabel(const std::string& label) const;
  uint64_t DistinctSourceByLabels(const std::vector<std::string>& labels) const;
  uint64_t DistinctTargetByLabels(const std::vector<std::string>& labels) const;

  std::string ToString() const;

  // Persistence: Gradoop stores pre-computed statistics next to the graph
  // data so the planner can load them without a pass over the graph.
  Status WriteToFile(const std::string& path) const;
  static Result<GraphStatistics> ReadFromFile(const std::string& path);

 private:
  uint64_t vertex_count_ = 0;
  uint64_t edge_count_ = 0;
  std::map<std::string, uint64_t> vertex_label_count_;
  std::map<std::string, uint64_t> edge_label_count_;
  uint64_t distinct_source_count_ = 0;
  uint64_t distinct_target_count_ = 0;
  std::map<std::string, uint64_t> distinct_source_by_label_;
  std::map<std::string, uint64_t> distinct_target_by_label_;
};

}  // namespace gradoop::query

#endif  // GRADOOP_QUERY_GRAPH_STATISTICS_H_

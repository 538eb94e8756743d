#include "query/graph_statistics.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/strings.h"
#include "dataflow/thread_pool.h"
#include "epgm/label_runs.h"

namespace gradoop::query {

namespace {

using epgm::GradoopId;

// One partition's edges of one label: their count and endpoint ids, the
// ids sorted and duplicate-free once the partition's task has ended.
struct EdgeRuns {
  uint64_t count = 0;
  std::vector<GradoopId> sources;
  std::vector<GradoopId> targets;
};

// What the statistics pass's task for one partition collects.
struct PartitionTally {
  std::map<std::string, uint64_t> vertex_labels;
  std::map<std::string, EdgeRuns> edge_labels;
};

void SortUnique(std::vector<GradoopId>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

// Sorted, duplicate-free id runs whose union one merge task counts.
using RunList = std::vector<const std::vector<GradoopId>*>;

// Number of distinct ids in the union of `runs`: a k-way merge over a
// min-heap of the run heads, O(n log k) for n ids in k runs.
uint64_t CountDistinct(const RunList& runs) {
  struct Head {
    GradoopId id;
    const GradoopId* next;
    const GradoopId* end;
  };
  std::vector<Head> heap;
  heap.reserve(runs.size());
  for (const std::vector<GradoopId>* run : runs) {
    if (!run->empty()) {
      heap.push_back({run->front(), run->data() + 1, run->data() + run->size()});
    }
  }
  if (heap.size() == 1) return heap[0].end - heap[0].next + 1;
  const auto later = [](const Head& a, const Head& b) { return a.id > b.id; };
  std::make_heap(heap.begin(), heap.end(), later);
  uint64_t distinct = 0;
  GradoopId last = 0;
  // cancellation: one-time statistics build at graph load, before any
  // query (and its token) exists.
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Head& head = heap.back();
    if (distinct == 0 || head.id != last) {
      ++distinct;
      last = head.id;
    }
    if (head.next == head.end) {
      heap.pop_back();
    } else {
      head.id = *head.next++;
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  return distinct;
}

}  // namespace

GraphStatistics GraphStatistics::Compute(const epgm::LogicalGraph& graph) {
  const dataflow::Dataset<epgm::Vertex>& vertices = graph.vertices();
  const dataflow::Dataset<epgm::Edge>& edges = graph.edges();
  const int p = std::max(vertices.num_partitions(), edges.num_partitions());
  dataflow::ThreadPool& pool = graph.context()->pool();

  // Pass 1, one task per partition: label counts, and each label's
  // endpoint ids as sorted, duplicate-free runs.
  std::vector<PartitionTally> tallies(p);
  pool.RunAndWait(p, [&](int i) {
    PartitionTally& tally = tallies[i];
    if (i < vertices.num_partitions()) {
      epgm::ForEachByLabel(vertices.partition(i), &tally.vertex_labels,
                           [](uint64_t& count, const epgm::Vertex&) {
                             ++count;
                           });
    }
    if (i < edges.num_partitions()) {
      epgm::ForEachByLabel(edges.partition(i), &tally.edge_labels,
                           [](EdgeRuns& runs, const epgm::Edge& e) {
                             runs.sources.push_back(e.source_id);
                             runs.targets.push_back(e.target_id);
                           });
      for (auto& [label, runs] : tally.edge_labels) {
        runs.count = runs.sources.size();
        SortUnique(&runs.sources);
        SortUnique(&runs.targets);
      }
    }
  });

  GraphStatistics stats;
  std::map<std::string, std::pair<RunList, RunList>> runs_by_label;
  RunList sources, targets;
  for (const PartitionTally& tally : tallies) {
    for (const auto& [label, count] : tally.vertex_labels) {
      stats.vertex_count_ += count;
      stats.vertex_label_count_[label] += count;
    }
    for (const auto& [label, runs] : tally.edge_labels) {
      stats.edge_count_ += runs.count;
      stats.edge_label_count_[label] += runs.count;
      auto& [label_sources, label_targets] = runs_by_label[label];
      label_sources.push_back(&runs.sources);
      label_targets.push_back(&runs.targets);
      sources.push_back(&runs.sources);
      targets.push_back(&runs.targets);
    }
  }

  // Pass 2, one task per direction overall and per (label, direction):
  // merge the runs and count the distinct ids. The two overall merges,
  // the largest, are claimed first.
  std::vector<const RunList*> merges = {&sources, &targets};
  for (const auto& [label, runs] : runs_by_label) {
    merges.push_back(&runs.first);
    merges.push_back(&runs.second);
  }
  std::vector<uint64_t> distinct(merges.size());
  pool.RunAndWait(static_cast<int>(merges.size()),
                  [&](int m) { distinct[m] = CountDistinct(*merges[m]); });

  stats.distinct_source_count_ = distinct[0];
  stats.distinct_target_count_ = distinct[1];
  size_t m = 2;
  for (const auto& [label, runs] : runs_by_label) {
    stats.distinct_source_by_label_[label] = distinct[m++];
    stats.distinct_target_by_label_[label] = distinct[m++];
  }
  return stats;
}

uint64_t GraphStatistics::VertexCountByLabel(const std::string& label) const {
  auto it = vertex_label_count_.find(label);
  return it == vertex_label_count_.end() ? 0 : it->second;
}

uint64_t GraphStatistics::EdgeCountByLabel(const std::string& label) const {
  auto it = edge_label_count_.find(label);
  return it == edge_label_count_.end() ? 0 : it->second;
}

std::vector<std::string> GraphStatistics::VertexLabels() const {
  std::vector<std::string> out;
  out.reserve(vertex_label_count_.size());
  for (const auto& [label, count] : vertex_label_count_) out.push_back(label);
  return out;
}

std::vector<std::string> GraphStatistics::EdgeLabels() const {
  std::vector<std::string> out;
  out.reserve(edge_label_count_.size());
  for (const auto& [label, count] : edge_label_count_) out.push_back(label);
  return out;
}

uint64_t GraphStatistics::VertexCountByLabels(
    const std::vector<std::string>& labels) const {
  if (labels.empty()) return vertex_count_;
  uint64_t total = 0;
  for (const std::string& l : labels) total += VertexCountByLabel(l);
  return total;
}

uint64_t GraphStatistics::EdgeCountByLabels(
    const std::vector<std::string>& labels) const {
  if (labels.empty()) return edge_count_;
  uint64_t total = 0;
  for (const std::string& l : labels) total += EdgeCountByLabel(l);
  return total;
}

uint64_t GraphStatistics::DistinctSourceByLabel(
    const std::string& label) const {
  auto it = distinct_source_by_label_.find(label);
  return it == distinct_source_by_label_.end() ? 0 : it->second;
}

uint64_t GraphStatistics::DistinctTargetByLabel(
    const std::string& label) const {
  auto it = distinct_target_by_label_.find(label);
  return it == distinct_target_by_label_.end() ? 0 : it->second;
}

uint64_t GraphStatistics::DistinctSourceByLabels(
    const std::vector<std::string>& labels) const {
  if (labels.empty()) return distinct_source_count_;
  uint64_t total = 0;
  for (const std::string& l : labels) total += DistinctSourceByLabel(l);
  return total;
}

uint64_t GraphStatistics::DistinctTargetByLabels(
    const std::vector<std::string>& labels) const {
  if (labels.empty()) return distinct_target_count_;
  uint64_t total = 0;
  for (const std::string& l : labels) total += DistinctTargetByLabel(l);
  return total;
}

Status GraphStatistics::WriteToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << "vertex_count;" << vertex_count_ << "\n";
  out << "edge_count;" << edge_count_ << "\n";
  out << "distinct_source_count;" << distinct_source_count_ << "\n";
  out << "distinct_target_count;" << distinct_target_count_ << "\n";
  for (const auto& [label, count] : vertex_label_count_) {
    out << "vertex_label;" << label << ";" << count << "\n";
  }
  for (const auto& [label, count] : edge_label_count_) {
    out << "edge_label;" << label << ";" << count << "\n";
  }
  for (const auto& [label, count] : distinct_source_by_label_) {
    out << "distinct_source;" << label << ";" << count << "\n";
  }
  for (const auto& [label, count] : distinct_target_by_label_) {
    out << "distinct_target;" << label << ";" << count << "\n";
  }
  return Status::Ok();
}

Result<GraphStatistics> GraphStatistics::ReadFromFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  GraphStatistics stats;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = SplitString(line, ';');
    auto parse_count = [](const std::string& text) -> Result<uint64_t> {
      errno = 0;
      char* end = nullptr;
      const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad count: " + text);
      }
      return static_cast<uint64_t>(v);
    };
    if (fields.size() == 2) {
      GRADOOP_ASSIGN_OR_RETURN(uint64_t count, parse_count(fields[1]));
      if (fields[0] == "vertex_count") {
        stats.vertex_count_ = count;
      } else if (fields[0] == "edge_count") {
        stats.edge_count_ = count;
      } else if (fields[0] == "distinct_source_count") {
        stats.distinct_source_count_ = count;
      } else if (fields[0] == "distinct_target_count") {
        stats.distinct_target_count_ = count;
      } else {
        return Status::InvalidArgument("unknown statistics row: " + line);
      }
    } else if (fields.size() == 3) {
      GRADOOP_ASSIGN_OR_RETURN(uint64_t count, parse_count(fields[2]));
      if (fields[0] == "vertex_label") {
        stats.vertex_label_count_[fields[1]] = count;
      } else if (fields[0] == "edge_label") {
        stats.edge_label_count_[fields[1]] = count;
      } else if (fields[0] == "distinct_source") {
        stats.distinct_source_by_label_[fields[1]] = count;
      } else if (fields[0] == "distinct_target") {
        stats.distinct_target_by_label_[fields[1]] = count;
      } else {
        return Status::InvalidArgument("unknown statistics row: " + line);
      }
    } else {
      return Status::InvalidArgument("bad statistics row: " + line);
    }
  }
  return stats;
}

std::string GraphStatistics::ToString() const {
  std::string out = "GraphStatistics(|V|=" + std::to_string(vertex_count_) +
                    ", |E|=" + std::to_string(edge_count_) + "\n vertices:";
  for (const auto& [label, count] : vertex_label_count_) {
    out += " " + label + "=" + std::to_string(count);
  }
  out += "\n edges:";
  for (const auto& [label, count] : edge_label_count_) {
    out += " " + label + "=" + std::to_string(count);
  }
  out += ")";
  return out;
}

}  // namespace gradoop::query

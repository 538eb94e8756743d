#include "epgm/adjacency_index.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace gradoop::epgm {

namespace {

// One edge routed to its key's partition: the key and its adjacency
// entry.
struct Routed {
  uint64_t key;
  AdjacencyIndex::Neighbor neighbor;
};

}  // namespace

AdjacencyIndex AdjacencyIndex::Build(const dataflow::DatasetList<Edge>& edges,
                                     bool reverse) {
  const int p = edges.num_partitions();
  AdjacencyIndex index;
  index.reverse_ = reverse;
  index.parts_.resize(p);
  index.exchange_ = dataflow::ExchangeTally(p);

  // Route every source partition into per-target buckets, tallying the
  // bytes each (source, target) pair would exchange.
  std::vector<std::vector<std::vector<Routed>>> buckets(
      p, std::vector<std::vector<Routed>>(p));
  std::vector<std::vector<uint64_t>> pair_bytes(p, std::vector<uint64_t>(p));
  dataflow::ThreadPool& pool = edges.context()->pool();
  pool.RunAndWait(p, [&](int i) {
    for (const Edge& e : edges.partition(i)) {
      const uint64_t key = reverse ? e.target_id : e.source_id;
      const uint64_t other = reverse ? e.source_id : e.target_id;
      const int target = index.OwnerOf(key);
      buckets[i][target].push_back({key, {e.id, other}});
      pair_bytes[i][target] += e.SerializedSize();
    }
  });

  dataflow::ExchangeTally& tally = index.exchange_;
  for (int i = 0; i < p; ++i) {
    tally.in_counts[i] = edges.partition(i).size();
    for (int t = 0; t < p; ++t) {
      const uint64_t b = pair_bytes[i][t];
      tally.exchanged += b;
      index.parts_[t].bytes += b;
      if (t != i) {
        tally.out_bytes[i] += b;
        tally.in_bytes[t] += b;
        tally.moved += b;
      }
    }
    index.num_edges_ += edges.partition(i).size();
  }

  // Per target: concatenate in source order, stable-sort by key, and lay
  // out keys, offsets and entries.
  pool.RunAndWait(p, [&](int t) {
    std::vector<Routed> routed;
    for (int i = 0; i < p; ++i) {
      routed.insert(routed.end(), buckets[i][t].begin(), buckets[i][t].end());
      std::vector<Routed>().swap(buckets[i][t]);
    }
    std::stable_sort(routed.begin(), routed.end(),
                     [](const Routed& a, const Routed& b) {
                       return a.key < b.key;
                     });
    assert(routed.size() < std::numeric_limits<uint32_t>::max());
    Partition& part = index.parts_[t];
    part.rows = routed.size();
    part.neighbors.reserve(routed.size());
    for (size_t j = 0; j < routed.size(); ++j) {
      if (j == 0 || routed[j].key != routed[j - 1].key) {
        part.keys.push_back(routed[j].key);
        part.offsets.push_back(static_cast<uint32_t>(j));
      }
      part.neighbors.push_back(routed[j].neighbor);
    }
    part.offsets.push_back(static_cast<uint32_t>(routed.size()));
  });
  return index;
}

std::span<const AdjacencyIndex::Neighbor> AdjacencyIndex::Neighbors(
    int partition, uint64_t key) const {
  const Partition& part = parts_[partition];
  const auto it = std::lower_bound(part.keys.begin(), part.keys.end(), key);
  if (it == part.keys.end() || *it != key) return {};
  const size_t k = static_cast<size_t>(it - part.keys.begin());
  return {part.neighbors.data() + part.offsets[k],
          part.neighbors.data() + part.offsets[k + 1]};
}

uint64_t AdjacencyIndex::total_bytes() const {
  uint64_t total = 0;
  for (const Partition& part : parts_) total += part.bytes;
  return total;
}

}  // namespace gradoop::epgm

#ifndef GRADOOP_EPGM_ADJACENCY_INDEX_H_
#define GRADOOP_EPGM_ADJACENCY_INDEX_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>
#include <vector>

#include "common/cancellation.h"
#include "dataflow/dataset.h"
#include "dataflow/partitioning_audit.h"
#include "dataflow/stage_charges.h"
#include "epgm/elements.h"

namespace gradoop::epgm {

// Compressed sparse row adjacency of one edge set in one direction, laid
// out the way a repartition join on the edge's key would stage it: the
// key is the source id (the target id when `reverse`), and partition i
// holds exactly the keys with std::hash<uint64_t>(key) % p == i. Per
// partition the index keeps the sorted distinct keys, an offset array and
// the (edge id, other endpoint) entries, in input order within each key
// (source partitions ascending, then each partition's record order — the
// order a hash exchange delivers them).
//
// A variable-length Expand hop exchanges its frontier by the same hash of
// the path end and then walks this index locally instead of shuffling and
// hashing the edge set again (query/operators.cc). The index is immutable
// once built, so concurrent queries may share it.
class AdjacencyIndex {
 public:
  // One adjacency entry: the edge and its endpoint opposite the key.
  struct Neighbor {
    uint64_t edge_id = 0;
    uint64_t other = 0;
  };

  // Builds the index of `edges` (read in place, members in list order),
  // sorting each partition on the context's pool. Charges nothing to the
  // cost model or the memory accountant.
  static AdjacencyIndex Build(const dataflow::DatasetList<Edge>& edges,
                              bool reverse);

  int num_partitions() const { return static_cast<int>(parts_.size()); }
  // True when keyed by target id: a walk goes against edge direction.
  bool reverse() const { return reverse_; }
  uint64_t num_edges() const { return num_edges_; }

  // The partition owning `key`'s adjacency; where a hash exchange on the
  // key delivers it.
  int OwnerOf(uint64_t key) const {
    return static_cast<int>(std::hash<uint64_t>{}(key) % parts_.size());
  }

  // `key`'s adjacency in `partition`, in input order; empty when the
  // partition holds no edge with that key.
  std::span<const Neighbor> Neighbors(int partition, uint64_t key) const;

  // Walks `records`, the frontier a hash exchange delivered to
  // `partition`: calls visit(record, Neighbors(partition, key(record)))
  // for each record in order, polling `cancel` once per record. With
  // GRADOOP_AUDIT_PARTITIONING set, every record's key is first checked
  // to be owned by `partition`; a misplaced one would silently lose its
  // matches, so the process aborts instead.
  template <typename Rec, typename KeyFn, typename Visit>
  void Walk(int partition, const std::vector<Rec>& records, KeyFn key,
            Visit visit, common::CancellationToken& cancel) const {
    if (dataflow::PartitioningAuditEnabled()) {
      AuditPlacement(partition, records, key);
    }
    for (const Rec& rec : records) {
      if (cancel.CheckCancelled()) break;
      visit(rec, Neighbors(partition, key(rec)));
    }
  }

  // What a repartition join on this key would charge for the edge side:
  // the exchange tallies, and per partition the build rows and their
  // serialized bytes. Computed once at build time.
  const dataflow::ExchangeTally& exchange() const { return exchange_; }
  uint64_t rows(int partition) const { return parts_[partition].rows; }
  uint64_t bytes(int partition) const { return parts_[partition].bytes; }
  uint64_t total_bytes() const;

 private:
  struct Partition {
    std::vector<uint64_t> keys;     // sorted, distinct
    std::vector<uint32_t> offsets;  // keys.size() + 1 entries
    std::vector<Neighbor> neighbors;
    uint64_t rows = 0;
    uint64_t bytes = 0;  // serialized size of the edges held here
  };

  template <typename Rec, typename KeyFn>
  void AuditPlacement(int partition, const std::vector<Rec>& records,
                      KeyFn key) const {
    uint64_t misplaced = 0;
    for (const Rec& rec : records) {
      if (OwnerOf(key(rec)) != partition) ++misplaced;
    }
    dataflow::PartitioningAuditStats::Instance().RecordCheck(records.size(),
                                                            misplaced);
    if (misplaced != 0) {
      std::fprintf(stderr,
                   "[gradoop] partitioning audit FAILED at adjacency walk: "
                   "%llu of %llu frontier records sit on a partition that "
                   "does not own their adjacency\n",
                   static_cast<unsigned long long>(misplaced),
                   static_cast<unsigned long long>(records.size()));
      std::abort();
    }
  }

  bool reverse_ = false;
  uint64_t num_edges_ = 0;
  std::vector<Partition> parts_;
  dataflow::ExchangeTally exchange_;
};

}  // namespace gradoop::epgm

#endif  // GRADOOP_EPGM_ADJACENCY_INDEX_H_

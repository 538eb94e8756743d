#ifndef GRADOOP_DATAFLOW_DATASET_H_
#define GRADOOP_DATAFLOW_DATASET_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataflow/execution_context.h"
#include "dataflow/partitioning_audit.h"
#include "dataflow/record_traits.h"
#include "dataflow/stage_charges.h"

namespace gradoop::dataflow {

// Physical join strategy, mirroring Flink's optimizer choice between
// repartitioning both inputs and broadcasting the build side.
enum class JoinStrategy {
  kRepartition,  // hash-partition both sides on the join key
  kBroadcast,    // replicate the (small) right side to every worker
};

// Compile-time claims handed to HashJoin by the partitioning analysis
// (query/exec/partitioning.h): a flagged side is provably already
// hash-partitioned on the join key, so its shuffle is adopted in place —
// zero bytes enter the exchange and zero network time is charged. The
// claims are trusted here; GRADOOP_AUDIT_PARTITIONING re-hashes every
// record at runtime.
struct JoinShuffleHints {
  bool left_prepartitioned = false;
  bool right_prepartitioned = false;
};

// The build state one worker's join kernel held (its hash table): priced
// by the spill model, and its entries charged to the memory accountant.
struct BuildSideStats {
  uint64_t state_bytes = 0;
  uint64_t state_records = 0;  // table entries
};

// A placement policy says how a record of a shuffled side reaches its
// worker. Dataset::EquiJoin and Dataset::Repartition copy the policy into
// every routing task, so any scratch it keeps is private to the task.
//   Route(rec, p, emit)    calls emit(target, piece) for each piece of
//                          `rec` bound for worker `target`, in order; a
//                          piece is `rec` itself or a new record (emit
//                          takes it by move).
//   ForEachRow(rec, p, fn) calls fn(target) with the worker each row of
//                          `rec` belongs to: the partitioning audit's check.
//   Rows(rec)              the number of rows `rec` holds.
// KeyPlacement moves each record whole to std::hash(key(rec)) % p; the
// batch engine splits its column batches row by row
// (query/batch_operators.cc).
template <typename KeyFn>
class KeyPlacement {
 public:
  explicit KeyPlacement(KeyFn key) : key_(std::move(key)) {}

  template <typename Rec, typename Emit>
  void Route(const Rec& rec, size_t p, Emit&& emit) const {
    emit(static_cast<int>(TargetOf(rec, p)), rec);
  }
  template <typename Rec, typename Fn>
  void ForEachRow(const Rec& rec, size_t p, Fn&& fn) const {
    fn(TargetOf(rec, p));
  }
  template <typename Rec>
  static uint64_t Rows(const Rec& /*rec*/) {
    return 1;
  }

 private:
  template <typename Rec>
  size_t TargetOf(const Rec& rec, size_t p) const {
    using K = std::decay_t<std::invoke_result_t<const KeyFn&, const Rec&>>;
    return std::hash<K>()(key_(rec)) % p;
  }

  KeyFn key_;
};

// Partition p of several datasets read in place, in list order: a range
// over their concatenation that copies no record. Holds pointers, so the
// appended partitions must outlive it and its iterators.
template <typename T>
class ChainedPartition {
 public:
  // Walks each part's records in order; enough for range-for.
  class Iterator {
   public:
    const T& operator*() const { return *cur_; }
    Iterator& operator++() {
      if (++cur_ == last_) Enter(part_ + 1);
      return *this;
    }
    // The end iterator is the only one with a null cursor: empty parts
    // are never appended, so a live cursor always points at a record.
    bool operator==(const Iterator& other) const { return cur_ == other.cur_; }

   private:
    friend class ChainedPartition;

    Iterator(const std::vector<T>* const* part,
             const std::vector<T>* const* parts_end)
        : parts_end_(parts_end) {
      Enter(part);
    }
    void Enter(const std::vector<T>* const* part) {
      part_ = part;
      if (part_ == parts_end_) {
        cur_ = last_ = nullptr;
      } else {
        cur_ = (*part_)->data();
        last_ = cur_ + (*part_)->size();
      }
    }

    const std::vector<T>* const* part_ = nullptr;
    const std::vector<T>* const* parts_end_ = nullptr;
    const T* cur_ = nullptr;
    const T* last_ = nullptr;
  };

  void Append(const std::vector<T>& part) {
    if (!part.empty()) parts_.push_back(&part);
    size_ += part.size();
  }
  size_t size() const { return size_; }
  Iterator begin() const {
    return Iterator(parts_.data(), parts_.data() + parts_.size());
  }
  Iterator end() const { return Iterator(nullptr, nullptr); }

 private:
  std::vector<const std::vector<T>*> parts_;  // non-empty parts only
  size_t size_ = 0;
};

// A distributed dataset: `num_workers` partitions, partition i owned by
// simulated worker i. Transformations execute eagerly on the host thread
// pool and charge the simulated cluster cost model of the shared
// ExecutionContext (compute = max over workers, shuffle = bytes over the
// simulated network, spills when per-worker state exceeds its memory
// budget).
//
// Dataset values are cheap shared handles; transformations return new
// datasets and never mutate their input. A record the cost model keeps
// in place is read in place on the host; records are copied only by
// Filter and Distinct (survivors), Union, Collect and the hash exchanges.
// docs/INTERNALS.md tabulates every operation.
template <typename T>
class Dataset {
 public:
  using Partitions = std::vector<std::vector<T>>;

  Dataset() = default;

  Dataset(ExecutionContextPtr ctx, std::shared_ptr<Partitions> partitions)
      : ctx_(std::move(ctx)), partitions_(std::move(partitions)) {
    assert(partitions_->size() ==
           static_cast<size_t>(ctx_->num_workers()));
  }

  // Distributes `data` over the workers round-robin (the balanced layout
  // a parallel source produces; contiguous chunks would concentrate
  // whole label blocks of a generated file on single workers). Charges
  // one read stage.
  static Dataset FromVector(ExecutionContextPtr ctx, std::vector<T> data) {
    const int p = ctx->num_workers();
    auto parts = std::make_shared<Partitions>(p);
    const size_t n = data.size();
    for (int i = 0; i < p; ++i) (*parts)[i].reserve(n / p + 1);
    for (size_t i = 0; i < n; ++i) {
      (*parts)[i % p].push_back(std::move(data[i]));
    }
    Dataset ds(std::move(ctx), std::move(parts));
    ChargeUniformNarrow(*ds.ctx_, "Source", ds.CountLocal(), ds.CountLocal());
    return ds;
  }

  // Creates an empty dataset with the context's partition count.
  static Dataset Empty(ExecutionContextPtr ctx) {
    auto parts = std::make_shared<Partitions>(ctx->num_workers());
    return Dataset(std::move(ctx), std::move(parts));
  }

  const ExecutionContextPtr& context() const { return ctx_; }
  int num_partitions() const { return static_cast<int>(partitions_->size()); }
  const std::vector<T>& partition(int i) const { return (*partitions_)[i]; }
  bool valid() const { return ctx_ != nullptr; }

  // Total number of records. Charges one aggregation stage (counting is a
  // job in Flink, and the paper's reported runtimes include the count).
  uint64_t Count() const {
    const uint64_t n = CountLocal();
    ChargeUniformNarrow(*ctx_, "Count", n, 0);
    return n;
  }

  // Gathers all records to the driver (test/sink use only). The gather
  // moves every remote partition over the network.
  std::vector<T> Collect() const {
    std::vector<T> out;
    std::vector<uint64_t> out_bytes(num_partitions(), 0);
    for (int i = 0; i < num_partitions(); ++i) {
      // cancellation: driver-side gather of an already-materialized result;
      // every producing kernel upstream polled, and sinks run post-query.
      for (const T& rec : (*partitions_)[i]) {
        if (i != 0) out_bytes[i] += RecordBytes(rec);
        out.push_back(rec);
      }
    }
    std::vector<uint64_t> in_bytes(num_partitions(), 0);
    for (int i = 1; i < num_partitions(); ++i) in_bytes[0] += out_bytes[i];
    StageCost cost;
    cost.label = "Collect";
    cost.network_sec = ShuffleSeconds(out_bytes, in_bytes, ctx_->config());
    cost.latency_sec = ctx_->config().stage_latency_sec;
    ctx_->tracker().AddStage(cost);
    uint64_t total = 0;
    for (uint64_t b : out_bytes) total += b;
    ctx_->tracker().AddNetworkBytes(total);
    return out;
  }

  // Element-wise transformation (narrow, no shuffle).
  template <typename F>
  auto Map(F fn, const char* label = "Map") const {
    using U = std::decay_t<std::invoke_result_t<F, const T&>>;
    auto out = std::make_shared<typename Dataset<U>::Partitions>(
        num_partitions());
    std::vector<uint64_t> in_counts(num_partitions(), 0);
    common::CancellationToken& cancel = ctx_->cancellation();
    RunPerPartition(label, [&](int p) {
      const auto& src = (*partitions_)[p];
      auto& dst = (*out)[p];
      dst.reserve(src.size());
      for (const T& rec : src) {
        if (cancel.CheckCancelled()) break;
        dst.push_back(fn(rec));
      }
      in_counts[p] = src.size();
    });
    ChargeNarrow(*ctx_, label, in_counts, in_counts);
    return Dataset<U>(ctx_, std::move(out));
  }

  // One-to-many transformation; `fn(record, &out)` may emit zero or more
  // records. This is the paper's FlatMap used to fuse
  // Select -> Project -> Transform into a single stage (§3.1).
  template <typename U, typename F>
  Dataset<U> FlatMap(F fn, const char* label = "FlatMap") const {
    auto out = std::make_shared<typename Dataset<U>::Partitions>(
        num_partitions());
    std::vector<uint64_t> in_counts(num_partitions(), 0);
    std::vector<uint64_t> out_counts(num_partitions(), 0);
    common::CancellationToken& cancel = ctx_->cancellation();
    RunPerPartition(label, [&](int p) {
      const auto& src = (*partitions_)[p];
      auto& dst = (*out)[p];
      for (const T& rec : src) {
        if (cancel.CheckCancelled()) break;
        fn(rec, &dst);
      }
      in_counts[p] = src.size();
      out_counts[p] = dst.size();
    });
    ChargeNarrow(*ctx_, label, in_counts, out_counts);
    return Dataset<U>(ctx_, std::move(out));
  }

  // Partition-wise transformation (narrow): `fn(partition_index, records,
  // &out)` sees one whole partition. Used when outputs need
  // partition-deterministic identifiers.
  template <typename U, typename F>
  Dataset<U> MapPartition(F fn, const char* label = "MapPartition") const {
    auto out = std::make_shared<typename Dataset<U>::Partitions>(
        num_partitions());
    std::vector<uint64_t> in_counts(num_partitions(), 0);
    std::vector<uint64_t> out_counts(num_partitions(), 0);
    RunPerPartition(label, [&](int p) {
      const auto& src = (*partitions_)[p];
      fn(p, src, &(*out)[p]);
      in_counts[p] = src.size();
      out_counts[p] = (*out)[p].size();
    });
    ChargeNarrow(*ctx_, label, in_counts, out_counts);
    return Dataset<U>(ctx_, std::move(out));
  }

  // Keeps records satisfying `pred` (narrow).
  template <typename P>
  Dataset<T> Filter(P pred, const char* label = "Filter") const {
    auto out = std::make_shared<Partitions>(num_partitions());
    std::vector<uint64_t> in_counts(num_partitions(), 0);
    std::vector<uint64_t> out_counts(num_partitions(), 0);
    common::CancellationToken& cancel = ctx_->cancellation();
    RunPerPartition(label, [&](int p) {
      const auto& src = (*partitions_)[p];
      auto& dst = (*out)[p];
      for (const T& rec : src) {
        if (cancel.CheckCancelled()) break;
        if (pred(rec)) dst.push_back(rec);
      }
      in_counts[p] = src.size();
      out_counts[p] = dst.size();
    });
    ChargeNarrow(*ctx_, label, in_counts, out_counts);
    return Dataset<T>(ctx_, std::move(out));
  }

  // Partition-wise concatenation (narrow; Flink's union is not a shuffle).
  // Unlike Flink's stream merge it copies every record of both inputs;
  // scans read several datasets in place through DatasetList instead.
  Dataset<T> Union(const Dataset<T>& other) const {
    assert(num_partitions() == other.num_partitions());
    auto out = std::make_shared<Partitions>(num_partitions());
    for (int p = 0; p < num_partitions(); ++p) {
      auto& dst = (*out)[p];
      dst = (*partitions_)[p];
      dst.insert(dst.end(), other.partition(p).begin(),
                 other.partition(p).end());
    }
    // Union is free in Flink (pure stream merge) — no stage charged.
    return Dataset<T>(ctx_, std::move(out));
  }

  // Routes every record by the placement policy `place` (see
  // KeyPlacement) through the exchange ShuffleInto describes.
  template <typename Place>
  Dataset<T> Repartition(const Place& place,
                         const char* label = "Repartition") const {
    auto out = std::make_shared<Partitions>();
    ShuffleInto(place, *partitions_, out.get(), label);
    return Dataset<T>(ctx_, std::move(out));
  }

  // Hash-partitions records so that equal keys land on the same worker.
  // `key(rec)` must return an unsigned integral or hashable key.
  template <typename KeyFn>
  Dataset<T> RepartitionByKey(KeyFn key,
                              const char* label = "Repartition") const {
    return Repartition(KeyPlacement<KeyFn>(std::move(key)), label);
  }

  // Removes records with duplicate keys (shuffle + per-partition dedup).
  template <typename KeyFn>
  Dataset<T> Distinct(KeyFn key, const char* label = "Distinct") const {
    Dataset<T> shuffled = RepartitionByKey(key, label);
    const uint64_t staged_bytes = ChargeTransient(shuffled);
    using K = std::decay_t<std::invoke_result_t<KeyFn, const T&>>;
    auto out = std::make_shared<Partitions>(num_partitions());
    std::vector<uint64_t> in_counts(num_partitions(), 0);
    std::vector<uint64_t> out_counts(num_partitions(), 0);
    common::CancellationToken& cancel = ctx_->cancellation();
    RunPerPartition("DistinctLocal", [&](int p) {
      const auto& src = shuffled.partition(p);
      auto& dst = (*out)[p];
      std::unordered_map<K, bool> seen;
      seen.reserve(src.size());
      for (const T& rec : src) {
        if (cancel.CheckCancelled()) break;
        if (seen.emplace(key(rec), true).second) dst.push_back(rec);
      }
      in_counts[p] = src.size();
      out_counts[p] = dst.size();
    });
    ChargeNarrow(*ctx_, "DistinctLocal", in_counts, out_counts);
    ctx_->accountant().Release(staged_bytes);
    return Dataset<T>(ctx_, std::move(out));
  }

  // Groups by key and folds each group with `reducer(acc, rec)`; the
  // accumulator is initialized from `init(rec)` on the group's first
  // record. Returns (key, accumulator) pairs.
  template <typename KeyFn, typename Init, typename Reducer>
  auto ReduceByKey(KeyFn key, Init init, Reducer reducer,
                   const char* label = "ReduceByKey") const {
    using K = std::decay_t<std::invoke_result_t<KeyFn, const T&>>;
    using A = std::decay_t<std::invoke_result_t<Init, const T&>>;
    Dataset<T> shuffled = RepartitionByKey(key, label);
    const uint64_t staged_bytes = ChargeTransient(shuffled);
    using OutT = std::pair<K, A>;
    auto out =
        std::make_shared<typename Dataset<OutT>::Partitions>(num_partitions());
    std::vector<uint64_t> in_counts(num_partitions(), 0);
    std::vector<uint64_t> out_counts(num_partitions(), 0);
    common::CancellationToken& cancel = ctx_->cancellation();
    RunPerPartition("ReduceLocal", [&](int p) {
      const auto& src = shuffled.partition(p);
      std::unordered_map<K, A> groups;
      for (const T& rec : src) {
        if (cancel.CheckCancelled()) break;
        auto it = groups.find(key(rec));
        if (it == groups.end()) {
          groups.emplace(key(rec), init(rec));
        } else {
          it->second = reducer(std::move(it->second), rec);
        }
      }
      auto& dst = (*out)[p];
      dst.reserve(groups.size());
      for (auto& [k, acc] : groups) dst.emplace_back(k, std::move(acc));
      in_counts[p] = src.size();
      out_counts[p] = dst.size();
    });
    ChargeNarrow(*ctx_, "ReduceLocal", in_counts, out_counts);
    ctx_->accountant().Release(staged_bytes);
    return Dataset<OutT>(ctx_, std::move(out));
  }

  // Equi-join with `right`; `joiner(l, r, &out)` may emit zero or more
  // records, which implements Flink's FlatJoin — the paper uses it so that
  // morphism-violating join results are dropped inside the join (§3.1).
  //
  // kRepartition hash-partitions both sides on the key; kBroadcast
  // replicates the right side to all workers (right should be small). The
  // right side is always the build side of the per-worker hash table.
  template <typename Out, typename U, typename KeyL, typename KeyR,
            typename Joiner>
  Dataset<Out> HashJoin(const Dataset<U>& right, KeyL key_left, KeyR key_right,
                        Joiner joiner,
                        JoinStrategy strategy = JoinStrategy::kRepartition,
                        const char* label = "Join",
                        JoinShuffleHints hints = {}) const {
    using K = std::decay_t<std::invoke_result_t<KeyL, const T&>>;
    static_assert(
        std::is_same_v<K, std::decay_t<std::invoke_result_t<KeyR, const U&>>>,
        "join key types must match");
    common::CancellationToken& cancel = ctx_->cancellation();
    return EquiJoin<Out>(
        right, KeyPlacement<KeyL>(key_left), KeyPlacement<KeyR>(key_right),
        [&](const std::vector<T>& probe, const ChainedPartition<U>& build,
            std::vector<Out>* dst, BuildSideStats* stats) {
          std::unordered_multimap<K, const U*> table;
          table.reserve(build.size());
          for (const U& rec : build) {
            if (cancel.CheckCancelled()) break;
            table.emplace(key_right(rec), &rec);
            stats->state_bytes += RecordBytes(rec);
          }
          stats->state_records = build.size();
          for (const T& lrec : probe) {
            if (cancel.CheckCancelled()) break;
            auto [it, end] = table.equal_range(key_left(lrec));
            // cancellation: matches of one probe row; outer loop polls per
            // row.
            for (; it != end; ++it) joiner(lrec, *it->second, dst);
          }
        },
        strategy, label, hints);
  }

  // The equi-join driver behind HashJoin and the batch engine's joins
  // (query/batch_operators.cc). Phase 1 distributes both sides. Under
  // kRepartition a side the partitioning analysis claimed co-partitioned
  // (`hints`) is adopted in place, and any other side goes through the
  // exchange by its placement policy (`place_left`, `place_right`, see
  // KeyPlacement). Under kBroadcast the left side stays in place and
  // every worker's build side chains all right partitions, read in place.
  // Phase 2 runs `kernel(probe, build, &out, &stats)` once per worker on
  // the pool: `probe` is the worker's left partition, `build` its chain of
  // right partitions, and the kernel reports the build state it held
  // through `stats`. The kernel runs concurrently and must not mutate
  // shared state.
  template <typename Out, typename U, typename PlaceL, typename PlaceR,
            typename Kernel>
  Dataset<Out> EquiJoin(const Dataset<U>& right, const PlaceL& place_left,
                        const PlaceR& place_right, Kernel kernel,
                        JoinStrategy strategy, const char* label,
                        JoinShuffleHints hints) const {
    const int p = num_partitions();
    assert(p == right.num_partitions());
    auto out = std::make_shared<typename Dataset<Out>::Partitions>(p);

    // Phase 1: each worker's probe side is one partition and its build
    // side a chain of partitions; a side that does not move (adopted, or
    // the broadcast probe side) is read in place, and the broadcast build
    // side chains every right partition instead of copying them p times.
    Partitions left_shuffled;
    typename Dataset<U>::Partitions right_shuffled;
    const Partitions* left_parts = partitions_.get();
    const typename Dataset<U>::Partitions* right_parts =
        right.partitions_.get();
    std::vector<ChainedPartition<U>> build(p);
    if (strategy == JoinStrategy::kRepartition) {
      if (hints.left_prepartitioned) {
        AdoptPrepartitioned(place_left, *left_parts, label);
      } else {
        ShuffleInto(place_left, *left_parts, &left_shuffled, label);
        left_parts = &left_shuffled;
      }
      if (hints.right_prepartitioned) {
        AdoptPrepartitioned(place_right, *right_parts, label);
      } else {
        ShuffleInto(place_right, *right_parts, &right_shuffled, label);
        right_parts = &right_shuffled;
      }
      for (int i = 0; i < p; ++i) build[i].Append((*right_parts)[i]);
    } else {
      for (int w = 0; w < p; ++w) {
        for (int i = 0; i < p; ++i) build[w].Append((*right_parts)[i]);
      }
      ChargeBroadcast(*right_parts, label);
    }

    // Memory accounting (driver thread; see memory_accountant.h): the
    // staged join sides exist from here until this call returns — on a
    // cluster each worker holds its own copy of the broadcast side, so it
    // is charged p times even though the host reads it in place. Charges
    // model the stage's state in the same currency as the static
    // analysis — serialized record bytes plus a fixed per-table-entry
    // overhead — rather than tracing host allocations.
    MemoryAccountant& accountant = ctx_->accountant();
    uint64_t staged_bytes = 0;
    if (accountant.enabled()) {
      // cancellation: accounting byte walk over staged inputs; only runs
      // with memory accounting on, and the join kernels poll.
      for (const auto& part : *left_parts) {
        for (const T& rec : part) staged_bytes += RecordBytes(rec);
      }
      for (const ChainedPartition<U>& chain : build) {
        for (const U& rec : chain) staged_bytes += RecordBytes(rec);
      }
      accountant.Charge(staged_bytes);
    }

    // Phase 2: per-worker build + probe.
    BuildProbeTally tally(p);
    const std::string build_probe_label = std::string(label) + "/BuildProbe";
    RunPerPartition(build_probe_label.c_str(), [&](int part) {
      const std::vector<T>& probe = (*left_parts)[part];
      std::vector<Out>& dst = (*out)[part];
      BuildSideStats stats;
      kernel(probe, build[part], &dst, &stats);
      tally.work[part] = probe.size() + build[part].size();
      tally.out_counts[part] = dst.size();
      tally.state_bytes[part] = stats.state_bytes;
      tally.state_records[part] = stats.state_records;
    });
    ChargeBuildProbe(*ctx_, build_probe_label, tally, staged_bytes);
    return Dataset<Out>(ctx_, std::move(out));
  }

 private:
  template <typename>
  friend class Dataset;

  uint64_t CountLocal() const {
    uint64_t n = 0;
    // cancellation: O(partitions) size walk, no per-record work.
    for (const auto& part : *partitions_) n += part.size();
    return n;
  }

  // Charges the serialized bytes of a shuffled intermediate to the memory
  // accountant and returns them so the caller can Release on completion.
  // Returns 0 (and reads nothing) when accounting is off.
  template <typename U>
  uint64_t ChargeTransient(const Dataset<U>& staged) const {
    MemoryAccountant& accountant = ctx_->accountant();
    if (!accountant.enabled()) return 0;
    uint64_t bytes = 0;
    for (int i = 0; i < staged.num_partitions(); ++i) {
      // cancellation: accounting byte walk; the consuming kernel polls.
      for (const U& rec : staged.partition(i)) bytes += RecordBytes(rec);
    }
    accountant.Charge(bytes);
    return bytes;
  }

  // Runs fn(p) for each partition index on the host pool. The label only
  // feeds the telemetry task hook; with telemetry disabled no hook is
  // installed and the label is never read.
  void RunPerPartition(const char* label,
                       const std::function<void(int)>& fn) const {
    ctx_->pool().RunAndWait(num_partitions(), fn, label);
  }


  // The two-phase exchange: routes `src` into `dst` by the placement
  // policy `place`, both phases on the pool. Phase 1 runs one task per
  // source partition i with its own copy of `place`: every record of
  // source i, in order, is routed, and each piece it emits is tallied into
  // a task-local ExchangeTally and appended to the task's bucket for its
  // target. Phase 2 runs one task per target: it moves the buckets into
  // (*dst)[target] in source order — every partition ends up with the
  // content and order the serial loop over sources produced — and frees
  // each bucket as it goes. The task tallies are summed on the driver and
  // charged once: network time for the pieces that change workers. The
  // tasks are untraced; the stage span covers both phases.
  template <typename Place, typename Rec>
  void ShuffleInto(const Place& place, const std::vector<std::vector<Rec>>& src,
                   std::vector<std::vector<Rec>>* dst,
                   const char* label) const {
    const bool traced = ctx_->telemetry().enabled();
    const double span_begin_us =
        traced ? ctx_->telemetry().tracer().NowMicros() : 0.0;
    const int p = num_partitions();
    common::CancellationToken& cancel = ctx_->cancellation();
    std::vector<std::vector<std::vector<Rec>>> buckets(p);  // [source][target]
    std::vector<ExchangeTally> tallies(p);
    ctx_->pool().RunAndWait(
        p,
        [&](int i) {
          Place local = place;
          std::vector<std::vector<Rec>> out(p);
          ExchangeTally tally(p);
          const auto emit = [&](int target, auto&& rec) {
            assert(target >= 0 && target < p);
            // Only the cost model distinguishes local from remote
            // delivery; the shuffle.bytes counter (Flink's numBytesOut)
            // covers every record entering the exchange, local channels
            // included — that is the volume an elided shuffle avoids
            // serializing. Skip the size computation entirely for
            // untraced local records.
            const uint64_t b = (traced || target != i) ? RecordBytes(rec) : 0;
            if (traced) tally.exchanged += b;
            if (target != i) {
              tally.out_bytes[i] += b;
              tally.in_bytes[target] += b;
              tally.moved += b;
            }
            out[target].push_back(std::forward<decltype(rec)>(rec));
          };
          for (const Rec& rec : src[i]) {
            if (cancel.CheckCancelled()) break;
            local.Route(rec, static_cast<size_t>(p), emit);
          }
          tally.in_counts[i] = src[i].size();
          buckets[i] = std::move(out);
          tallies[i] = std::move(tally);
        });
    dst->assign(p, {});
    ctx_->pool().RunAndWait(
        p,
        [&](int target) {
          size_t n = 0;
          for (int i = 0; i < p; ++i) n += buckets[i][target].size();
          std::vector<Rec>& part = (*dst)[target];
          part.reserve(n);
          for (int i = 0; i < p; ++i) {
            std::vector<Rec>& bucket = buckets[i][target];
            part.insert(part.end(), std::make_move_iterator(bucket.begin()),
                        std::make_move_iterator(bucket.end()));
            std::vector<Rec>().swap(bucket);
          }
        });
    ExchangeTally tally(p);
    for (const ExchangeTally& source : tallies) tally.Add(source);
    ChargeExchange(*ctx_, label, tally, span_begin_us);
  }

  // Adopts `src` as the already-partitioned join-side layout, read in
  // place: the partitioning analysis proved every row sits where `place`
  // routes it, so no exchange runs, no stage is charged and no network
  // bytes accrue. Counters record what was saved; with
  // GRADOOP_AUDIT_PARTITIONING set, every row is re-placed and the
  // process hard-fails on the first one the proof misplaced.
  template <typename Place, typename Rec>
  void AdoptPrepartitioned(const Place& place,
                           const std::vector<std::vector<Rec>>& src,
                           const char* label) const {
    if (PartitioningAuditEnabled()) {
      uint64_t checked = 0;
      const uint64_t misplaced = CountMisplacedRecords(src, place, &checked);
      PartitioningAuditStats::Instance().RecordCheck(checked, misplaced);
      if (misplaced != 0) {
        std::fprintf(stderr,
                     "[gradoop] partitioning audit FAILED at %s: %llu of "
                     "%llu records of an elided shuffle sit in the wrong "
                     "partition — the partitioning analysis is unsound\n",
                     label, static_cast<unsigned long long>(misplaced),
                     static_cast<unsigned long long>(checked));
        std::abort();
      }
    }
    if (ctx_->telemetry().enabled()) {
      uint64_t bytes = 0, records = 0;
      // cancellation: telemetry byte walk over an adopted (zero-copy)
      // shuffle; the join kernel consuming the adopted layout polls.
      for (const auto& part : src) {
        for (const Rec& rec : part) {
          records += place.Rows(rec);
          bytes += RecordBytes(rec);
        }
      }
      telemetry::Telemetry& tel = ctx_->telemetry();
      tel.metrics().AddCounter("shuffle.elided.count", 1);
      tel.metrics().AddCounter("shuffle.elided.bytes", bytes);
      const double now_us = tel.tracer().NowMicros();
      tel.tracer().AddSpan(std::string(label) + "/ShuffleElided",
                           telemetry::kCategoryStage, now_us, now_us,
                           /*worker=*/-1,
                           {{"bytes_saved", static_cast<double>(bytes)},
                            {"records", static_cast<double>(records)}});
    }
  }

  // Charges the broadcast of `parts` to every worker as the stage
  // `label + "/Broadcast"`: worker w sends its partition to the (p-1)
  // others and receives everyone else's.
  template <typename Rec>
  void ChargeBroadcast(const std::vector<std::vector<Rec>>& parts,
                       const char* label) const {
    const int p = num_partitions();
    const bool traced = ctx_->telemetry().enabled();
    const double span_begin_us =
        traced ? ctx_->telemetry().tracer().NowMicros() : 0.0;
    std::vector<uint64_t> own(p, 0), out_bytes(p, 0), in_bytes(p, 0);
    uint64_t total_bytes = 0;
    uint64_t records = 0;
    for (int i = 0; i < p; ++i) {
      // cancellation: cost-model byte walk over the staged build side;
      // the join kernels poll once per record.
      for (const Rec& rec : parts[i]) own[i] += RecordBytes(rec);
      out_bytes[i] = own[i] * (p - 1);
      total_bytes += own[i];
      records += parts[i].size();
    }
    for (int i = 0; i < p; ++i) in_bytes[i] = total_bytes - own[i];
    StageCost bc;
    bc.label = std::string(label) + "/Broadcast";
    bc.network_sec = ShuffleSeconds(out_bytes, in_bytes, ctx_->config());
    bc.latency_sec = ctx_->config().stage_latency_sec;
    ctx_->tracker().AddStage(bc);
    uint64_t moved = 0;
    for (uint64_t b : out_bytes) moved += b;
    ctx_->tracker().AddNetworkBytes(moved);
    // Every build-side record enters the broadcast exchange once, just
    // like a record entering a repartition shuffle (ShuffleInto counts
    // its inputs the same way).
    ctx_->tracker().AddRecords(records);
    if (traced) {
      telemetry::Telemetry& tel = ctx_->telemetry();
      tel.tracer().AddSpan(bc.label, telemetry::kCategoryStage, span_begin_us,
                           tel.tracer().NowMicros(),
                           /*worker=*/-1,
                           {{"bytes", static_cast<double>(moved)}});
      tel.metrics().AddCounter("shuffle.count", 1);
      // A broadcast never exchanges locally: every byte entering it is
      // sent to the (p-1) other workers, so both counters equal moved.
      tel.metrics().AddCounter("shuffle.bytes", moved);
      tel.metrics().AddCounter("shuffle.bytes.remote", moved);
    }
  }

  ExecutionContextPtr ctx_;
  std::shared_ptr<Partitions> partitions_;
};

// Several co-partitioned datasets of one record type read as one input,
// in place: the per-label datasets of a label alternation
// (epgm::IndexedLogicalGraph). Partition p is the chain of every member's
// partition p, in list order — the layout a Union of the members would
// hold, without copying a record into it.
template <typename T>
class DatasetList {
 public:
  DatasetList(ExecutionContextPtr ctx, std::vector<Dataset<T>> members)
      : ctx_(std::move(ctx)), members_(std::move(members)) {
    for ([[maybe_unused]] const Dataset<T>& m : members_) {
      assert(m.num_partitions() == ctx_->num_workers());
    }
  }
  // A one-member list.
  DatasetList(const Dataset<T>& single)  // NOLINT(runtime/explicit)
      : DatasetList(single.context(), {single}) {}

  const ExecutionContextPtr& context() const { return ctx_; }
  int num_partitions() const { return ctx_->num_workers(); }

  ChainedPartition<T> partition(int p) const {
    ChainedPartition<T> chain;
    for (const Dataset<T>& m : members_) chain.Append(m.partition(p));
    return chain;
  }

  // The multi-input narrow stage: partition p's task calls `fn(p,
  // partition(p), &out)`. Charged exactly like Dataset::MapPartition over
  // the members' Union (records in = the chain's length).
  template <typename U, typename F>
  Dataset<U> MapPartition(F fn, const char* label = "MapPartition") const {
    const int n = num_partitions();
    auto out = std::make_shared<typename Dataset<U>::Partitions>(n);
    std::vector<uint64_t> in_counts(n, 0);
    std::vector<uint64_t> out_counts(n, 0);
    ctx_->pool().RunAndWait(
        n,
        [&](int p) {
          const ChainedPartition<T> src = partition(p);
          fn(p, src, &(*out)[p]);
          in_counts[p] = src.size();
          out_counts[p] = (*out)[p].size();
        },
        label);
    ChargeNarrow(*ctx_, label, in_counts, out_counts);
    return Dataset<U>(ctx_, std::move(out));
  }

 private:
  ExecutionContextPtr ctx_;
  std::vector<Dataset<T>> members_;
};

}  // namespace gradoop::dataflow

#endif  // GRADOOP_DATAFLOW_DATASET_H_

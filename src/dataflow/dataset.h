#ifndef GRADOOP_DATAFLOW_DATASET_H_
#define GRADOOP_DATAFLOW_DATASET_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
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
// claims are trusted here; VerifyCompiledPlan re-derives them statically
// and GRADOOP_AUDIT_PARTITIONING re-hashes every record at runtime.
struct JoinShuffleHints {
  bool left_prepartitioned = false;
  bool right_prepartitioned = false;
};

// Per-partition state a ZipPartitions callback built transiently (its
// hash table, for a join): priced by the spill model and charged to the
// memory accountant exactly like HashJoin's build side.
struct ZipPartitionStats {
  uint64_t state_bytes = 0;
  uint64_t state_records = 0;
};

// A distributed dataset: `num_workers` partitions, partition i owned by
// simulated worker i. Transformations execute eagerly on the host thread
// pool and charge the simulated cluster cost model of the shared
// ExecutionContext (compute = max over workers, shuffle = bytes over the
// simulated network, spills when per-worker state exceeds its memory
// budget).
//
// Dataset values are cheap shared handles; transformations return new
// datasets and never mutate their input.
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
    ds.ChargeNarrowStage("Source", ds.CountLocal(), ds.CountLocal());
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
    ChargeNarrowStage("Count", n, 0);
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
    ChargePerPartition(label, in_counts, in_counts);
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
    ChargePerPartition(label, in_counts, out_counts);
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
    ChargePerPartition(label, in_counts, out_counts);
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
    ChargePerPartition(label, in_counts, out_counts);
    return Dataset<T>(ctx_, std::move(out));
  }

  // Partition-wise concatenation (narrow; Flink's union is not a shuffle).
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

  // Hash-partitions records so that equal keys land on the same worker.
  // `key(rec)` must return an unsigned integral or hashable key.
  template <typename KeyFn>
  Dataset<T> RepartitionByKey(KeyFn key,
                              const char* label = "Repartition") const {
    auto out = std::make_shared<Partitions>(num_partitions());
    ShuffleInto(key, *partitions_, out.get(), label);
    return Dataset<T>(ctx_, std::move(out));
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
    ChargePerPartition("DistinctLocal", in_counts, out_counts);
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
    ChargePerPartition("ReduceLocal", in_counts, out_counts);
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

    const int p = num_partitions();
    auto out = std::make_shared<typename Dataset<Out>::Partitions>(p);

    // Phase 1: distribute both inputs.
    typename Dataset<T>::Partitions left_parts;
    typename Dataset<U>::Partitions right_parts;
    if (strategy == JoinStrategy::kRepartition) {
      if (hints.left_prepartitioned) {
        AdoptPrepartitioned(key_left, *partitions_, &left_parts, label);
      } else {
        left_parts.resize(p);
        ShuffleInto(key_left, *partitions_, &left_parts, label);
      }
      if (hints.right_prepartitioned) {
        AdoptPrepartitioned(key_right, *right.partitions_, &right_parts,
                            label);
      } else {
        right_parts.resize(p);
        ShuffleIntoOther(key_right, right, &right_parts, label);
      }
    } else {
      left_parts = *partitions_;  // stays in place
      const bool traced = ctx_->telemetry().enabled();
      const double span_begin_us =
          traced ? ctx_->telemetry().tracer().NowMicros() : 0.0;
      // Broadcast: every worker receives the full right side.
      std::vector<U> all_right;
      for (int i = 0; i < p; ++i) {
        all_right.insert(all_right.end(), right.partition(i).begin(),
                         right.partition(i).end());
      }
      right_parts.assign(p, all_right);
      // Network: worker w sends its right-partition to the (p-1) others
      // and receives everyone else's.
      std::vector<uint64_t> out_bytes(p, 0), in_bytes(p, 0);
      uint64_t total_bytes = 0;
      for (int i = 0; i < p; ++i) {
        uint64_t b = 0;
        // cancellation: cost-model byte walk over the staged build side;
        // the build/probe loops below poll once per record.
        for (const U& rec : right.partition(i)) b += RecordBytes(rec);
        out_bytes[i] = b * (p - 1);
        total_bytes += b;
      }
      for (int i = 0; i < p; ++i) {
        uint64_t own = 0;
        // cancellation: cost-model byte walk (see above).
        for (const U& rec : right.partition(i)) own += RecordBytes(rec);
        in_bytes[i] = total_bytes - own;
      }
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
      // its inputs the same way) — without this the per-operator record
      // accounting was asymmetric between the two join strategies.
      ctx_->tracker().AddRecords(static_cast<uint64_t>(all_right.size()));
      if (traced) {
        telemetry::Telemetry& tel = ctx_->telemetry();
        tel.tracer().AddSpan(bc.label, telemetry::kCategoryStage,
                             span_begin_us, tel.tracer().NowMicros(),
                             /*worker=*/-1,
                             {{"bytes", static_cast<double>(moved)}});
        tel.metrics().AddCounter("shuffle.count", 1);
        // A broadcast never exchanges locally: every byte entering it is
        // sent to the (p-1) other workers, so both counters equal moved.
        tel.metrics().AddCounter("shuffle.bytes", moved);
        tel.metrics().AddCounter("shuffle.bytes.remote", moved);
      }
    }

    // Memory accounting (driver thread; see memory_accountant.h): the
    // staged join-side copies exist from here until this call returns.
    // Charges model the stage's state in the same currency as the static
    // analysis — serialized record bytes plus a fixed per-table-entry
    // overhead — rather than tracing host allocations.
    MemoryAccountant& accountant = ctx_->accountant();
    uint64_t staged_bytes = 0;
    if (accountant.enabled()) {
      // cancellation: accounting byte walk over staged inputs; only runs
      // with memory accounting on, and the join loops below poll.
      for (const auto& part : left_parts) {
        for (const T& rec : part) staged_bytes += RecordBytes(rec);
      }
      for (const auto& part : right_parts) {
        for (const U& rec : part) staged_bytes += RecordBytes(rec);
      }
      accountant.Charge(staged_bytes);
    }

    // Phase 2: per-worker build + probe.
    BuildProbeTally tally(p);
    const std::string build_probe_label = std::string(label) + "/BuildProbe";
    common::CancellationToken& cancel = ctx_->cancellation();
    RunPerPartition(build_probe_label.c_str(), [&](int part) {
      const auto& lsrc = left_parts[part];
      const auto& rsrc = right_parts[part];
      std::unordered_multimap<K, const U*> table;
      table.reserve(rsrc.size());
      uint64_t bytes = 0;
      for (const U& rec : rsrc) {
        if (cancel.CheckCancelled()) break;
        table.emplace(key_right(rec), &rec);
        bytes += RecordBytes(rec);
      }
      auto& dst = (*out)[part];
      for (const T& lrec : lsrc) {
        if (cancel.CheckCancelled()) break;
        auto [it, end] = table.equal_range(key_left(lrec));
        // cancellation: matches of one probe row; outer loop polls per row.
        for (; it != end; ++it) joiner(lrec, *it->second, &dst);
      }
      tally.work[part] = lsrc.size() + rsrc.size();
      tally.out_counts[part] = dst.size();
      tally.state_bytes[part] = bytes;
      tally.state_records[part] = rsrc.size();
    });
    ChargeBuildProbe(*ctx_, build_probe_label, tally, staged_bytes);
    return Dataset<Out>(ctx_, std::move(out));
  }

  // Key-directed exchange where the caller splits each record into
  // per-target fragments: `splitter(record, source_partition, &frags)`
  // appends (target, fragment) pairs. The columnar batch engine scatters
  // through this — the fragments are sub-batches holding only the
  // selected rows routed to each worker, so a filtered batch never
  // serializes its dead rows into the exchange. Accounting mirrors
  // ShuffleInto: every fragment enters the exchange, only fragments
  // landing on a different worker are billed as network traffic, and the
  // shuffle.* telemetry counters cover the fragment bytes.
  template <typename Splitter>
  Dataset<T> ScatterShuffle(Splitter splitter,
                            const char* label = "Scatter") const {
    const bool traced = ctx_->telemetry().enabled();
    const double span_begin_us =
        traced ? ctx_->telemetry().tracer().NowMicros() : 0.0;
    const int p = num_partitions();
    auto out = std::make_shared<Partitions>(p);
    ExchangeTally tally(p);
    std::vector<std::pair<int, T>> frags;
    common::CancellationToken& cancel = ctx_->cancellation();
    for (int i = 0; i < p; ++i) {
      tally.in_counts[i] = (*partitions_)[i].size();
      for (const T& rec : (*partitions_)[i]) {
        if (cancel.CheckCancelled()) break;
        frags.clear();
        splitter(rec, i, &frags);
        for (auto& [target, frag] : frags) {
          assert(target >= 0 && target < p);
          const uint64_t b = (traced || target != i) ? RecordBytes(frag) : 0;
          if (traced) tally.exchanged += b;
          if (target != i) {
            tally.out_bytes[i] += b;
            tally.in_bytes[target] += b;
            tally.moved += b;
          }
          (*out)[target].push_back(std::move(frag));
        }
      }
    }
    ChargeExchange(*ctx_, label, tally, span_begin_us);
    return Dataset<T>(ctx_, std::move(out));
  }

  // Every worker receives every record — the standalone counterpart of
  // the broadcast exchange HashJoin's kBroadcast strategy performs
  // inline, with identical network accounting and telemetry. The batch
  // join kernels broadcast whole column batches through this.
  Dataset<T> Replicate(const char* label = "Replicate") const {
    const int p = num_partitions();
    const bool traced = ctx_->telemetry().enabled();
    const double span_begin_us =
        traced ? ctx_->telemetry().tracer().NowMicros() : 0.0;
    std::vector<T> all;
    for (int i = 0; i < p; ++i) {
      all.insert(all.end(), (*partitions_)[i].begin(),
                 (*partitions_)[i].end());
    }
    auto out = std::make_shared<Partitions>();
    out->assign(p, all);
    // Network: worker w sends its partition to the (p-1) others and
    // receives everyone else's (the HashJoin broadcast formula).
    std::vector<uint64_t> out_bytes(p, 0), in_bytes(p, 0);
    uint64_t total_bytes = 0;
    for (int i = 0; i < p; ++i) {
      uint64_t b = 0;
      // cancellation: cost-model byte walk; the consuming kernel polls.
      for (const T& rec : (*partitions_)[i]) b += RecordBytes(rec);
      out_bytes[i] = b * (p - 1);
      total_bytes += b;
    }
    for (int i = 0; i < p; ++i) {
      uint64_t own = 0;
      // cancellation: cost-model byte walk (see above).
      for (const T& rec : (*partitions_)[i]) own += RecordBytes(rec);
      in_bytes[i] = total_bytes - own;
    }
    StageCost bc;
    bc.label = std::string(label) + "/Broadcast";
    bc.network_sec = ShuffleSeconds(out_bytes, in_bytes, ctx_->config());
    bc.latency_sec = ctx_->config().stage_latency_sec;
    ctx_->tracker().AddStage(bc);
    uint64_t moved = 0;
    for (uint64_t b : out_bytes) moved += b;
    ctx_->tracker().AddNetworkBytes(moved);
    ctx_->tracker().AddRecords(static_cast<uint64_t>(all.size()));
    if (traced) {
      telemetry::Telemetry& tel = ctx_->telemetry();
      tel.tracer().AddSpan(bc.label, telemetry::kCategoryStage,
                           span_begin_us, tel.tracer().NowMicros(),
                           /*worker=*/-1,
                           {{"bytes", static_cast<double>(moved)}});
      tel.metrics().AddCounter("shuffle.count", 1);
      tel.metrics().AddCounter("shuffle.bytes", moved);
      tel.metrics().AddCounter("shuffle.bytes.remote", moved);
    }
    return Dataset<T>(ctx_, std::move(out));
  }

  // Narrow binary per-partition transform over co-partitioned datasets —
  // the build+probe phase of a join whose exchange already ran.
  // `fn(partition, left_records, right_records, &out, &stats)` reports
  // the transient state it built (hash-table bytes and entries) through
  // `stats`, so the stage is priced exactly like HashJoin's BuildProbe:
  // both staged inputs charge the accountant for the stage's duration,
  // the spill model sees the per-partition state, and the table entries
  // charge kHashTableEntryBytes each before everything releases.
  template <typename Out, typename U, typename F>
  Dataset<Out> ZipPartitions(const Dataset<U>& right, F fn,
                             const char* label = "Zip") const {
    const int p = num_partitions();
    assert(p == right.num_partitions());
    auto out = std::make_shared<typename Dataset<Out>::Partitions>(p);
    MemoryAccountant& accountant = ctx_->accountant();
    uint64_t staged_bytes = 0;
    if (accountant.enabled()) {
      for (int i = 0; i < p; ++i) {
        // cancellation: accounting byte walk; the zip callback's kernel
        // loops poll once per record.
        for (const T& rec : (*partitions_)[i]) {
          staged_bytes += RecordBytes(rec);
        }
        // cancellation: accounting byte walk (see above).
        for (const U& rec : right.partition(i)) {
          staged_bytes += RecordBytes(rec);
        }
      }
      accountant.Charge(staged_bytes);
    }
    BuildProbeTally tally(p);
    const std::string stage_label = std::string(label) + "/BuildProbe";
    RunPerPartition(stage_label.c_str(), [&](int part) {
      ZipPartitionStats st;
      fn(part, (*partitions_)[part], right.partition(part), &(*out)[part],
         &st);
      tally.work[part] =
          (*partitions_)[part].size() + right.partition(part).size();
      tally.out_counts[part] = (*out)[part].size();
      tally.state_bytes[part] = st.state_bytes;
      tally.state_records[part] = st.state_records;
    });
    ChargeBuildProbe(*ctx_, stage_label, tally, staged_bytes);
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

  // Charges a narrow stage where every worker processed `per worker` share
  // of `in_records` uniformly (used when per-partition counts are equal or
  // unknown).
  void ChargeNarrowStage(const char* label, uint64_t in_records,
                         uint64_t out_records) const {
    const auto& cfg = ctx_->config();
    StageCost cost;
    cost.label = label;
    const double per_worker =
        static_cast<double>(in_records + out_records) / ctx_->num_workers();
    cost.compute_sec = per_worker * cfg.seconds_per_record;
    cost.latency_sec = cfg.stage_latency_sec;
    ctx_->tracker().AddStage(cost);
    ctx_->tracker().AddRecords(in_records);
    if (ctx_->telemetry().enabled()) {
      auto& metrics = ctx_->telemetry().metrics();
      metrics.AddCounter("stage.count", 1);
      metrics.AddCounter("stage.records_in", in_records);
    }
  }

  // Charges a narrow stage with known per-partition record counts
  // (simulated time = slowest worker, capturing skew).
  void ChargePerPartition(const char* label,
                          const std::vector<uint64_t>& in_counts,
                          const std::vector<uint64_t>& out_counts) const {
    const auto& cfg = ctx_->config();
    StageCost cost;
    cost.label = label;
    double worst = 0.0;
    uint64_t total = 0;
    for (size_t i = 0; i < in_counts.size(); ++i) {
      const uint64_t n = in_counts[i] + out_counts[i];
      worst = std::max(worst, static_cast<double>(n) * cfg.seconds_per_record);
      total += in_counts[i];
    }
    cost.compute_sec = worst;
    cost.latency_sec = cfg.stage_latency_sec;
    ctx_->tracker().AddStage(cost);
    ctx_->tracker().AddRecords(total);
    if (ctx_->telemetry().enabled()) {
      auto& metrics = ctx_->telemetry().metrics();
      metrics.AddCounter("stage.count", 1);
      metrics.AddCounter("stage.records_in", total);
      // Per-partition input sizes: the skew distribution behind ragged
      // same-stage task spans.
      for (const uint64_t n : in_counts) {
        metrics.Observe("stage.partition_records",
                        static_cast<double>(n));
      }
    }
  }

  // Hash-shuffles `src` partitions into `dst` partitions by key, charging
  // network time for records that change workers.
  template <typename KeyFn, typename Rec>
  void ShuffleInto(KeyFn key, const std::vector<std::vector<Rec>>& src,
                   std::vector<std::vector<Rec>>* dst,
                   const char* label) const {
    const bool traced = ctx_->telemetry().enabled();
    const double span_begin_us =
        traced ? ctx_->telemetry().tracer().NowMicros() : 0.0;
    const int p = num_partitions();
    dst->assign(p, {});
    ExchangeTally tally(p);
    using K = std::decay_t<std::invoke_result_t<KeyFn, const Rec&>>;
    std::hash<K> hasher;
    common::CancellationToken& cancel = ctx_->cancellation();
    for (int i = 0; i < p; ++i) {
      tally.in_counts[i] = src[i].size();
      for (const Rec& rec : src[i]) {
        if (cancel.CheckCancelled()) break;
        const int target = static_cast<int>(hasher(key(rec)) % p);
        // Only the cost model distinguishes local from remote delivery;
        // the shuffle.bytes counter (Flink's numBytesOut) covers every
        // record entering the exchange, local channels included — that is
        // the volume an elided shuffle avoids serializing. Skip the size
        // computation entirely for untraced local records.
        const uint64_t b =
            (traced || target != i) ? RecordBytes(rec) : 0;
        if (traced) tally.exchanged += b;
        if (target != i) {
          tally.out_bytes[i] += b;
          tally.in_bytes[target] += b;
          tally.moved += b;
        }
        (*dst)[target].push_back(rec);
      }
    }
    ChargeExchange(*ctx_, label, tally, span_begin_us);
  }

  // Adopts `src` as the already-partitioned join-side layout: the
  // partitioning analysis proved every record sits at hash(key) % p, so
  // no exchange runs, no stage is charged and no network bytes accrue.
  // Counters record what was saved; with GRADOOP_AUDIT_PARTITIONING set,
  // every record is re-hashed and the process hard-fails on the first
  // one the proof misplaced.
  template <typename KeyFn, typename Rec>
  void AdoptPrepartitioned(KeyFn key,
                           const std::vector<std::vector<Rec>>& src,
                           std::vector<std::vector<Rec>>* dst,
                           const char* label) const {
    if (PartitioningAuditEnabled()) {
      uint64_t checked = 0;
      const uint64_t misplaced = CountMisplacedRecords(src, key, &checked);
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
    *dst = src;
    if (ctx_->telemetry().enabled()) {
      uint64_t bytes = 0, records = 0;
      // cancellation: telemetry byte walk over an adopted (zero-copy)
      // shuffle; the join kernel consuming the adopted layout polls.
      for (const auto& part : src) {
        records += part.size();
        for (const Rec& rec : part) bytes += RecordBytes(rec);
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

  // Same as ShuffleInto but reads from another dataset's partitions.
  template <typename KeyFn, typename U>
  void ShuffleIntoOther(KeyFn key, const Dataset<U>& other,
                        std::vector<std::vector<U>>* dst,
                        const char* label) const {
    ShuffleInto(key, *other.partitions_, dst, label);
  }

  ExecutionContextPtr ctx_;
  std::shared_ptr<Partitions> partitions_;
};

}  // namespace gradoop::dataflow

#endif  // GRADOOP_DATAFLOW_DATASET_H_

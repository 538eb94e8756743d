#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"
#include "dataflow/dataset.h"
#include "dataflow/stage_charges.h"
#include "dataflow/thread_pool.h"

namespace gradoop::dataflow {
namespace {

ExecutionContextPtr Ctx(int workers = 4) {
  ClusterConfig cfg;
  cfg.num_workers = workers;
  return MakeContext(cfg);
}

std::vector<int> Sorted(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::vector<int> hits(100, 0);
  pool.RunAndWait(100, [&](int i) { hits[i] = i + 1; });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hits[i], i + 1);
}

TEST(ThreadPoolTest, SequentialBatches) {
  ThreadPool pool(2);
  int total = 0;
  for (int round = 0; round < 10; ++round) {
    std::vector<int> parts(8, 0);
    pool.RunAndWait(8, [&](int i) { parts[i] = 1; });
    total += std::accumulate(parts.begin(), parts.end(), 0);
  }
  EXPECT_EQ(total, 80);
}

TEST(ThreadPoolTest, StressManyBatchesUnderContention) {
  // Hammers the queue / pending / batch_done handshake: many short wide
  // batches so workers constantly race on batch boundaries. Run under
  // TSan by ci/check.sh.
  ThreadPool pool(8);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.RunAndWait(64, [&](int i) {
      sum.fetch_add(static_cast<uint64_t>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 200ull * (63 * 64 / 2));
}

TEST(ThreadPoolTest, StressShutdownWhileEnqueueing) {
  // Shutdown racing active submitters: several host threads pump
  // batches through a shared pool right up to the moment it is
  // destroyed, so the destructor's shutdown/notify handshake races the
  // workers' final wait/drain cycles and the submitters' last
  // batch_done wakeups. The TSan tree of ci/check.sh (with
  // detect_deadlocks=1) is the build this exists for; the lock-rank
  // checker also sees every acquisition in Debug trees.
  constexpr int kIterations = 50;
  constexpr int kSubmitters = 4;
  std::atomic<uint64_t> executed{0};  // ordering: relaxed tally, summed
                                      // only after every thread joined
  for (int iter = 0; iter < kIterations; ++iter) {
    std::atomic<bool> stop{false};  // ordering: relaxed on/off flag;
                                    // joins below give the sync
    const uint64_t before = executed.load(std::memory_order_relaxed);
    auto pool = std::make_unique<ThreadPool>(4);
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          pool->RunAndWait(8, [&](int) {
            executed.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
    // Let at least one batch land before pulling the plug — on a loaded
    // machine the submitters may not have been scheduled yet, and an
    // all-idle iteration exercises nothing (and breaks the executed > 0
    // assertion below).
    while (executed.load(std::memory_order_relaxed) == before) {
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : submitters) t.join();
    // Destroy immediately after the last RunAndWait returns: workers
    // may still be between their final queue check and the shutdown
    // wakeup, which is exactly the window under test.
    pool.reset();
  }
  EXPECT_EQ(executed.load() % 8, 0u);
  EXPECT_GT(executed.load(), 0u);
}

TEST(ThreadPoolTest, EveryIndexRunsOnceOnAPoolThreadOrTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> threads;
  for (const int n : {1, 2, 3, 4, 8, 64, 1000}) {
    std::vector<std::atomic<int>> runs(n);
    std::vector<std::thread::id> ran_on(n);
    pool.RunAndWait(n, [&](int i) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
      ran_on[i] = std::this_thread::get_id();
    });
    for (int i = 0; i < n; ++i) EXPECT_EQ(runs[i].load(), 1) << n << "/" << i;
    // The caller claims the first index when it publishes the batch.
    EXPECT_EQ(ran_on[0], caller) << n;
    threads.insert(ran_on.begin(), ran_on.end());
    EXPECT_EQ(pool.pending_tasks(), 0) << n;
  }
  // The caller plus at most the pool's own threads ran anything.
  EXPECT_LE(threads.size(), static_cast<size_t>(pool.num_threads()) + 1);
  EXPECT_EQ(threads.count(caller), 1u);
}

TEST(ThreadPoolTest, HookFiresOncePerIndexWithTheBatchLabel) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hooked(256);
  std::atomic<int> wrong_label{0};  // ordering: relaxed tallies, read
  std::atomic<int> on_caller{0};    // after RunAndWait has joined them
  pool.set_task_hook([&](const ThreadPool::TaskTiming& timing) {
    if (std::strcmp(timing.label, "Parity") != 0) {
      wrong_label.fetch_add(1, std::memory_order_relaxed);
    }
    EXPECT_LE(timing.begin, timing.end);
    hooked[timing.task_index].fetch_add(1, std::memory_order_relaxed);
    if (std::this_thread::get_id() == caller) {
      on_caller.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const int n : {1, 2, 5, 256}) {
    for (auto& h : hooked) h.store(0);
    on_caller.store(0);
    pool.RunAndWait(n, [](int) {}, "Parity");
    for (int i = 0; i < 256; ++i) {
      EXPECT_EQ(hooked[i].load(), i < n ? 1 : 0) << n << "/" << i;
    }
    EXPECT_GE(on_caller.load(), 1) << n;
    EXPECT_EQ(pool.pending_tasks(), 0) << n;
  }
  // An unlabelled batch stays untraced.
  for (auto& h : hooked) h.store(0);
  pool.RunAndWait(8, [](int) {});
  for (int i = 0; i < 8; ++i) EXPECT_EQ(hooked[i].load(), 0);
  EXPECT_EQ(wrong_label.load(), 0);
  pool.set_task_hook(nullptr);
}

// The IndexedLogicalGraph::Adjacency shape: RunAndWait under an
// exec-rank lock. Tasks the caller runs execute with that lock held, so
// their cost, metric and span charges (and the task hook's) must all
// rank below it; a Debug tree's rank checker aborts otherwise.
TEST(ThreadPoolTest, CallerRunsTasksUnderAnExecRankLock) {
  auto ctx = Ctx(4);
  ctx->EnableTelemetry();
  common::Mutex exec(common::LockRank::kExec, "test.exec");
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};  // ordering: relaxed tally, read after
                                  // RunAndWait has joined the tasks
  {
    common::MutexLock hold(exec);
    ctx->pool().RunAndWait(
        64,
        [&](int i) {
          StageCost cost;
          cost.label = "exec-held";
          cost.compute_sec = 0.001;
          ctx->tracker().AddStage(cost);
          ctx->telemetry().metrics().AddCounter("exec.held", 1);
          ctx->telemetry().tracer().AddSpan(
              "exec-held", telemetry::kCategoryStage, 0.0, 1.0, i);
          if (std::this_thread::get_id() == caller) {
            on_caller.fetch_add(1, std::memory_order_relaxed);
          }
        },
        "ExecHeld");
    EXPECT_EQ(common::RankedLocksHeld(),
              common::LockRankCheckingEnabled() ? 1u : 0u);
  }
  EXPECT_GE(on_caller.load(), 1);
  EXPECT_EQ(ctx->tracker().NumStages(), 64);
  EXPECT_EQ(ctx->telemetry().metrics().Snapshot().counters.at("exec.held"),
            64u);
  EXPECT_EQ(ctx->telemetry().metrics().Snapshot().counters.at("task.count"),
            64u);
  EXPECT_EQ(ctx->pool().pending_tasks(), 0);
  EXPECT_EQ(common::RankedLocksHeld(), 0u);
}

TEST(DatasetTest, WideShufflePipelineUnderContention) {
  // Shuffle + join + reduce with many partitions: per-partition output
  // slots are written concurrently by the pool, so TSan covers the
  // dataset transformation paths end to end.
  ClusterConfig cfg;
  cfg.num_workers = 16;
  auto ctx = MakeContext(cfg);
  std::vector<int> data(2000);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<int>::FromVector(ctx, std::move(data));
  auto key = [](const int& v) { return static_cast<uint64_t>(v % 31); };
  auto joined = ds.HashJoin<int>(
      ds, key, key,
      [](const int& l, const int& r, std::vector<int>* out) {
        out->push_back(l + r);
      });
  // 2000 = 31*64 + 16: sixteen key classes of 65 values, fifteen of 64.
  EXPECT_EQ(joined.Count(), 16ull * 65 * 65 + 15ull * 64 * 64);
  auto reduced = ds.ReduceByKey(
      key, [](const int&) { return uint64_t{1}; },
      [](uint64_t acc, const int&) { return acc + 1; });
  uint64_t total = 0;
  for (const auto& [k, n] : reduced.Collect()) total += n;
  EXPECT_EQ(total, 2000u);
  EXPECT_EQ(ds.Distinct(key).Count(), 31u);
}

TEST(DatasetTest, FromVectorPartitionsEverything) {
  auto ctx = Ctx(4);
  std::vector<int> data(103);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<int>::FromVector(ctx, data);
  EXPECT_EQ(ds.num_partitions(), 4);
  EXPECT_EQ(Sorted(ds.Collect()), data);
}

TEST(DatasetTest, MapTransformsEachRecord) {
  auto ctx = Ctx(3);
  auto ds = Dataset<int>::FromVector(ctx, {1, 2, 3, 4, 5});
  auto doubled = ds.Map([](const int& x) { return x * 2; });
  EXPECT_EQ(Sorted(doubled.Collect()), (std::vector<int>{2, 4, 6, 8, 10}));
}

TEST(DatasetTest, FlatMapEmitsZeroOrMore) {
  auto ctx = Ctx(2);
  auto ds = Dataset<int>::FromVector(ctx, {1, 2, 3});
  auto out = ds.FlatMap<int>([](const int& x, std::vector<int>* dst) {
    for (int i = 0; i < x; ++i) dst->push_back(x);
  });
  EXPECT_EQ(Sorted(out.Collect()), (std::vector<int>{1, 2, 2, 3, 3, 3}));
}

TEST(DatasetTest, FilterKeepsMatching) {
  auto ctx = Ctx(2);
  auto ds = Dataset<int>::FromVector(ctx, {1, 2, 3, 4, 5, 6});
  auto even = ds.Filter([](const int& x) { return x % 2 == 0; });
  EXPECT_EQ(Sorted(even.Collect()), (std::vector<int>{2, 4, 6}));
}

TEST(DatasetTest, UnionConcatenates) {
  auto ctx = Ctx(2);
  auto a = Dataset<int>::FromVector(ctx, {1, 2});
  auto b = Dataset<int>::FromVector(ctx, {3, 4});
  EXPECT_EQ(Sorted(a.Union(b).Collect()), (std::vector<int>{1, 2, 3, 4}));
}

TEST(DatasetTest, MapPartitionSeesWholePartition) {
  auto ctx = Ctx(4);
  auto ds = Dataset<int>::FromVector(ctx, {1, 2, 3, 4, 5, 6, 7, 8});
  auto sums = ds.MapPartition<int>(
      [](int part, const std::vector<int>& in, std::vector<int>* out) {
        (void)part;
        out->push_back(std::accumulate(in.begin(), in.end(), 0));
      });
  const auto collected = sums.Collect();
  EXPECT_EQ(std::accumulate(collected.begin(), collected.end(), 0), 36);
}

TEST(DatasetTest, RepartitionGroupsKeysOnOneWorker) {
  auto ctx = Ctx(4);
  std::vector<int> data(64);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<int>::FromVector(ctx, data)
                .RepartitionByKey([](const int& x) {
                  return static_cast<uint64_t>(x % 8);
                });
  // All records with the same key must live in the same partition.
  for (int key = 0; key < 8; ++key) {
    int partitions_holding = 0;
    for (int p = 0; p < ds.num_partitions(); ++p) {
      const bool has = std::any_of(
          ds.partition(p).begin(), ds.partition(p).end(),
          [key](int x) { return x % 8 == key; });
      if (has) ++partitions_holding;
    }
    EXPECT_EQ(partitions_holding, 1) << "key " << key;
  }
  EXPECT_EQ(Sorted(ds.Collect()), data);
}

TEST(DatasetTest, DistinctRemovesDuplicateKeys) {
  auto ctx = Ctx(3);
  auto ds = Dataset<int>::FromVector(ctx, {1, 2, 2, 3, 3, 3, 4});
  auto d = ds.Distinct([](const int& x) { return static_cast<uint64_t>(x); });
  EXPECT_EQ(Sorted(d.Collect()), (std::vector<int>{1, 2, 3, 4}));
}

TEST(DatasetTest, ReduceByKeyAggregates) {
  auto ctx = Ctx(4);
  std::vector<int> data;
  for (int i = 0; i < 30; ++i) data.push_back(i);
  auto ds = Dataset<int>::FromVector(ctx, data);
  auto reduced = ds.ReduceByKey(
      [](const int& x) { return static_cast<uint64_t>(x % 3); },
      [](const int& x) { return x; },
      [](int acc, const int& x) { return acc + x; });
  auto rows = reduced.Collect();
  ASSERT_EQ(rows.size(), 3u);
  int total = 0;
  for (const auto& [k, sum] : rows) total += sum;
  EXPECT_EQ(total, 435);  // sum 0..29
}

TEST(DatasetTest, HashJoinMatchesKeys) {
  auto ctx = Ctx(4);
  auto left = Dataset<int>::FromVector(ctx, {1, 2, 3, 4});
  auto right = Dataset<int>::FromVector(ctx, {2, 4, 6});
  auto joined = left.HashJoin<int>(
      right, [](const int& x) { return static_cast<uint64_t>(x); },
      [](const int& x) { return static_cast<uint64_t>(x); },
      [](const int& l, const int& r, std::vector<int>* out) {
        out->push_back(l + r);
      });
  EXPECT_EQ(Sorted(joined.Collect()), (std::vector<int>{4, 8}));
}

TEST(DatasetTest, HashJoinDuplicateKeysProduceCrossProduct) {
  auto ctx = Ctx(2);
  auto left = Dataset<int>::FromVector(ctx, {10, 10});
  auto right = Dataset<int>::FromVector(ctx, {10, 10, 10});
  auto joined = left.HashJoin<int>(
      right, [](const int&) { return uint64_t{1}; },
      [](const int&) { return uint64_t{1}; },
      [](const int&, const int&, std::vector<int>* out) {
        out->push_back(1);
      });
  EXPECT_EQ(joined.Collect().size(), 6u);
}

TEST(DatasetTest, BroadcastJoinMatchesRepartitionJoin) {
  auto ctx = Ctx(4);
  std::vector<int> ldata(100), rdata = {5, 10, 15};
  std::iota(ldata.begin(), ldata.end(), 0);
  auto left = Dataset<int>::FromVector(ctx, ldata);
  auto right = Dataset<int>::FromVector(ctx, rdata);
  auto key = [](const int& x) { return static_cast<uint64_t>(x); };
  auto joiner = [](const int& l, const int&, std::vector<int>* out) {
    out->push_back(l);
  };
  auto a = left.HashJoin<int>(right, key, key, joiner,
                              JoinStrategy::kRepartition);
  auto b = left.HashJoin<int>(right, key, key, joiner,
                              JoinStrategy::kBroadcast);
  EXPECT_EQ(Sorted(a.Collect()), Sorted(b.Collect()));
  EXPECT_EQ(Sorted(a.Collect()), (std::vector<int>{5, 10, 15}));
}

TEST(DatasetTest, FlatJoinCanDropPairs) {
  auto ctx = Ctx(2);
  auto left = Dataset<int>::FromVector(ctx, {1, 2, 3});
  auto right = Dataset<int>::FromVector(ctx, {1, 2, 3});
  auto joined = left.HashJoin<int>(
      right, [](const int& x) { return static_cast<uint64_t>(x); },
      [](const int& x) { return static_cast<uint64_t>(x); },
      [](const int& l, const int&, std::vector<int>* out) {
        if (l % 2 == 1) out->push_back(l);  // FlatJoin: emit conditionally
      });
  EXPECT_EQ(Sorted(joined.Collect()), (std::vector<int>{1, 3}));
}

TEST(DatasetTest, CountMatchesCollect) {
  auto ctx = Ctx(4);
  std::vector<int> data(57);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<int>::FromVector(ctx, data);
  EXPECT_EQ(ds.Count(), 57u);
}

TEST(DatasetTest, SingleWorkerStillWorks) {
  auto ctx = Ctx(1);
  auto ds = Dataset<int>::FromVector(ctx, {3, 1, 2});
  EXPECT_EQ(Sorted(ds.Collect()), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ds.Count(), 3u);
}

// A record that counts its copies; moves are free. Lets a test assert
// that an operation reads records in place instead of copying them.
struct Counted {
  // relaxed: pool tasks bump it concurrently; the test reads it only
  // after RunAndWait has joined them.
  static inline std::atomic<uint64_t> copies{0};

  int key = 0;
  int value = 0;

  Counted(int k, int v) : key(k), value(v) {}
  Counted(const Counted& other) : key(other.key), value(other.value) {
    copies.fetch_add(1, std::memory_order_relaxed);
  }
  Counted& operator=(const Counted& other) {
    key = other.key;
    value = other.value;
    copies.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  Counted(Counted&&) noexcept = default;
  Counted& operator=(Counted&&) noexcept = default;

  size_t SerializedSize() const { return 2 * sizeof(int); }
};

uint64_t CountedKey(const Counted& c) { return static_cast<uint64_t>(c.key); }

// Builds records in place, so FromVector's move is the only transfer.
Dataset<Counted> CountedDataset(ExecutionContextPtr ctx, int first, int n) {
  std::vector<Counted> data;
  data.reserve(n);
  for (int i = 0; i < n; ++i) data.emplace_back(first + i, 10 * (first + i));
  return Dataset<Counted>::FromVector(std::move(ctx), std::move(data));
}

// Every partition's (key, value) pairs, read without copying a record.
std::vector<std::vector<std::pair<int, int>>> Contents(
    const Dataset<Counted>& ds) {
  std::vector<std::vector<std::pair<int, int>>> out(ds.num_partitions());
  for (int p = 0; p < ds.num_partitions(); ++p) {
    for (const Counted& c : ds.partition(p)) {
      out[p].emplace_back(c.key, c.value);
    }
  }
  return out;
}

TEST(ZeroCopyTest, DatasetListStageReadsEveryInputInPlace) {
  auto ctx = Ctx(4);
  const auto a = CountedDataset(ctx, 0, 37);
  const auto b = CountedDataset(ctx, 100, 5);
  const auto c = CountedDataset(ctx, 200, 0);
  const auto before_a = Contents(a);
  const auto before_b = Contents(b);
  auto values = [](int, const ChainedPartition<Counted>& src,
                   std::vector<int>* out) {
    for (const Counted& rec : src) out->push_back(rec.value);
  };
  ctx->tracker().Reset();
  Counted::copies = 0;
  const Dataset<int> listed =
      DatasetList<Counted>(ctx, {a, c, b}).MapPartition<int>(values, "Scan");
  EXPECT_EQ(Counted::copies.load(), 0u);
  const double list_sec = ctx->tracker().SimulatedSeconds();
  const uint64_t list_records = ctx->tracker().TotalRecords();

  // Same rows, same partition order and same charges as a MapPartition
  // over the members' Union (which copies every record).
  const auto unioned = a.Union(c).Union(b);
  ctx->tracker().Reset();
  const Dataset<int> expected = unioned.MapPartition<int>(
      [](int, const std::vector<Counted>& src, std::vector<int>* out) {
        for (const Counted& rec : src) out->push_back(rec.value);
      },
      "Scan");
  EXPECT_EQ(ctx->tracker().SimulatedSeconds(), list_sec);
  EXPECT_EQ(ctx->tracker().TotalRecords(), list_records);
  for (int p = 0; p < ctx->num_workers(); ++p) {
    EXPECT_EQ(listed.partition(p), expected.partition(p)) << "partition " << p;
  }
  EXPECT_EQ(Contents(a), before_a);
  EXPECT_EQ(Contents(b), before_b);
}

TEST(ZeroCopyTest, BroadcastJoinReadsBothSidesInPlace) {
  auto ctx = Ctx(4);
  const auto left = CountedDataset(ctx, 0, 50);
  const auto right = CountedDataset(ctx, 10, 7);
  const auto before_left = Contents(left);
  const auto before_right = Contents(right);
  auto joiner = [](const Counted& l, const Counted& r, std::vector<int>* out) {
    out->push_back(l.value + r.value);
  };
  Counted::copies = 0;
  const auto broadcast = left.HashJoin<int>(right, CountedKey, CountedKey,
                                            joiner, JoinStrategy::kBroadcast);
  EXPECT_EQ(Counted::copies.load(), 0u);
  const auto repartitioned = left.HashJoin<int>(
      right, CountedKey, CountedKey, joiner, JoinStrategy::kRepartition);
  EXPECT_EQ(Sorted(broadcast.Collect()), Sorted(repartitioned.Collect()));
  EXPECT_EQ(broadcast.Collect().size(), 7u);
  EXPECT_EQ(Contents(left), before_left);
  EXPECT_EQ(Contents(right), before_right);
}

// The batch joins run HashJoin's driver with their own kernel, which
// addresses build records in place (BuildProbeMerge). Under kBroadcast
// every worker's build side must be a chain over the right dataset's own
// records: the addresses each worker's kernel sees are the right
// partitions' records, in partition order, and nothing is copied.
TEST(ZeroCopyTest, BroadcastBuildSideIsOneChainOverTheRightRecords) {
  auto ctx = Ctx(4);
  const auto left = CountedDataset(ctx, 0, 50);
  const auto right = CountedDataset(ctx, 10, 7);
  std::vector<const Counted*> right_records;
  for (int p = 0; p < right.num_partitions(); ++p) {
    for (const Counted& rec : right.partition(p)) right_records.push_back(&rec);
  }
  Counted::copies = 0;
  const auto seen = left.EquiJoin<const Counted*>(
      right, KeyPlacement(CountedKey), KeyPlacement(CountedKey),
      [](const std::vector<Counted>&, const ChainedPartition<Counted>& build,
         std::vector<const Counted*>* out, BuildSideStats*) {
        for (const Counted& rec : build) out->push_back(&rec);
      },
      JoinStrategy::kBroadcast, "Join", {});
  EXPECT_EQ(Counted::copies.load(), 0u);
  for (int w = 0; w < seen.num_partitions(); ++w) {
    EXPECT_EQ(seen.partition(w), right_records) << "worker " << w;
  }
}

TEST(ZeroCopyTest, ElidedShuffleJoinAdoptsBothSidesInPlace) {
  auto ctx = Ctx(4);
  const auto left = CountedDataset(ctx, 0, 60).RepartitionByKey(CountedKey);
  const auto right = CountedDataset(ctx, 30, 60).RepartitionByKey(CountedKey);
  const auto before_left = Contents(left);
  const auto before_right = Contents(right);
  auto joiner = [](const Counted& l, const Counted& r, std::vector<int>* out) {
    out->push_back(l.value + r.value);
  };
  Counted::copies = 0;
  const auto adopted = left.HashJoin<int>(
      right, CountedKey, CountedKey, joiner, JoinStrategy::kRepartition,
      "Join", JoinShuffleHints{.left_prepartitioned = true,
                               .right_prepartitioned = true});
  EXPECT_EQ(Counted::copies.load(), 0u);
  const auto shuffled = left.HashJoin<int>(right, CountedKey, CountedKey,
                                           joiner, JoinStrategy::kRepartition);
  EXPECT_EQ(Sorted(adopted.Collect()), Sorted(shuffled.Collect()));
  EXPECT_EQ(adopted.Collect().size(), 30u);
  EXPECT_EQ(Contents(left), before_left);
  EXPECT_EQ(Contents(right), before_right);
}

TEST(ZeroCopyTest, ShuffleCopiesEachRecordOnce) {
  auto ctx = Ctx(4);
  const auto ds = CountedDataset(ctx, 0, 100);
  Counted::copies = 0;
  const auto shuffled = ds.RepartitionByKey(CountedKey);
  EXPECT_EQ(Counted::copies.load(), 100u);
  uint64_t n = 0;
  for (int p = 0; p < shuffled.num_partitions(); ++p) {
    n += shuffled.partition(p).size();
  }
  EXPECT_EQ(n, 100u);
}

// --- exchange parity --------------------------------------------------------
//
// The parallel exchange against a serial reference computed here: the
// loop over sources in order that routes every record to hash(key) % p,
// with its tallies charged through the same ChargeExchange. Partitions
// must match in content and order, and the charges bit for bit.

// A record with a variable wire size and a unique payload, so byte
// tallies differ per record and any reordering shows.
struct Row {
  uint64_t key = 0;
  std::string payload;
  bool operator==(const Row&) const = default;
  size_t SerializedSize() const { return sizeof(key) + payload.size(); }
};

uint64_t RowKey(const Row& r) { return r.key; }

enum class KeyShape { kSpread, kOneTarget, kEmptySources };

Dataset<Row>::Partitions ParityInput(int p, KeyShape shape, int salt) {
  Dataset<Row>::Partitions parts(p);
  for (int i = 0; i < p; ++i) {
    if (shape == KeyShape::kEmptySources && i % 2 == 0) continue;
    for (int j = 0; j < 20 + 7 * i; ++j) {
      const uint64_t key =
          shape == KeyShape::kOneTarget
              ? 42
              : static_cast<uint64_t>(i * 131 + j * 17 + salt) % 23;
      parts[i].push_back({key, std::to_string(salt) + ":" +
                                   std::to_string(i) + ":" +
                                   std::to_string(j)});
    }
  }
  return parts;
}

struct SerialExchange {
  Dataset<Row>::Partitions parts;
  ExchangeTally tally;
};

// Routes (source, target, record) triples in the order `visit` yields
// them, the way the serial exchange loop did.
template <typename Visit>
SerialExchange SerialRoute(int p, Visit visit) {
  SerialExchange ref{Dataset<Row>::Partitions(p), ExchangeTally(p)};
  visit([&](int source, int target, Row rec) {
    const uint64_t b = RecordBytes(rec);
    ref.tally.exchanged += b;
    if (target != source) {
      ref.tally.out_bytes[source] += b;
      ref.tally.in_bytes[target] += b;
      ref.tally.moved += b;
    }
    ref.parts[target].push_back(std::move(rec));
  });
  return ref;
}

SerialExchange SerialShuffle(const Dataset<Row>::Partitions& src) {
  const int p = static_cast<int>(src.size());
  SerialExchange ref = SerialRoute(p, [&](auto&& route) {
    for (int i = 0; i < p; ++i) {
      for (const Row& rec : src[i]) {
        route(i, static_cast<int>(std::hash<uint64_t>()(rec.key) % p), rec);
      }
    }
  });
  for (int i = 0; i < p; ++i) ref.tally.in_counts[i] = src[i].size();
  return ref;
}

Dataset<Row>::Partitions PartitionsOf(const Dataset<Row>& ds) {
  Dataset<Row>::Partitions out;
  for (int p = 0; p < ds.num_partitions(); ++p) out.push_back(ds.partition(p));
  return out;
}

struct Charges {
  double simulated_sec = 0.0;
  uint64_t network_bytes = 0;
  uint64_t records = 0;
  std::map<std::string, uint64_t> shuffle_counters;
  bool operator==(const Charges&) const = default;
};

Charges ChargesOf(ExecutionContext& ctx) {
  Charges c{ctx.tracker().SimulatedSeconds(), ctx.tracker().NetworkBytes(),
            ctx.tracker().TotalRecords(), {}};
  for (const auto& [name, value] : ctx.telemetry().metrics().Snapshot()
                                        .counters) {
    if (name.rfind("shuffle.", 0) == 0) c.shuffle_counters[name] = value;
  }
  return c;
}

// Runs `check(ctx, ref_ctx, input)` for every worker count, key shape
// and telemetry setting: ctx executes the real operation over `input`,
// ref_ctx receives the reference charges.
template <typename Check>
void ForEachParityCase(Check check) {
  for (const int p : {1, 2, 3, 4, 8}) {
    for (const KeyShape shape :
         {KeyShape::kSpread, KeyShape::kOneTarget, KeyShape::kEmptySources}) {
      for (const bool traced : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "p=" << p << " shape=" << static_cast<int>(shape)
                     << " traced=" << traced);
        auto ctx = Ctx(p);
        auto ref_ctx = Ctx(p);
        if (traced) {
          ctx->EnableTelemetry();
          ref_ctx->EnableTelemetry();
        }
        check(*ctx, *ref_ctx,
              Dataset<Row>(ctx, std::make_shared<Dataset<Row>::Partitions>(
                                    ParityInput(p, shape, 0))),
              shape);
      }
    }
  }
}

TEST(ExchangeParityTest, RepartitionByKeyMatchesTheSerialLoop) {
  ForEachParityCase([](ExecutionContext& ctx, ExecutionContext& ref_ctx,
                       const Dataset<Row>& ds, KeyShape) {
    const auto out = ds.RepartitionByKey(RowKey, "Parity");
    const SerialExchange ref = SerialShuffle(PartitionsOf(ds));
    ChargeExchange(ref_ctx, "Parity", ref.tally, 0.0);
    EXPECT_EQ(PartitionsOf(out), ref.parts);
    EXPECT_EQ(ChargesOf(ctx), ChargesOf(ref_ctx));
  });
}

TEST(ExchangeParityTest, DistinctMatchesTheSerialLoop) {
  ForEachParityCase([](ExecutionContext& ctx, ExecutionContext& ref_ctx,
                       const Dataset<Row>& ds, KeyShape) {
    const auto out = ds.Distinct(RowKey, "Parity");
    const SerialExchange ref = SerialShuffle(PartitionsOf(ds));
    ChargeExchange(ref_ctx, "Parity", ref.tally, 0.0);
    const int p = ds.num_partitions();
    Dataset<Row>::Partitions expected(p);
    std::vector<uint64_t> in_counts(p), out_counts(p);
    for (int t = 0; t < p; ++t) {
      std::set<uint64_t> seen;
      for (const Row& r : ref.parts[t]) {
        if (seen.insert(r.key).second) expected[t].push_back(r);
      }
      in_counts[t] = ref.parts[t].size();
      out_counts[t] = expected[t].size();
    }
    ChargeNarrow(ref_ctx, "DistinctLocal", in_counts, out_counts);
    EXPECT_EQ(PartitionsOf(out), expected);
    EXPECT_EQ(ChargesOf(ctx), ChargesOf(ref_ctx));
  });
}

TEST(ExchangeParityTest, RepartitionHashJoinMatchesTheSerialLoop) {
  ForEachParityCase([](ExecutionContext& ctx, ExecutionContext& ref_ctx,
                       const Dataset<Row>& left, KeyShape shape) {
    const int p = left.num_partitions();
    const Dataset<Row> right(
        left.context(), std::make_shared<Dataset<Row>::Partitions>(
                            ParityInput(p, shape, /*salt=*/5)));
    auto joiner = [](const Row& l, const Row& r, std::vector<Row>* out) {
      out->push_back({l.key, l.payload + "|" + r.payload});
    };
    const auto out = left.HashJoin<Row>(right, RowKey, RowKey, joiner,
                                        JoinStrategy::kRepartition, "Parity");
    const SerialExchange lref = SerialShuffle(PartitionsOf(left));
    const SerialExchange rref = SerialShuffle(PartitionsOf(right));
    ChargeExchange(ref_ctx, "Parity", lref.tally, 0.0);
    ChargeExchange(ref_ctx, "Parity", rref.tally, 0.0);
    // The build+probe kernel, serially: right side into the table in
    // partition order, left side probing it in partition order.
    Dataset<Row>::Partitions expected(p);
    BuildProbeTally tally(p);
    for (int t = 0; t < p; ++t) {
      std::unordered_multimap<uint64_t, const Row*> table;
      table.reserve(rref.parts[t].size());
      for (const Row& r : rref.parts[t]) {
        table.emplace(r.key, &r);
        tally.state_bytes[t] += RecordBytes(r);
      }
      for (const Row& l : lref.parts[t]) {
        auto [it, end] = table.equal_range(l.key);
        for (; it != end; ++it) joiner(l, *it->second, &expected[t]);
      }
      tally.work[t] = lref.parts[t].size() + rref.parts[t].size();
      tally.out_counts[t] = expected[t].size();
      tally.state_records[t] = rref.parts[t].size();
    }
    ChargeBuildProbe(ref_ctx, "Parity/BuildProbe", tally, 0);
    EXPECT_EQ(PartitionsOf(out), expected);
    EXPECT_EQ(ChargesOf(ctx), ChargesOf(ref_ctx));
  });
}

// A placement that splits records: every record goes to key % p, and
// keys divisible by 3 also send a second piece to (key / 3) % p. Counts
// its copies, and the copies that routed records of more than one source.
struct SplittingPlacement {
  // ordering: relaxed tallies, read after the exchange joined.
  std::atomic<int>* copies;
  std::atomic<int>* foreign_source;
  int source = -1;

  SplittingPlacement(std::atomic<int>* c, std::atomic<int>* f)
      : copies(c), foreign_source(f) {}
  SplittingPlacement(const SplittingPlacement& other)
      : copies(other.copies), foreign_source(other.foreign_source) {
    copies->fetch_add(1, std::memory_order_relaxed);
  }

  static void Split(const Row& r, size_t p,
                    std::vector<std::pair<int, Row>>* pieces) {
    pieces->emplace_back(static_cast<int>(r.key % p), r);
    if (r.key % 3 == 0) {
      pieces->emplace_back(static_cast<int>((r.key / 3) % p),
                           Row{r.key + 1000, r.payload + "'"});
    }
  }
  template <typename Emit>
  void Route(const Row& r, size_t p, Emit&& emit) {
    // ParityInput's payloads read "salt:source:index".
    const int from = std::stoi(r.payload.substr(r.payload.find(':') + 1));
    if (source != -1 && source != from) {
      foreign_source->fetch_add(1, std::memory_order_relaxed);
    }
    source = from;
    std::vector<std::pair<int, Row>> pieces;
    Split(r, p, &pieces);
    for (auto& [target, piece] : pieces) emit(target, std::move(piece));
  }
};

TEST(ExchangeParityTest, SplittingPlacementMatchesTheSerialLoop) {
  ForEachParityCase([](ExecutionContext& ctx, ExecutionContext& ref_ctx,
                       const Dataset<Row>& ds, KeyShape) {
    const int p = ds.num_partitions();
    // One copy of the placement per routing task, and each sees only its
    // own source.
    std::atomic<int> copies{0};          // ordering: relaxed tallies, read
    std::atomic<int> foreign_source{0};  // after the exchange joined
    const auto out = ds.Repartition(
        SplittingPlacement(&copies, &foreign_source), "Parity");
    const Dataset<Row>::Partitions src = PartitionsOf(ds);
    SerialExchange ref = SerialRoute(p, [&](auto&& route) {
      std::vector<std::pair<int, Row>> pieces;
      for (int i = 0; i < p; ++i) {
        for (const Row& rec : src[i]) {
          pieces.clear();
          SplittingPlacement::Split(rec, static_cast<size_t>(p), &pieces);
          for (auto& [target, piece] : pieces) {
            route(i, target, std::move(piece));
          }
        }
      }
    });
    for (int i = 0; i < p; ++i) ref.tally.in_counts[i] = src[i].size();
    ChargeExchange(ref_ctx, "Parity", ref.tally, 0.0);
    EXPECT_EQ(PartitionsOf(out), ref.parts);
    EXPECT_EQ(ChargesOf(ctx), ChargesOf(ref_ctx));
    EXPECT_EQ(copies.load(), p);
    EXPECT_EQ(foreign_source.load(), 0);
  });
}

// --- cost model ------------------------------------------------------------

TEST(CostModelTest, StagesAccumulate) {
  auto ctx = Ctx(4);
  auto ds = Dataset<int>::FromVector(ctx, std::vector<int>(1000, 1));
  const int before = ctx->tracker().NumStages();
  ds.Map([](const int& x) { return x; });
  EXPECT_EQ(ctx->tracker().NumStages(), before + 1);
  EXPECT_GT(ctx->tracker().SimulatedSeconds(), 0.0);
}

TEST(CostModelTest, ShuffleChargesNetworkBytes) {
  auto ctx = Ctx(4);
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<int>::FromVector(ctx, data);
  const uint64_t before = ctx->tracker().NetworkBytes();
  // Key chosen so records leave their round-robin home partition.
  ds.RepartitionByKey(
      [](const int& x) { return static_cast<uint64_t>(x / 4); });
  EXPECT_GT(ctx->tracker().NetworkBytes(), before);
}

TEST(CostModelTest, NarrowOpsChargeNoNetwork) {
  auto ctx = Ctx(4);
  auto ds = Dataset<int>::FromVector(ctx, std::vector<int>(100, 7));
  const uint64_t before = ctx->tracker().NetworkBytes();
  ds.Map([](const int& x) { return x + 1; })
      .Filter([](const int& x) { return x > 0; });
  EXPECT_EQ(ctx->tracker().NetworkBytes(), before);
}

TEST(CostModelTest, MoreWorkersReduceComputeTime) {
  // The same compute-heavy job must be simulated-faster on more workers.
  auto run = [](int workers) {
    ClusterConfig cfg;
    cfg.num_workers = workers;
    cfg.stage_latency_sec = 0.0;  // isolate compute scaling
    auto ctx = MakeContext(cfg);
    std::vector<int> data(100000);
    std::iota(data.begin(), data.end(), 0);
    auto ds = Dataset<int>::FromVector(ctx, data);
    ds.Map([](const int& x) { return x * 2; });
    return ctx->tracker().SimulatedSeconds();
  };
  const double t1 = run(1), t4 = run(4), t16 = run(16);
  EXPECT_GT(t1, 3.0 * t4 / 1.2);
  EXPECT_GT(t4, t16);
}

TEST(CostModelTest, StageLatencyCapsSpeedupOnTinyData) {
  auto run = [](int workers) {
    ClusterConfig cfg;
    cfg.num_workers = workers;
    auto ctx = MakeContext(cfg);
    auto ds = Dataset<int>::FromVector(ctx, {1, 2, 3});
    ds.Map([](const int& x) { return x; });
    return ctx->tracker().SimulatedSeconds();
  };
  // With ~no data the fixed latency dominates: no speedup at all.
  EXPECT_NEAR(run(1), run(16), 1e-3);
}

TEST(CostModelTest, SkewedJoinKeysPreventSpeedup) {
  // All records share one key: after repartitioning, a single worker
  // holds every record, so the join's build/probe time must not improve
  // with more workers (the paper's load-imbalance effect on Q5/Q6).
  auto run = [](int workers) {
    ClusterConfig cfg;
    cfg.num_workers = workers;
    cfg.stage_latency_sec = 0.0;
    auto ctx = MakeContext(cfg);
    std::vector<int> skewed(5000, 7);  // single hot key
    auto left = Dataset<int>::FromVector(ctx, skewed);
    auto right = Dataset<int>::FromVector(ctx, {7});
    left.HashJoin<int>(
        right, [](const int& x) { return static_cast<uint64_t>(x); },
        [](const int& x) { return static_cast<uint64_t>(x); },
        [](const int& l, const int&, std::vector<int>* out) {
          out->push_back(l);
        });
    double build_probe = 0;
    for (const auto& stage : ctx->tracker().Stages()) {
      if (stage.label.find("BuildProbe") != std::string::npos) {
        build_probe += stage.compute_sec;
      }
    }
    return build_probe;
  };
  // The hot partition processes all 5000 records regardless of workers.
  EXPECT_NEAR(run(4), run(16), run(4) * 0.05);
}

TEST(CostModelTest, SpillChargedWhenStateExceedsMemory) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.worker_memory_bytes = 1024;  // tiny budget to force spilling
  auto ctx = MakeContext(cfg);
  std::vector<int> data(4096);
  std::iota(data.begin(), data.end(), 0);
  auto left = Dataset<int>::FromVector(ctx, data);
  auto right = Dataset<int>::FromVector(ctx, data);
  left.HashJoin<int>(
      right, [](const int& x) { return static_cast<uint64_t>(x); },
      [](const int& x) { return static_cast<uint64_t>(x); },
      [](const int& l, const int&, std::vector<int>* out) {
        out->push_back(l);
      });
  EXPECT_GT(ctx->tracker().SpilledBytes(), 0u);
}

TEST(CostModelTest, MoreWorkersAvoidSpill) {
  auto spilled = [](int workers) {
    ClusterConfig cfg;
    cfg.num_workers = workers;
    cfg.worker_memory_bytes = 16 << 10;
    auto ctx = MakeContext(cfg);
    std::vector<int> data(8000);
    std::iota(data.begin(), data.end(), 0);
    auto left = Dataset<int>::FromVector(ctx, data);
    auto right = Dataset<int>::FromVector(ctx, data);
    left.HashJoin<int>(
        right, [](const int& x) { return static_cast<uint64_t>(x); },
        [](const int& x) { return static_cast<uint64_t>(x); },
        [](const int& l, const int&, std::vector<int>* out) {
          out->push_back(l);
        });
    return ctx->tracker().SpilledBytes();
  };
  EXPECT_GT(spilled(1), 0u);
  EXPECT_EQ(spilled(16), 0u);  // aggregate memory now fits the build side
}

TEST(CostModelTest, ShuffleSecondsUsesSlowestWorker) {
  ClusterConfig cfg;
  cfg.network_bytes_per_sec = 100.0;
  const double t =
      ShuffleSeconds({1000, 10, 10}, {10, 500, 10}, cfg);
  EXPECT_DOUBLE_EQ(t, 10.0);  // worker 0 sends 1000 bytes at 100 B/s
}

TEST(CostModelTest, SpillSecondsCountsExcessTwice) {
  ClusterConfig cfg;
  cfg.worker_memory_bytes = 100;
  cfg.disk_bytes_per_sec = 10.0;
  cfg.seconds_per_record = 0.0;  // isolate the disk component
  uint64_t spilled = 0;
  const double t = SpillSeconds({150, 80}, {15, 8}, cfg, &spilled);
  EXPECT_EQ(spilled, 50u);
  EXPECT_DOUBLE_EQ(t, 10.0);  // 50 excess * 2 passes / 10 B/s
}

TEST(CostModelTest, SpillChargesRecordSerialization) {
  ClusterConfig cfg;
  cfg.worker_memory_bytes = 100;
  cfg.disk_bytes_per_sec = 1e12;  // isolate the serialization component
  cfg.seconds_per_record = 0.01;
  uint64_t spilled = 0;
  // 200 bytes of state across 20 records; half the bytes spill, so 10
  // records pay serialize + deserialize: 10 * 2 * 0.01 = 0.2s.
  const double t = SpillSeconds({200}, {20}, cfg, &spilled);
  EXPECT_EQ(spilled, 100u);
  EXPECT_NEAR(t, 0.2, 1e-9);
}

}  // namespace
}  // namespace gradoop::dataflow

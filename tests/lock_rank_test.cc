// Lock-rank checker (common/lock_rank.h): the engine-wide lock order is
// telemetry < dataflow < exec < engine with strictly-downward
// acquisition, and a checked build must abort — with the held-lock
// stack printed — on the first inversion. The checker-core tests drive
// RankCheckAcquire/Release directly (compiled in every build, so the
// death test runs in the plain tier-1 tree too); the Mutex-level tests
// exercise the real hooks, which exist only when
// GRADOOP_LOCK_RANK_CHECKS is on (Debug / GRADOOP_FORCE_LOCK_RANK).

#include <gtest/gtest.h>

#include <thread>

#include "common/thread_annotations.h"
#include "dataflow/cost_model.h"
#include "dataflow/thread_pool.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/tracer.h"

namespace gradoop::common {
namespace {

TEST(LockRankTest, DownwardAcquisitionIsAllowed) {
  int engine_tag = 0, exec_tag = 0, dataflow_tag = 0, telemetry_tag = 0;
  RankCheckAcquire(LockRank::kEngine, "t.engine", &engine_tag);
  RankCheckAcquire(LockRank::kExec, "t.exec", &exec_tag);
  RankCheckAcquire(LockRank::kDataflow, "t.dataflow", &dataflow_tag);
  RankCheckAcquire(LockRank::kTelemetry, "t.telemetry", &telemetry_tag);
  EXPECT_EQ(RankedLocksHeld(), 4u);
  RankCheckRelease(LockRank::kTelemetry, &telemetry_tag);
  RankCheckRelease(LockRank::kDataflow, &dataflow_tag);
  RankCheckRelease(LockRank::kExec, &exec_tag);
  RankCheckRelease(LockRank::kEngine, &engine_tag);
  EXPECT_EQ(RankedLocksHeld(), 0u);
}

TEST(LockRankTest, ReacquireAfterFullReleaseIsAllowed) {
  int a = 0, b = 0;
  // telemetry → release → dataflow is legal: ranks constrain only locks
  // held simultaneously, not a thread's acquisition history.
  RankCheckAcquire(LockRank::kTelemetry, "t.first", &a);
  RankCheckRelease(LockRank::kTelemetry, &a);
  RankCheckAcquire(LockRank::kDataflow, "t.second", &b);
  RankCheckRelease(LockRank::kDataflow, &b);
  EXPECT_EQ(RankedLocksHeld(), 0u);
}

TEST(LockRankTest, OutOfOrderReleaseIsHandled) {
  int hi = 0, lo = 0;
  RankCheckAcquire(LockRank::kExec, "t.hi", &hi);
  RankCheckAcquire(LockRank::kDataflow, "t.lo", &lo);
  // Releasing the outer lock first must not confuse the stack: the
  // remaining inner lock still forbids re-acquiring at or above kDataflow.
  RankCheckRelease(LockRank::kExec, &hi);
  EXPECT_EQ(RankedLocksHeld(), 1u);
  RankCheckAcquire(LockRank::kTelemetry, "t.leaf", &hi);
  EXPECT_EQ(RankedLocksHeld(), 2u);
  RankCheckRelease(LockRank::kTelemetry, &hi);
  RankCheckRelease(LockRank::kDataflow, &lo);
  EXPECT_EQ(RankedLocksHeld(), 0u);
}

TEST(LockRankTest, UnrankedIsExemptAndUntracked) {
  int scratch = 0, leaf = 0;
  RankCheckAcquire(LockRank::kUnranked, "t.scratch", &scratch);
  EXPECT_EQ(RankedLocksHeld(), 0u);
  RankCheckAcquire(LockRank::kTelemetry, "t.leaf", &leaf);
  // Holding a leaf lock does not forbid an unranked acquisition either.
  RankCheckAcquire(LockRank::kUnranked, "t.scratch2", &scratch);
  RankCheckRelease(LockRank::kUnranked, &scratch);
  RankCheckRelease(LockRank::kTelemetry, &leaf);
  EXPECT_EQ(RankedLocksHeld(), 0u);
}

TEST(LockRankTest, HeldStackIsPerThread) {
  int mine = 0;
  RankCheckAcquire(LockRank::kDataflow, "t.mine", &mine);
  std::thread other([] {
    // A fresh thread holds nothing, so even an engine-rank acquisition
    // is legal there while this thread sits on a dataflow lock.
    int theirs = 0;
    EXPECT_EQ(RankedLocksHeld(), 0u);
    RankCheckAcquire(LockRank::kEngine, "t.theirs", &theirs);
    EXPECT_EQ(RankedLocksHeld(), 1u);
    RankCheckRelease(LockRank::kEngine, &theirs);
  });
  other.join();
  EXPECT_EQ(RankedLocksHeld(), 1u);
  RankCheckRelease(LockRank::kDataflow, &mine);
}

TEST(LockRankDeathTest, UpwardAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // telemetry held, then dataflow wanted — the exact inversion the
  // morsel scheduler must never introduce: a leaf waiting on its caller.
  EXPECT_DEATH(
      {
        int leaf = 0;
        int upper = 0;
        RankCheckAcquire(LockRank::kTelemetry, "t.leaf", &leaf);
        RankCheckAcquire(LockRank::kDataflow, "t.upper", &upper);
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, SameRankNestingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two dataflow-layer locks held together would allow an A/B–B/A cycle
  // inside the layer, so strict descent rejects rank ties too.
  EXPECT_DEATH(
      {
        int a = 0;
        int b = 0;
        RankCheckAcquire(LockRank::kDataflow, "t.a", &a);
        RankCheckAcquire(LockRank::kDataflow, "t.b", &b);
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, AbortMessagePrintsHeldStack) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Both sides of the inversion must be identifiable from the abort:
  // the acquisition and every held lock, by name and rank.
  EXPECT_DEATH(
      {
        int a = 0;
        int b = 0;
        int c = 0;
        RankCheckAcquire(LockRank::kExec, "t.outer", &a);
        RankCheckAcquire(LockRank::kTelemetry, "t.inner", &b);
        RankCheckAcquire(LockRank::kEngine, "t.offender", &c);
      },
      "acquiring \"t.offender\" \\(rank engine\\)(.|\n)*"
      "#0 \"t.outer\" \\(rank exec\\)(.|\n)*"
      "#1 \"t.inner\" \\(rank telemetry\\)");
}

// --- Mutex-level integration: the hooks inside common::Mutex ---

TEST(LockRankMutexTest, EngineLockOrderIsCheckedOrCompiledOut) {
  Mutex upper(LockRank::kDataflow, "test.upper");
  Mutex leaf(LockRank::kTelemetry, "test.leaf");
  {
    MutexLock hold_upper(upper);
    MutexLock hold_leaf(leaf);  // downward: always fine
    if (LockRankCheckingEnabled()) {
      EXPECT_EQ(RankedLocksHeld(), 2u);
    } else {
      // Release builds compile the hooks out of lock/unlock entirely —
      // bench_overheads reports the cost side of this same contract.
      EXPECT_EQ(RankedLocksHeld(), 0u);
    }
  }
  EXPECT_EQ(RankedLocksHeld(), 0u);
}

// The structural half of the release contract: the hooks are compiled
// out of Mutex::lock/unlock exactly under NDEBUG (unless
// GRADOOP_FORCE_LOCK_RANK_CHECKS overrides), so a release mutex costs a
// raw std::mutex and a Debug tree never silently stops checking.
TEST(LockRankMutexTest, CheckingIsCompiledOutExactlyUnderNdebug) {
#if defined(NDEBUG) && !defined(GRADOOP_FORCE_LOCK_RANK_CHECKS)
  EXPECT_FALSE(LockRankCheckingEnabled());
#else
  EXPECT_TRUE(LockRankCheckingEnabled());
#endif
}

#if GRADOOP_LOCK_RANK_CHECKS
TEST(LockRankMutexDeathTest, InvertedMutexAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex leaf(LockRank::kTelemetry, "test.leaf");
        Mutex upper(LockRank::kDataflow, "test.upper");
        MutexLock hold_leaf(leaf);
        MutexLock hold_upper(upper);  // seeded rank inversion
      },
      "lock-rank violation");
}
#endif

// The real engine singletons must compose without tripping the checker:
// record telemetry and dataflow state in the nesting production code
// uses (pool task → cost/audit charge → metrics/span append).
TEST(LockRankMutexTest, EngineComponentsComposeCleanly) {
  dataflow::ThreadPool pool(4);
  dataflow::CostTracker tracker;
  telemetry::MetricsRegistry metrics;
  telemetry::Tracer tracer;
  pool.RunAndWait(16, [&](int i) {
    dataflow::StageCost cost;
    cost.label = "rank-compose";
    cost.compute_sec = 0.001;
    tracker.AddStage(cost);
    metrics.AddCounter("rank.compose", 1);
    tracer.AddSpan("rank-compose", telemetry::kCategoryTask,
                   static_cast<double>(i), static_cast<double>(i) + 1.0, i);
  });
  EXPECT_EQ(tracker.NumStages(), 16);
  EXPECT_EQ(tracer.NumSpans(), 16u);
  EXPECT_EQ(RankedLocksHeld(), 0u);
}

}  // namespace
}  // namespace gradoop::common

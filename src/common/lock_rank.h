#ifndef GRADOOP_COMMON_LOCK_RANK_H_
#define GRADOOP_COMMON_LOCK_RANK_H_

// Static lock ranks + a debug-build deadlock checker for common::Mutex.
//
// Every mutex in the engine belongs to one subsystem layer, and the
// layers form a total order:
//
//   telemetry < dataflow < exec < engine
//
// The allowed acquisition order is strictly DOWNWARD: a thread may
// acquire a mutex only while every mutex it already holds has a
// strictly higher rank. Outer layers lock first (an engine-level cache
// may charge the cost model, which may record telemetry), leaf layers
// lock last, and no layer may ever wait on a layer above it — which
// makes cross-thread lock cycles, and therefore lock-order deadlocks,
// structurally impossible. The ranks double as documentation: they are
// the lock order the morsel scheduler (ROADMAP, "Use the cores:
// parallel exchange and morsel-sized tasks") must respect when queries
// start sharing this state.
//
// Enforcement: in checked builds (!NDEBUG, or any build with
// GRADOOP_FORCE_LOCK_RANK_CHECKS defined) each thread keeps a stack of
// the ranked mutexes it holds; an acquisition that does not descend
// strictly aborts the process, printing the offending mutex and the
// full held-lock stack. Release builds compile the hooks out of
// Mutex::lock/unlock entirely, so the ranked mutex then costs exactly a
// raw std::mutex (lock_rank_test pins the NDEBUG switch; bench_overheads
// reports ranked/raw). The checker functions themselves stay compiled in
// every build so tests and the bench can drive them directly.
//
// kUnranked mutexes (the default for Mutex's rank-less constructor) are
// exempt: they are neither tracked nor constrained. Engine code should
// always pass a rank; the escape hatch exists for scratch/test mutexes
// whose scope never spans subsystems.

#include <cstddef>

#if !defined(NDEBUG) || defined(GRADOOP_FORCE_LOCK_RANK_CHECKS)
#define GRADOOP_LOCK_RANK_CHECKS 1
#else
#define GRADOOP_LOCK_RANK_CHECKS 0
#endif

namespace gradoop::common {

// Subsystem layers, ordered leaf-most first. Keep this in sync with the
// table in docs/concurrency.md.
enum class LockRank : int {
  kUnranked = 0,   // exempt from checking; avoid in engine code
  kTelemetry = 1,  // metrics shards, tracer shards (leaf: lock nothing under)
  kDataflow = 2,   // thread pool, cost tracker, partitioning audit
  kExec = 3,       // compiled-operator / scan-sharing state (reserved)
  kEngine = 4,     // engine-wide caches, sessions (reserved)
};

// Human-readable layer name ("telemetry", "dataflow", ...).
const char* LockRankName(LockRank rank);

// True when Mutex::lock/unlock run the rank checker in this build.
constexpr bool LockRankCheckingEnabled() {
  return GRADOOP_LOCK_RANK_CHECKS != 0;
}

// --- checker core (always compiled; Mutex calls it only in checked
// builds, tests and bench_overheads call it directly) ---

// Validates that acquiring (`rank`, `name`, identity `mutex`) strictly
// descends from everything this thread holds, then pushes it onto the
// per-thread held stack. On a violation prints the acquisition and the
// held-lock stack to stderr and aborts. kUnranked is a no-op.
void RankCheckAcquire(LockRank rank, const char* name, const void* mutex);

// Pops `mutex` from this thread's held stack (out-of-order release is
// legal and handled). Unknown mutexes are ignored, so enabling checks
// mid-run cannot abort on a release. kUnranked is a no-op.
void RankCheckRelease(LockRank rank, const void* mutex);

// Number of ranked mutexes the calling thread currently holds
// (test/bench observability).
size_t RankedLocksHeld();

}  // namespace gradoop::common

#endif  // GRADOOP_COMMON_LOCK_RANK_H_

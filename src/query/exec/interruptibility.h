#ifndef GRADOOP_QUERY_EXEC_INTERRUPTIBILITY_H_
#define GRADOOP_QUERY_EXEC_INTERRUPTIBILITY_H_

#include <cstdint>
#include <string>

#include "common/thread_annotations.h"

namespace gradoop::dataflow {
class ExecutionContext;
}  // namespace gradoop::dataflow

namespace gradoop::query::exec {

class PhysicalOperator;

// Static interruptibility analysis over compiled physical plans
// (docs/cancellation.md).
//
// Every operator carries an Interruptibility in its PlanProperties: the
// maximum number of rows (row engine) / batches (batch engine) its
// subtree processes between two cancellation checkpoints — the
// CheckCancelled() polls the kernel loops make against the
// ExecutionContext's CancellationToken. DerivePlanProperties
// (plan_compiler.h) derives it bottom-up from per-operator transfer
// functions (like memory_bound.h); VerifyCompiledPlan rejects any
// operator whose checkpoint interval is unbounded (a kernel loop with no
// poll — e.g. an Expand recursion or hash-build loop that never checks).
// The GRADOOP_AUDIT_CANCELLATION runtime audit closes the loop by
// injecting cancellation at randomized checkpoint counts and asserting
// the unwind respects the claimed interval.

// Checkpoint stride constants: the kernel loops poll at exactly these
// strides, and the transfer functions claim the same values — one set of
// constants so the claim and the implementation cannot drift.
//
// All dataset loops (dataflow/dataset.h) poll once per record, so under
// the row engine a record is a row and under the batch engine a record
// is a batch: every compiled kernel checkpoints at least once per row /
// per batch.
inline constexpr uint64_t kKernelCheckpointRows = 1;
inline constexpr uint64_t kKernelCheckpointBatches = 1;

// One operator's interruptibility for the subtree rooted here.
// 0 in either field means unbounded — some loop in the subtree has no
// checkpoint — which VerifyCompiledPlan rejects outright.
struct Interruptibility {
  uint64_t rows = 0;     // max rows between polls, row engine
  uint64_t batches = 0;  // max batches between polls, batch engine

  bool operator==(const Interruptibility& other) const = default;

  bool bounded() const { return rows > 0 && batches > 0; }

  // "poll=1r/1b" / "poll=unbounded"
  std::string ToString() const;
};

// Transfer function: the interruptibility of `op`'s subtree, composed
// from the operator kind's own checkpoint stride and the children's
// derived intervals (worst interval wins; a child whose properties were
// never derived makes the subtree unbounded, since nothing proves its
// loops poll). Pure — never reads the operator's own properties.
Interruptibility DeriveInterruptibility(const PhysicalOperator& op);

// --- runtime audit ----------------------------------------------------

// Read per call, not cached: tests toggle the variable around individual
// executions with setenv/unsetenv.
bool CancellationAuditEnabled();

// Wall-clock budget between the cancellation trip and the query's
// unwind (GRADOOP_CANCELLATION_BUDGET seconds, default 2.0). A loop that
// honors its claimed checkpoint interval detects the trip within a
// handful of records; an unpolled loop runs to completion and blows the
// budget — which is exactly what the audit exists to catch.
double CancellationAuditBudgetSec();

// Seed for the randomized injection checkpoint counts
// (GRADOOP_AUDIT_CANCELLATION_SEED, default 17). Deterministic so CI
// failures reproduce.
uint64_t CancellationAuditSeed();

// Asserts an unwound (cancelled) query respected the plan's
// interruptibility claims:
//   - checkpoints observed after the trip stay within the allowance
//     implied by the root claim and the execution parallelism (every
//     in-flight loop notices the trip at its next poll),
//   - wall latency from trip to unwind is within the audit budget,
//   - the MemoryAccountant drained back to zero (no leaked frames or
//     charges), and
//   - no partition tasks remain pending on the pool.
// Aborts the process on the first violation. Call after the engine's
// cancel-path cleanup, while the token still holds the trip state.
void AuditCancelledQuery(const PhysicalOperator& root,
                         dataflow::ExecutionContext& ctx);

// Process-wide tally of audit activity, so tests can assert the audit
// actually ran. Mirrors MemoryAuditStats; the lock exists for
// cross-thread test readers — audits themselves run on the driver
// thread.
class CancellationAuditStats {
 public:
  static CancellationAuditStats& Instance() {
    static CancellationAuditStats stats;
    return stats;
  }

  void RecordInjection(bool tripped) EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    injections_ += 1;
    if (tripped) trips_ += 1;
  }

  void RecordCheck(uint64_t violations) EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    checks_ += 1;
    violations_ += violations;
  }

  uint64_t injections() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return injections_;
  }
  uint64_t trips() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return trips_;
  }
  uint64_t checks() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return checks_;
  }
  uint64_t violations() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return violations_;
  }

  void Reset() EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    injections_ = 0;
    trips_ = 0;
    checks_ = 0;
    violations_ = 0;
  }

 private:
  CancellationAuditStats() = default;

  mutable common::Mutex mu_{common::LockRank::kExec,
                            "exec.cancellation_audit"};
  uint64_t injections_ GUARDED_BY(mu_) = 0;
  uint64_t trips_ GUARDED_BY(mu_) = 0;
  uint64_t checks_ GUARDED_BY(mu_) = 0;
  uint64_t violations_ GUARDED_BY(mu_) = 0;
};

}  // namespace gradoop::query::exec

#endif  // GRADOOP_QUERY_EXEC_INTERRUPTIBILITY_H_

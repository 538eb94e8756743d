#ifndef GRADOOP_QUERY_EXEC_MEMORY_BOUND_H_
#define GRADOOP_QUERY_EXEC_MEMORY_BOUND_H_

#include <cstdint>
#include <string>

#include "common/thread_annotations.h"
#include "dataflow/memory_accountant.h"

namespace gradoop::query {
class EmbeddingMetaData;
}  // namespace gradoop::query

namespace gradoop::query::exec {

class PhysicalOperator;

// Static memory-footprint analysis over compiled physical plans
// (docs/memory.md).
//
// Every operator carries a MemoryBound in its PlanProperties: how many
// resident bytes its execution is expected to cost, derived bottom-up by
// per-operator transfer functions in the same pass as the partitioning
// properties (DerivePlanProperties, plan_compiler.h). CypherEngine
// rejects plans whose root peak exceeds max_query_memory_bytes before
// anything executes; and with GRADOOP_AUDIT_MEMORY set, the measured
// per-operator peak (dataflow/memory_accountant.h) is checked against
// the model at query end, aborting when the transfer functions proved
// unsound.
//
// All figures are estimates in the planner's cardinality model, not hard
// bounds: byte widths of properties and paths use fixed per-column
// constants and cardinalities are the planner's. The runtime audit closes
// the loop with a slack factor (GRADOOP_MEMORY_SLACK, default 4).

// Model constants (bytes). The embedding row model mirrors
// Embedding::SerializedSize(): a 3-field header plus kEntryWidth per id
// column; variable-length payloads (paths, property values) use the
// generous per-column estimates below, validated against the LDBC example
// queries by the runtime audit in CI.
inline constexpr uint64_t kEmbeddingHeaderBytes = 12;  // 3 x uint32 sizes
inline constexpr uint64_t kEntryWidthBytes = 9;        // flag + 8B payload
inline constexpr uint64_t kPropertyBytesEstimate = 24;
inline constexpr uint64_t kPathBytesEstimate = 48;
// Per-row overhead of a join build table — the same constant
// Dataset::EquiJoin charges the accountant, so the model and the
// measurement price tables identically.
inline constexpr uint64_t kJoinTableEntryBytes =
    dataflow::kHashTableEntryBytes;
// Estimated wire size of one epgm::Edge staged by an expansion step
// (id/src/target + label + properties + graph memberships).
inline constexpr uint64_t kEdgeRecordBytesEstimate = 112;

// One operator's memory bound. row_bytes/output_bytes describe the
// operator's own output; state_bytes its transient kernel state (shuffle
// staging, build tables, broadcast replicas); peak_bytes the resident
// peak of the whole subtree rooted here under the lifetime-interval model
// (an input's output lives until the consuming kernel returns, so the
// subtree peak is NOT the sum of all operators' bytes).
struct MemoryBound {
  uint64_t row_bytes = 0;     // estimated serialized bytes per output row
  uint64_t output_bytes = 0;  // row_bytes x estimated cardinality
  uint64_t state_bytes = 0;   // transient kernel state while running
  uint64_t peak_bytes = 0;    // subtree peak (lifetime-interval fold)

  bool operator==(const MemoryBound& other) const = default;

  // "row=21B out=4096B state=0B peak=8192B"
  std::string ToString() const;
};

// Estimated serialized bytes of one embedding row with layout `meta`.
uint64_t EstimateRowBytes(const EmbeddingMetaData& meta);

// The lifetime-interval fold at the heart of the analysis, exposed for
// unit tests. Inputs execute left to right; input i's peak is reached
// while the outputs of inputs 0..i-1 are already resident, and once every
// input has produced, all input outputs + the operator's own transient
// state + its output are resident together:
//
//   peak = max( max_i( sum_{j<i} out_j + peak_i ),
//               sum_i out_i + state + output )
//
// `child_output_bytes`/`child_peak_bytes` are parallel arrays.
uint64_t FoldLifetimePeak(const uint64_t* child_output_bytes,
                          const uint64_t* child_peak_bytes,
                          int num_children, uint64_t state_bytes,
                          uint64_t output_bytes);

// Transfer function: the memory bound of `op`'s subtree, derived from the
// operator kind, layout, strategy, cardinality estimate and the
// children's derived bounds (a null child counts as all-zero). Pure —
// never reads the operator's own properties. `num_workers` scales the
// broadcast replication term and must match the executing
// ClusterConfig::num_workers (the compiler is handed the context's
// value).
MemoryBound DeriveMemoryBound(const PhysicalOperator& op,
                              int num_workers = 4);

// Audit-time variant: re-derives the whole subtree recursively, replacing
// every cardinality estimate with the operator's actual row count when it
// executed (absorbing planner misestimates — the audit checks the model's
// structure, not the estimator). Children's properties are not read —
// everything below `op` is re-derived.
MemoryBound DeriveMemoryBoundAtActuals(const PhysicalOperator& op,
                                       int num_workers = 4);

// --- runtime audit ----------------------------------------------------

// Read per call, not cached: tests toggle the variable around individual
// executions with setenv/unsetenv.
bool MemoryAuditEnabled();

// Allowance multiplier over the static model (GRADOOP_MEMORY_SLACK,
// default 4.0): properties and paths are width-estimated, so measured
// bytes legitimately exceed the model by small factors.
double MemoryAuditSlack();

// Walks the executed plan and compares every operator's measured subtree
// peak (OperatorStats::actual_peak_bytes) against
// slack x max(derived peak, model peak at actual row counts). Aborts the
// process on the first violation — an unsound transfer function must not
// survive CI. Call after Execute() with memory accounting enabled.
void AuditCompiledPlanMemory(const PhysicalOperator& root, int num_workers);

// Process-wide tally of audit activity, so tests can assert the audit
// actually ran (a disabled audit trivially "passes"). Mirrors
// dataflow::PartitioningAuditStats; the lock exists for cross-thread test
// readers — audits themselves run on the driver thread.
class MemoryAuditStats {
 public:
  static MemoryAuditStats& Instance() {
    static MemoryAuditStats stats;
    return stats;
  }

  void RecordCheck(uint64_t operators, uint64_t violations) EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    checks_ += 1;
    operators_checked_ += operators;
    violations_ += violations;
  }

  uint64_t checks() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return checks_;
  }
  uint64_t operators_checked() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return operators_checked_;
  }
  uint64_t violations() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return violations_;
  }

  void Reset() EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    checks_ = 0;
    operators_checked_ = 0;
    violations_ = 0;
  }

 private:
  MemoryAuditStats() = default;

  mutable common::Mutex mu_{common::LockRank::kExec, "exec.memory_audit"};
  uint64_t checks_ GUARDED_BY(mu_) = 0;
  uint64_t operators_checked_ GUARDED_BY(mu_) = 0;
  uint64_t violations_ GUARDED_BY(mu_) = 0;
};

}  // namespace gradoop::query::exec

#endif  // GRADOOP_QUERY_EXEC_MEMORY_BOUND_H_

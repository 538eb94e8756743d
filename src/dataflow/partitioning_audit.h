#ifndef GRADOOP_DATAFLOW_PARTITIONING_AUDIT_H_
#define GRADOOP_DATAFLOW_PARTITIONING_AUDIT_H_

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/thread_annotations.h"

namespace gradoop::dataflow {

// Runtime audit of the compile-time partitioning analysis
// (query/exec/partitioning.h). The analysis lets Dataset::EquiJoin adopt
// a pre-partitioned input without shuffling it; an unsound transfer
// function would not crash but silently match records in the wrong
// partition and drop results. With GRADOOP_AUDIT_PARTITIONING set (CI
// runs the debug trees this way), every elided shuffle re-hashes each
// record and the join hard-fails on the first misplaced one.

inline bool PartitioningAuditEnabled() {
  // Read per call, not cached: tests toggle the variable around
  // individual executions with setenv/unsetenv.
  return std::getenv("GRADOOP_AUDIT_PARTITIONING") != nullptr;
}

// Counts rows that do not sit in the partition the placement policy
// `place` routes them to (see dataflow::KeyPlacement) — exactly the check
// an elided shuffle claims is unnecessary, made with the placement the
// shuffle itself routes by. Exposed for unit tests; Dataset::EquiJoin
// aborts when this returns non-zero.
template <typename Rec, typename Place>
uint64_t CountMisplacedRecords(const std::vector<std::vector<Rec>>& parts,
                               Place place,
                               uint64_t* records_checked = nullptr) {
  const size_t p = parts.size();
  uint64_t misplaced = 0;
  uint64_t checked = 0;
  for (size_t i = 0; i < p; ++i) {
    // cancellation: opt-in partitioning audit must re-place every row even
    // while unwinding — a partial check could miss the violation.
    for (const Rec& rec : parts[i]) {
      place.ForEachRow(rec, p, [&](size_t target) {
        ++checked;
        if (target != i) ++misplaced;
      });
    }
  }
  if (records_checked != nullptr) *records_checked = checked;
  return misplaced;
}

// Process-wide tally of audit activity, so tests can assert the audit
// actually ran (a disabled audit trivially "passes"). Joins of one query
// execute concurrently on the host pool, hence the annotated lock — the
// -Wthread-safety gate covers these counters like every other shared
// telemetry path.
class PartitioningAuditStats {
 public:
  static PartitioningAuditStats& Instance() {
    static PartitioningAuditStats stats;
    return stats;
  }

  void RecordCheck(uint64_t records, uint64_t misplaced) EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    checks_ += 1;
    records_checked_ += records;
    misplaced_records_ += misplaced;
  }

  uint64_t checks() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return checks_;
  }
  uint64_t records_checked() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return records_checked_;
  }
  uint64_t misplaced_records() const EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return misplaced_records_;
  }

  void Reset() EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    checks_ = 0;
    records_checked_ = 0;
    misplaced_records_ = 0;
  }

 private:
  PartitioningAuditStats() = default;

  mutable common::Mutex mu_{common::LockRank::kDataflow,
                            "dataflow.partitioning_audit"};
  uint64_t checks_ GUARDED_BY(mu_) = 0;
  uint64_t records_checked_ GUARDED_BY(mu_) = 0;
  uint64_t misplaced_records_ GUARDED_BY(mu_) = 0;
};

}  // namespace gradoop::dataflow

#endif  // GRADOOP_DATAFLOW_PARTITIONING_AUDIT_H_

#include "query/exec/interruptibility.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "dataflow/execution_context.h"
#include "query/exec/physical_operator.h"

namespace gradoop::query::exec {

std::string Interruptibility::ToString() const {
  if (!bounded()) return "poll=unbounded";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "poll=%llur/%llub",
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(batches));
  return buf;
}

Interruptibility DeriveInterruptibility(const PhysicalOperator& op) {
  // Every compiled kernel routes its per-record work through the
  // dataflow loops, which poll once per record (row-engine row, batch-
  // engine batch) — so each kind's own stride is the shared constant.
  // The switch stays explicit so a new operator kind fails to compile
  // here until someone decides where its kernels poll.
  Interruptibility self;
  switch (op.op_kind()) {
    case PhysOpKind::kVertexScan:
    case PhysOpKind::kEdgeScan:
    case PhysOpKind::kJoin:
    case PhysOpKind::kValueJoin:
    case PhysOpKind::kExpand:
    case PhysOpKind::kFilter:
      self.rows = kKernelCheckpointRows;
      self.batches = kKernelCheckpointBatches;
      break;
  }
  // Worst interval in the subtree wins. A child whose properties were
  // never derived is unbounded, and so is the subtree.
  for (const PhysicalOperatorPtr& child : op.children()) {
    if (child == nullptr || !child->properties().interruptibility.bounded()) {
      return Interruptibility{};  // unbounded
    }
    self.rows = std::max(self.rows, child->properties().interruptibility.rows);
    self.batches =
        std::max(self.batches, child->properties().interruptibility.batches);
  }
  return self;
}

bool CancellationAuditEnabled() {
  return std::getenv("GRADOOP_AUDIT_CANCELLATION") != nullptr;
}

double CancellationAuditBudgetSec() {
  const char* value = std::getenv("GRADOOP_CANCELLATION_BUDGET");
  if (value == nullptr) return 2.0;
  const double budget = std::atof(value);
  return budget > 0.0 ? budget : 2.0;
}

uint64_t CancellationAuditSeed() {
  const char* value = std::getenv("GRADOOP_AUDIT_CANCELLATION_SEED");
  if (value == nullptr) return 17;
  return static_cast<uint64_t>(std::strtoull(value, nullptr, 10));
}

void AuditCancelledQuery(const PhysicalOperator& root,
                         dataflow::ExecutionContext& ctx) {
  const common::CancellationToken& token = ctx.cancellation();
  uint64_t violations = 0;
  char detail[256];
  detail[0] = '\0';

  if (!token.cancelled()) {
    violations += 1;
    std::snprintf(detail, sizeof(detail),
                  "audited a query whose token never tripped");
  }

  // Checkpoints observed after the trip: each in-flight kernel loop
  // notices the trip at its next poll, and the stages already queued in
  // the current compound kernel each poll once per partition before
  // breaking. The allowance scales with the claimed interval and the
  // execution parallelism; a loop that skips its claimed checkpoints
  // shifts detection to later (coarser) polls and breaches it.
  const Interruptibility claim = root.properties().interruptibility;
  const uint64_t claimed_interval = std::max<uint64_t>(
      1, std::max(claim.rows, claim.batches));
  const uint64_t parallelism = static_cast<uint64_t>(
      ctx.pool().num_threads() + ctx.num_workers() + 8);
  const uint64_t allowance = 8 * parallelism * claimed_interval;
  if (violations == 0 && token.polls_after_trip() > allowance) {
    violations += 1;
    std::snprintf(detail, sizeof(detail),
                  "%llu checkpoints elapsed after the trip, allowance %llu "
                  "(claimed interval %s)",
                  static_cast<unsigned long long>(token.polls_after_trip()),
                  static_cast<unsigned long long>(allowance),
                  claim.ToString().c_str());
  }

  const double latency = token.SecondsSinceTrip();
  const double budget = CancellationAuditBudgetSec();
  if (violations == 0 && latency > budget) {
    violations += 1;
    std::snprintf(detail, sizeof(detail),
                  "unwind took %.3fs after the trip, budget %.3fs — some "
                  "loop ran past the trip without polling",
                  latency, budget);
  }

  if (violations == 0 && (ctx.accountant().current_bytes() != 0 ||
                          ctx.accountant().frame_depth() != 0)) {
    violations += 1;
    std::snprintf(
        detail, sizeof(detail),
        "MemoryAccountant did not drain: %llu bytes across %llu frames",
        static_cast<unsigned long long>(ctx.accountant().current_bytes()),
        static_cast<unsigned long long>(ctx.accountant().frame_depth()));
  }

  if (violations == 0 && ctx.pool().pending_tasks() != 0) {
    violations += 1;
    std::snprintf(detail, sizeof(detail), "%d partition tasks still pending",
                  ctx.pool().pending_tasks());
  }

  CancellationAuditStats::Instance().RecordCheck(violations);
  if (violations != 0) {
    std::fprintf(stderr,
                 "[gradoop] cancellation audit FAILED at %s: %s — the "
                 "interruptibility claims are unsound\n",
                 root.name(), detail);
    std::abort();
  }
}

}  // namespace gradoop::query::exec

#include "query/exec/memory_bound.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "query/exec/physical_operator.h"

namespace gradoop::query::exec {

namespace {

// ceil(estimate) as a row count; estimates are finite and non-negative
// (VerifyCompiledPlan checks), but clamp defensively anyway.
uint64_t RowsFromEstimate(double estimate) {
  if (!(estimate > 0.0)) return 0;
  return static_cast<uint64_t>(std::ceil(estimate));
}

// The row count the audit model prices an operator at: the measured
// cardinality when the operator executed, the estimate otherwise (an
// operator of a compiled-but-unexecuted tree has nothing better).
uint64_t RowsOf(const PhysicalOperator& op, bool use_actuals) {
  if (use_actuals && op.stats().executed) return op.stats().actual_rows;
  return RowsFromEstimate(op.estimated_cardinality());
}

// Per-operator derivation, shared between the compile-time transfer
// function (children's derived bounds, estimated rows) and the audit
// model (children re-derived recursively, actual rows). The split keeps
// the two modes provably the same shape.
MemoryBound DeriveNode(const PhysicalOperator& op, int num_workers,
                       bool use_actuals) {
  const uint64_t p = num_workers > 0 ? static_cast<uint64_t>(num_workers) : 1;

  // Children's bounds: their properties at compile time, recursive
  // re-derivation at audit time.
  std::vector<MemoryBound> child_bounds;
  std::vector<uint64_t> child_rows;
  child_bounds.reserve(op.children().size());
  child_rows.reserve(op.children().size());
  for (const PhysicalOperatorPtr& child : op.children()) {
    if (child == nullptr) {
      child_bounds.emplace_back();
      child_rows.push_back(0);
      continue;
    }
    child_bounds.push_back(use_actuals
                               ? DeriveNode(*child, num_workers, true)
                               : child->properties().memory);
    child_rows.push_back(RowsOf(*child, use_actuals));
  }

  MemoryBound b;
  b.row_bytes = EstimateRowBytes(op.output_meta());
  b.output_bytes = b.row_bytes * RowsOf(op, use_actuals);

  // Operator-specific transient state.
  switch (op.op_kind()) {
    case PhysOpKind::kVertexScan:
    case PhysOpKind::kEdgeScan:
    case PhysOpKind::kFilter:
      // Scans stream source elements row by row; filters drop in place.
      b.state_bytes = 0;
      break;

    case PhysOpKind::kJoin:
    case PhysOpKind::kValueJoin: {
      dataflow::JoinStrategy strategy;
      if (op.op_kind() == PhysOpKind::kJoin) {
        strategy = static_cast<const JoinOp&>(op).strategy();
      } else {
        strategy = static_cast<const ValueJoinOp&>(op).strategy();
      }
      const uint64_t left_bytes =
          child_bounds.size() > 0 ? child_bounds[0].output_bytes : 0;
      const uint64_t right_bytes =
          child_bounds.size() > 1 ? child_bounds[1].output_bytes : 0;
      const uint64_t right_rows = child_rows.size() > 1 ? child_rows[1] : 0;
      if (strategy == dataflow::JoinStrategy::kBroadcast) {
        // Dataset::EquiJoin broadcast: the accountant charges the probe
        // side once and the build side once per worker (on a cluster each
        // worker holds a copy; the host reads one chain in place), and
        // each worker builds a hash table over the full build side. The
        // bound is that charge.
        b.state_bytes = left_bytes + p * right_bytes +
                        p * right_rows * kJoinTableEntryBytes;
      } else {
        // Repartition: each side is staged once, shuffled or (when its
        // shuffle is elided) adopted in place, and the build side gets
        // one table entry per row.
        b.state_bytes =
            left_bytes + right_bytes + right_rows * kJoinTableEntryBytes;
      }
      break;
    }

    case PhysOpKind::kExpand: {
      // Priced as the paper's plan, where each hop joins the frontier
      // against the full edge dataset: the edge rows are staged and become
      // build-table entries, per hop, and the frontier/emission state
      // rides along. The host walks the graph's adjacency index instead
      // but charges the accountant the same per-hop staging. Old hop
      // staging is released before the next hop, so one hop's worth
      // bounds them all.
      const auto& expand = static_cast<const ExpandOp&>(op);
      const uint64_t edge_rows = expand.edge_input_estimate();
      const uint64_t input_bytes =
          child_bounds.empty() ? 0 : child_bounds[0].output_bytes;
      b.state_bytes =
          edge_rows * (kEdgeRecordBytesEstimate + kJoinTableEntryBytes) +
          input_bytes + b.output_bytes;
      break;
    }
  }

  std::vector<uint64_t> child_outputs, child_peaks;
  child_outputs.reserve(child_bounds.size());
  child_peaks.reserve(child_bounds.size());
  for (const MemoryBound& c : child_bounds) {
    child_outputs.push_back(c.output_bytes);
    child_peaks.push_back(c.peak_bytes);
  }
  b.peak_bytes = FoldLifetimePeak(
      child_outputs.data(), child_peaks.data(),
      static_cast<int>(child_bounds.size()), b.state_bytes, b.output_bytes);
  return b;
}

// One operator's audit check; recurses children first so the failure
// message names the deepest offending operator.
void AuditNode(const PhysicalOperator& op, int num_workers, double slack,
               uint64_t* operators_checked) {
  for (const PhysicalOperatorPtr& child : op.children()) {
    if (child != nullptr) {
      AuditNode(*child, num_workers, slack, operators_checked);
    }
  }
  if (!op.stats().executed) return;
  ++*operators_checked;
  const uint64_t claimed = op.properties().memory.peak_bytes;
  const MemoryBound at_actuals =
      DeriveMemoryBoundAtActuals(op, num_workers);
  const uint64_t model = std::max(claimed, at_actuals.peak_bytes);
  const double allowance = slack * static_cast<double>(model);
  const uint64_t measured = op.stats().actual_peak_bytes;
  if (static_cast<double>(measured) > allowance) {
    MemoryAuditStats::Instance().RecordCheck(*operators_checked, 1);
    std::fprintf(
        stderr,
        "[gradoop] memory audit FAILED at %s: measured subtree peak %llu "
        "bytes exceeds %.1fx the static model (claimed %llu, at actual "
        "rows %llu) — the memory transfer functions are unsound\n",
        op.name(), static_cast<unsigned long long>(measured), slack,
        static_cast<unsigned long long>(claimed),
        static_cast<unsigned long long>(at_actuals.peak_bytes));
    std::abort();
  }
}

}  // namespace

std::string MemoryBound::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "row=%lluB out=%lluB state=%lluB peak=%lluB",
                static_cast<unsigned long long>(row_bytes),
                static_cast<unsigned long long>(output_bytes),
                static_cast<unsigned long long>(state_bytes),
                static_cast<unsigned long long>(peak_bytes));
  return buf;
}

uint64_t EstimateRowBytes(const EmbeddingMetaData& meta) {
  const uint64_t id_columns = static_cast<uint64_t>(meta.id_column_count());
  const uint64_t path_columns =
      static_cast<uint64_t>(meta.PathColumns().size());
  const uint64_t property_columns =
      static_cast<uint64_t>(meta.property_column_count());
  return kEmbeddingHeaderBytes + kEntryWidthBytes * id_columns +
         kPathBytesEstimate * path_columns +
         kPropertyBytesEstimate * property_columns;
}

uint64_t FoldLifetimePeak(const uint64_t* child_output_bytes,
                          const uint64_t* child_peak_bytes,
                          int num_children, uint64_t state_bytes,
                          uint64_t output_bytes) {
  uint64_t held = 0;
  uint64_t peak = 0;
  for (int i = 0; i < num_children; ++i) {
    peak = std::max(peak, held + child_peak_bytes[i]);
    held += child_output_bytes[i];
  }
  return std::max(peak, held + state_bytes + output_bytes);
}

MemoryBound DeriveMemoryBound(const PhysicalOperator& op, int num_workers) {
  return DeriveNode(op, num_workers, /*use_actuals=*/false);
}

MemoryBound DeriveMemoryBoundAtActuals(const PhysicalOperator& op,
                                       int num_workers) {
  return DeriveNode(op, num_workers, /*use_actuals=*/true);
}

bool MemoryAuditEnabled() {
  return std::getenv("GRADOOP_AUDIT_MEMORY") != nullptr;
}

double MemoryAuditSlack() {
  const char* raw = std::getenv("GRADOOP_MEMORY_SLACK");
  if (raw == nullptr) return 4.0;
  const double parsed = std::atof(raw);
  return parsed > 0.0 ? parsed : 4.0;
}

void AuditCompiledPlanMemory(const PhysicalOperator& root, int num_workers) {
  const double slack = MemoryAuditSlack();
  uint64_t operators_checked = 0;
  AuditNode(root, num_workers, slack, &operators_checked);
  MemoryAuditStats::Instance().RecordCheck(operators_checked, 0);
}

}  // namespace gradoop::query::exec

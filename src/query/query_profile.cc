#include "query/query_profile.h"

namespace gradoop::query {

namespace {

// Pre-order plan walk; depth reconstructs the tree shape in the JSON.
void AppendOperators(const exec::PhysicalOperator& op, int depth,
                     std::vector<telemetry::OperatorProfile>* out) {
  const exec::OperatorStats& stats = op.stats();
  telemetry::OperatorProfile profile;
  profile.name = op.name();
  profile.describe = op.Describe();
  profile.depth = depth;
  profile.estimated_rows = op.estimated_cardinality();
  profile.actual_rows = stats.actual_rows;
  profile.qerror = telemetry::QError(op.estimated_cardinality(),
                                     static_cast<double>(stats.actual_rows));
  profile.selectivity = stats.selectivity;
  profile.actual_peak_bytes = stats.actual_peak_bytes;
  profile.claimed_peak_bytes = op.properties().memory.peak_bytes;
  profile.self_wall_sec = stats.self_wall_sec;
  profile.total_wall_sec = stats.total_wall_sec;
  profile.network_bytes = stats.network_bytes;
  profile.spilled_bytes = stats.spilled_bytes;
  profile.output_bytes = stats.output_bytes;
  profile.property_bytes = stats.property_bytes;
  out->push_back(std::move(profile));
  for (const exec::PhysicalOperatorPtr& child : op.children()) {
    AppendOperators(*child, depth + 1, out);
  }
}

}  // namespace

telemetry::QueryProfile BuildQueryProfile(
    const std::string& name, const std::string& query,
    const CypherMatchResult& result, const dataflow::ExecutionContext& ctx) {
  telemetry::QueryProfile profile;
  profile.name = name;
  profile.query = query;
  profile.matches = result.matches;
  profile.total_wall_sec = result.total_wall_sec;
  profile.simulated_sec = ctx.tracker().SimulatedSeconds();
  profile.network_bytes = ctx.tracker().NetworkBytes();
  profile.spilled_bytes = ctx.tracker().SpilledBytes();
  profile.records = ctx.tracker().TotalRecords();
  profile.num_workers = ctx.num_workers();
  profile.phases = result.phases;
  profile.engine = result.engine;
  if (result.physical != nullptr) {
    AppendOperators(*result.physical, 0, &profile.operators);
    for (const telemetry::OperatorProfile& op : profile.operators) {
      if (op.qerror > profile.max_qerror) profile.max_qerror = op.qerror;
    }
  }
  profile.workers = telemetry::ComputeWorkerBusy(
      ctx.telemetry().tracer().CollectSpans(), ctx.num_workers());
  profile.metrics = ctx.telemetry().metrics().Snapshot();
  return profile;
}

}  // namespace gradoop::query

#include "query/exec/physical_operator.h"

#include <cstdio>

#include "common/timer.h"
#include "telemetry/query_profile.h"

namespace gradoop::query::exec {

namespace dfl = ::gradoop::dataflow;

namespace {

std::string CardString(double card) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", card);
  return buf;
}

std::string ClauseList(const std::vector<cypher::CnfClause>& clauses) {
  std::string out;
  for (size_t i = 0; i < clauses.size(); ++i) {
    if (i > 0) out += " AND ";
    out += clauses[i].ToString();
  }
  return out;
}

std::string CommaJoined(const std::vector<std::string>& tokens) {
  std::string out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out += ",";
    out += tokens[i];
  }
  return out;
}

// Renders shuffle elision for EXPLAIN: which repartition sides the
// analysis proved co-partitioned, and on what key.
std::string ElisionSuffix(bool left, bool right, const std::string& keys) {
  if (!left && !right) return "";
  const char* side = (left && right) ? "" : (left ? "left " : "right ");
  return ", " + std::string(side) + "shuffle=elided (co-partitioned on " +
         keys + ")";
}

}  // namespace

Status PhysicalOperator::Open(const ExecEnv& env) {
  if (env.graph == nullptr) {
    return Status::Internal("PhysicalOperator: ExecEnv has no graph");
  }
  stats_ = OperatorStats();
  for (const PhysicalOperatorPtr& child : children_) {
    GRADOOP_RETURN_IF_ERROR(child->Open(env));
  }
  return Status::Ok();
}

Result<EmbeddingSet> PhysicalOperator::Execute(const ExecEnv& env) {
  telemetry::Telemetry& tel = env.graph->context()->telemetry();
  const bool traced = tel.enabled();
  const double span_begin_us = traced ? tel.tracer().NowMicros() : 0.0;
  common::CancellationToken& cancel = env.graph->context()->cancellation();
  // Boundary check before any child runs: a trip observed here skips the
  // whole subtree. CancelledOrExpired reads the clock, so a deadline is
  // noticed at the latest one operator after it passes even if no kernel
  // checkpoint fires in between.
  if (cancel.CancelledOrExpired()) {
    return Status::ExecutionError("query cancelled at " + Describe());
  }
  // Frame per subtree: the frame delta (popped below) is this subtree's
  // own resident peak, the runtime counterpart of MemoryBound::peak_bytes.
  // Execute recursion is driver-thread only, so frames strictly nest.
  dataflow::MemoryAccountant& accountant =
      env.graph->context()->accountant();
  accountant.PushFrame();
  // Error unwind: release what executed children still held and pop this
  // frame, so a cancelled query drains the accountant to zero (the
  // cancellation audit asserts exactly that). Each failing ancestor
  // repeats this, balancing the whole path to the root.
  auto unwind = [&](Status status) {
    if (accountant.enabled()) {
      for (const PhysicalOperatorPtr& child : children_) {
        if (child->stats().executed) {
          accountant.Release(child->stats().output_bytes);
        }
      }
    }
    accountant.PopFrame();
    return status;
  };
  Timer total_timer;
  std::vector<EmbeddingSet> inputs;
  inputs.reserve(children_.size());
  uint64_t input_rows = 0;
  for (const PhysicalOperatorPtr& child : children_) {
    Result<EmbeddingSet> input = child->Execute(env);
    if (!input.ok()) return unwind(input.status());
    input_rows += child->stats().actual_rows;
    inputs.push_back(std::move(input).value());
  }
  // The simulated dataflow is eager: every transformation has completed
  // (and charged the tracker) by the time Run returns, so counter deltas
  // around the call attribute shuffle/spill bytes to this operator.
  const dataflow::CostTracker& tracker = env.graph->context()->tracker();
  const uint64_t network_before = tracker.NetworkBytes();
  const uint64_t spilled_before = tracker.SpilledBytes();
  Timer self_timer;
  Result<EmbeddingSet> run = Run(env, std::move(inputs));
  if (!run.ok()) return unwind(run.status());
  // Post-kernel check: kernels drop out of their loops when the token
  // trips but still return partial batches; rejecting here attributes the
  // cancellation to the operator whose kernel observed it.
  if (cancel.CancelledOrExpired()) {
    return unwind(
        Status::ExecutionError("query cancelled at " + Describe()));
  }
  EmbeddingSet out = std::move(run).value();
  stats_.self_wall_sec = self_timer.ElapsedSeconds();
  stats_.network_bytes = tracker.NetworkBytes() - network_before;
  stats_.spilled_bytes = tracker.SpilledBytes() - spilled_before;
  // Partition sizes are read directly — Count() would charge an extra
  // dataflow stage to the query being measured.
  for (int p = 0; p < out.data.num_partitions(); ++p) {
    // cancellation: stats byte walk over this operator's own output;
    // the boundary check above already rejected a tripped token.
    for (const Embedding& e : out.data.partition(p)) {
      ++stats_.actual_rows;
      stats_.output_bytes += e.SerializedSize();
      stats_.property_bytes += e.prop_data().size();
    }
  }
  // Same selectivity definition as the batch path, so sel= and the
  // plan-quality telemetry read identically under either engine.
  stats_.selectivity =
      input_rows > 0
          ? static_cast<double>(stats_.actual_rows) /
                static_cast<double>(input_rows)
          : 1.0;
  // Lifetime accounting, mirroring the static interval model: the own
  // output becomes resident while every input output still is (the "all
  // held" moment the model's final term prices), then the inputs die with
  // the `inputs` vector when this call returns. The root's output stays
  // charged until the engine resets the accountant.
  if (accountant.enabled()) {
    accountant.Charge(stats_.output_bytes);
    for (const PhysicalOperatorPtr& child : children_) {
      accountant.Release(child->stats().output_bytes);
    }
  }
  stats_.actual_peak_bytes = accountant.PopFrame();
  stats_.executed = true;
  stats_.total_wall_sec = total_timer.ElapsedSeconds();
  if (traced) {
    // The span covers the whole subtree execution, so operator spans nest
    // in the trace exactly like the plan tree (all on the driver row).
    tel.tracer().AddSpan(
        Describe(), telemetry::kCategoryOperator, span_begin_us,
        tel.tracer().NowMicros(), /*worker=*/-1,
        {{"rows", static_cast<double>(stats_.actual_rows)},
         {"estimated_rows", estimated_cardinality_},
         {"self_ms", stats_.self_wall_sec * 1e3}});
    tel.metrics().AddCounter("operator.count", 1);
    tel.metrics().AddCounter("operator.rows", stats_.actual_rows);
  }
  return out;
}

Result<BatchSet> PhysicalOperator::ExecuteBatch(const ExecEnv& env) {
  telemetry::Telemetry& tel = env.graph->context()->telemetry();
  const bool traced = tel.enabled();
  const double span_begin_us = traced ? tel.tracer().NowMicros() : 0.0;
  common::CancellationToken& cancel = env.graph->context()->cancellation();
  // Same boundary choreography as Execute (see there).
  if (cancel.CancelledOrExpired()) {
    return Status::ExecutionError("query cancelled at " + Describe());
  }
  // Identical frame choreography to Execute: the audit compares the same
  // byte currency against the same static bounds in both engines.
  dataflow::MemoryAccountant& accountant =
      env.graph->context()->accountant();
  accountant.PushFrame();
  auto unwind = [&](Status status) {
    if (accountant.enabled()) {
      for (const PhysicalOperatorPtr& child : children_) {
        if (child->stats().executed) {
          accountant.Release(child->stats().output_bytes);
        }
      }
    }
    accountant.PopFrame();
    return status;
  };
  Timer total_timer;
  std::vector<BatchSet> inputs;
  inputs.reserve(children_.size());
  uint64_t input_rows = 0;
  for (const PhysicalOperatorPtr& child : children_) {
    Result<BatchSet> input = child->ExecuteBatch(env);
    if (!input.ok()) return unwind(input.status());
    input_rows += child->stats().actual_rows;
    inputs.push_back(std::move(input).value());
  }
  const dataflow::CostTracker& tracker = env.graph->context()->tracker();
  const uint64_t network_before = tracker.NetworkBytes();
  const uint64_t spilled_before = tracker.SpilledBytes();
  Timer self_timer;
  Result<BatchSet> run = RunBatch(env, std::move(inputs));
  if (!run.ok()) return unwind(run.status());
  if (cancel.CancelledOrExpired()) {
    return unwind(
        Status::ExecutionError("query cancelled at " + Describe()));
  }
  BatchSet out = std::move(run).value();
  stats_.self_wall_sec = self_timer.ElapsedSeconds();
  stats_.network_bytes = tracker.NetworkBytes() - network_before;
  stats_.spilled_bytes = tracker.SpilledBytes() - spilled_before;
  for (int p = 0; p < out.data.num_partitions(); ++p) {
    // cancellation: stats byte walk (see Execute).
    for (const EmbeddingBatch& b : out.data.partition(p)) {
      ++stats_.batches;
      stats_.actual_rows += b.ActiveRows();
      stats_.output_bytes += b.SerializedSize();
      stats_.property_bytes += b.property_pool_bytes();
    }
  }
  stats_.selectivity =
      input_rows > 0
          ? static_cast<double>(stats_.actual_rows) /
                static_cast<double>(input_rows)
          : 1.0;
  if (accountant.enabled()) {
    accountant.Charge(stats_.output_bytes);
    for (const PhysicalOperatorPtr& child : children_) {
      accountant.Release(child->stats().output_bytes);
    }
  }
  stats_.actual_peak_bytes = accountant.PopFrame();
  stats_.executed = true;
  stats_.total_wall_sec = total_timer.ElapsedSeconds();
  if (traced) {
    tel.tracer().AddSpan(
        Describe(), telemetry::kCategoryOperator, span_begin_us,
        tel.tracer().NowMicros(), /*worker=*/-1,
        {{"rows", static_cast<double>(stats_.actual_rows)},
         {"estimated_rows", estimated_cardinality_},
         {"batches", static_cast<double>(stats_.batches)},
         {"self_ms", stats_.self_wall_sec * 1e3}});
    tel.metrics().AddCounter("operator.count", 1);
    tel.metrics().AddCounter("operator.rows", stats_.actual_rows);
    tel.metrics().AddCounter("batch.count", stats_.batches);
    tel.metrics().AddCounter("batch.rows", stats_.actual_rows);
  }
  return out;
}

std::string PhysicalOperator::ToString(const RenderOptions& options,
                                       int indent) const {
  std::string out(2 * static_cast<size_t>(indent), ' ');
  out += Describe();
  if (!fused_clauses_.empty()) {
    out += " +filter(" + ClauseList(fused_clauses_) + ")";
  }
  out += " ~" + CardString(estimated_cardinality_);
  out += " mem=" + std::to_string(properties_.memory.peak_bytes) + "B";
  if (options.actuals && stats_.executed) {
    out += "/" + std::to_string(stats_.actual_peak_bytes) + "B";
  }
  if (options.batch_size > 0) {
    out += " batch=" + std::to_string(options.batch_size);
  }
  if (options.actuals && stats_.executed) {
    out += " rows=" + std::to_string(stats_.actual_rows);
    // Plan quality inline: the cardinality Q-error of the estimate two
    // tokens to the left, and the measured selectivity — both engines.
    // batches= stays batch-only (the row engine produces none).
    char buf[48];
    std::snprintf(buf, sizeof(buf), " qerror=%.2f",
                  telemetry::QError(estimated_cardinality_,
                                    static_cast<double>(stats_.actual_rows)));
    out += buf;
    if (stats_.batches > 0) {
      std::snprintf(buf, sizeof(buf), " batches=%llu",
                    static_cast<unsigned long long>(stats_.batches));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), " sel=%.2f", stats_.selectivity);
    out += buf;
  }
  if (options.timing && stats_.executed) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  " self=%.3fms total=%.3fms net=%lluB spill=%lluB",
                  stats_.self_wall_sec * 1e3, stats_.total_wall_sec * 1e3,
                  static_cast<unsigned long long>(stats_.network_bytes),
                  static_cast<unsigned long long>(stats_.spilled_bytes));
    out += buf;
  }
  out += "\n";
  for (const PhysicalOperatorPtr& child : children_) {
    out += child->ToString(options, indent + 1);
  }
  return out;
}

// --- VertexScanOp ------------------------------------------------------

std::string VertexScanOp::Describe() const {
  std::string out = "ScanVertices(" + query_vertex_.variable;
  if (!query_vertex_.labels.empty()) {
    out += ":";
    for (size_t i = 0; i < query_vertex_.labels.size(); ++i) {
      if (i > 0) out += "|";
      out += query_vertex_.labels[i];
    }
  }
  return out + ")";
}

Result<EmbeddingSet> VertexScanOp::Run(const ExecEnv& env,
                                       std::vector<EmbeddingSet> inputs) {
  (void)inputs;
  return SelectAndProjectVertices(
      env.graph->VerticesOfLabels(query_vertex_.labels), query_vertex_,
      predicates_, output_meta_, fused_clauses_);
}

Result<BatchSet> VertexScanOp::RunBatch(const ExecEnv& env,
                                        std::vector<BatchSet> inputs) {
  (void)inputs;
  return ScanVerticesBatch(env.graph->VerticesOfLabels(query_vertex_.labels),
                           query_vertex_, predicates_, output_meta_,
                           fused_clauses_, env.batch_size);
}

// --- EdgeScanOp --------------------------------------------------------

std::string EdgeScanOp::Describe() const {
  std::string out = "ScanEdges(" + query_edge_.variable;
  if (!query_edge_.types.empty()) {
    out += ":";
    for (size_t i = 0; i < query_edge_.types.size(); ++i) {
      if (i > 0) out += "|";
      out += query_edge_.types[i];
    }
  }
  return out + ")";
}

Result<EmbeddingSet> EdgeScanOp::Run(const ExecEnv& env,
                                     std::vector<EmbeddingSet> inputs) {
  (void)inputs;
  // Recurring-subquery reuse: an identical edge scan (same types,
  // direction, predicates, projection — the signature excludes variable
  // names, on which the rows do not depend) executes once per query. The
  // cached dataset pairs with this operator's own compiled meta.
  if (env.scan_cache != nullptr && !signature_.empty()) {
    auto it = env.scan_cache->find(signature_);
    if (it != env.scan_cache->end()) {
      return EmbeddingSet{it->second, output_meta_};
    }
  }
  EmbeddingSet scanned = SelectAndProjectEdges(
      env.graph->EdgesOfTypes(query_edge_.types), query_edge_, predicates_,
      semantics_, self_loop_, output_meta_, fused_clauses_);
  if (env.scan_cache != nullptr && !signature_.empty()) {
    env.scan_cache->emplace(signature_, scanned.data);
  }
  return scanned;
}

Result<BatchSet> EdgeScanOp::RunBatch(const ExecEnv& env,
                                      std::vector<BatchSet> inputs) {
  (void)inputs;
  // Same recurring-subquery reuse as the row path, against the columnar
  // cache (the signature already excludes variable names).
  if (env.batch_scan_cache != nullptr && !signature_.empty()) {
    auto it = env.batch_scan_cache->find(signature_);
    if (it != env.batch_scan_cache->end()) {
      return BatchSet{it->second, output_meta_};
    }
  }
  BatchSet scanned = ScanEdgesBatch(
      env.graph->EdgesOfTypes(query_edge_.types), query_edge_, predicates_,
      semantics_, self_loop_, output_meta_, fused_clauses_,
      env.batch_size);
  if (env.batch_scan_cache != nullptr && !signature_.empty()) {
    env.batch_scan_cache->emplace(signature_, scanned.data);
  }
  return scanned;
}

// --- JoinOp ------------------------------------------------------------

std::string JoinOp::Describe() const {
  std::string out = "JoinEmbeddings(on ";
  if (join_variables_.empty()) {
    out += "<cartesian>";
  } else {
    out += CommaJoined(join_variables_);
  }
  out += strategy_ == dfl::JoinStrategy::kBroadcast ? ", broadcast"
                                                    : ", repartition";
  out += ElisionSuffix(elide_left_shuffle_, elide_right_shuffle_,
                       CommaJoined(join_variables_));
  return out + ")";
}

Result<EmbeddingSet> JoinOp::Run(const ExecEnv& env,
                                 std::vector<EmbeddingSet> inputs) {
  (void)env;
  return JoinEmbeddings(inputs[0], inputs[1], left_columns_, right_columns_,
                        output_meta_, semantics_, strategy_, fused_clauses_,
                        {elide_left_shuffle_, elide_right_shuffle_});
}

Result<BatchSet> JoinOp::RunBatch(const ExecEnv& env,
                                  std::vector<BatchSet> inputs) {
  return JoinBatches(inputs[0], inputs[1], left_columns_, right_columns_,
                     output_meta_, semantics_, strategy_, fused_clauses_,
                     {elide_left_shuffle_, elide_right_shuffle_},
                     env.batch_size);
}

// --- ValueJoinOp -------------------------------------------------------

std::string ValueJoinOp::Describe() const {
  std::string out = "ValueJoinEmbeddings(on " + CommaJoined(key_descriptions_);
  // Name the elided side's own key accesses (both sides elided reads best
  // with the full equality descriptions).
  std::string keys;
  if (elide_left_shuffle_ && elide_right_shuffle_) {
    keys = CommaJoined(key_descriptions_);
  } else if (elide_left_shuffle_) {
    keys = CommaJoined(ValueKeySideTokens(key_descriptions_, false));
  } else if (elide_right_shuffle_) {
    keys = CommaJoined(ValueKeySideTokens(key_descriptions_, true));
  }
  out += ElisionSuffix(elide_left_shuffle_, elide_right_shuffle_, keys);
  return out + ")";
}

Result<EmbeddingSet> ValueJoinOp::Run(const ExecEnv& env,
                                      std::vector<EmbeddingSet> inputs) {
  (void)env;
  return ValueJoinEmbeddings(inputs[0], inputs[1], left_key_columns_,
                             right_key_columns_, output_meta_, semantics_,
                             strategy_, fused_clauses_,
                             {elide_left_shuffle_, elide_right_shuffle_});
}

Result<BatchSet> ValueJoinOp::RunBatch(const ExecEnv& env,
                                       std::vector<BatchSet> inputs) {
  return ValueJoinBatches(inputs[0], inputs[1], left_key_columns_,
                          right_key_columns_, output_meta_, semantics_,
                          strategy_, fused_clauses_,
                          {elide_left_shuffle_, elide_right_shuffle_},
                          env.batch_size);
}

// --- ExpandOp ----------------------------------------------------------

std::string ExpandOp::Describe() const {
  return "ExpandEmbeddings(" + query_edge_.variable + "*" +
         std::to_string(query_edge_.lower_bound) + ".." +
         std::to_string(query_edge_.upper_bound) +
         (reverse_ ? ", reverse" : "") + ")";
}

Result<EmbeddingSet> ExpandOp::Run(const ExecEnv& env,
                                   std::vector<EmbeddingSet> inputs) {
  return ExpandEmbeddings(inputs[0],
                          *env.graph->Adjacency(query_edge_.types, reverse_),
                          start_column_, bound_end_column_, output_meta_,
                          query_edge_.lower_bound, query_edge_.upper_bound,
                          semantics_, fused_clauses_);
}

Result<BatchSet> ExpandOp::RunBatch(const ExecEnv& env,
                                    std::vector<BatchSet> inputs) {
  return ExpandBatches(inputs[0],
                       *env.graph->Adjacency(query_edge_.types, reverse_),
                       start_column_, bound_end_column_, output_meta_,
                       query_edge_.lower_bound, query_edge_.upper_bound,
                       semantics_, fused_clauses_, env.batch_size);
}

// --- FilterOp ----------------------------------------------------------

std::string FilterOp::Describe() const {
  return "SelectEmbeddings(" + ClauseList(clauses_) + ")";
}

Result<EmbeddingSet> FilterOp::Run(const ExecEnv& env,
                                   std::vector<EmbeddingSet> inputs) {
  (void)env;
  return SelectEmbeddings(inputs[0], clauses_);
}

Result<BatchSet> FilterOp::RunBatch(const ExecEnv& env,
                                    std::vector<BatchSet> inputs) {
  (void)env;
  return SelectBatches(inputs[0], clauses_);
}

}  // namespace gradoop::query::exec

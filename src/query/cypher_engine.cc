#include "query/cypher_engine.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "analysis/analyzer.h"
#include "analysis/diagnostics.h"
#include "analysis/plan_verifier.h"
#include "common/cancellation.h"
#include "common/timer.h"
#include "cypher/parser.h"
#include "dataflow/stage_charges.h"
#include "query/batch_operators.h"
#include "query/exec/interruptibility.h"
#include "query/exec/memory_bound.h"
#include "query/exec/plan_compiler.h"
#include "query/query_profile.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/query_log.h"

namespace gradoop::query {

namespace dfl = ::gradoop::dataflow;

namespace {

EmbeddingSet ApplyDistinct(const EmbeddingSet& input,
                           const cypher::QueryGraph& qg);
EmbeddingSet ApplyLimit(const EmbeddingSet& input, int64_t limit);

exec::CompileOptions CompileOptionsFrom(const PlannerOptions& planner,
                                        int num_workers,
                                        const GraphStatistics* statistics) {
  exec::CompileOptions options;
  options.fuse_filters = planner.fuse_filters;
  options.prune_properties = planner.prune_properties;
  options.share_scans = planner.share_scan_results;
  options.elide_shuffles = planner.elide_shuffles;
  options.num_workers = num_workers;
  options.statistics = statistics;
  return options;
}

// Planner options no execution can honor, rejected before parsing.
Status ValidatePlannerOptions(const PlannerOptions& options) {
  if (options.batch_size <= 0) {
    return Status::InvalidArgument(
        "PlannerOptions::batch_size must be positive, got " +
        std::to_string(options.batch_size));
  }
  return Status::Ok();
}

// The batch=<n> EXPLAIN renders on every operator under the batch
// engine; row-engine output carries none, so its goldens stay
// byte-stable.
int RenderedBatchSize(const PlannerOptions& options) {
  return options.engine == PlannerOptions::ExecutionEngine::kBatch
             ? options.batch_size
             : 0;
}

// GQL007 admission gate: when the engine carries a memory budget, a plan
// whose static peak bound exceeds it is rejected with a located
// diagnostic before Open() — no scan, shuffle or join ever runs.
Status CheckMemoryAdmission(const std::string& query,
                            const exec::PhysicalOperator& root,
                            uint64_t budget_bytes) {
  const uint64_t peak_bytes = root.properties().memory.peak_bytes;
  if (budget_bytes == 0 || peak_bytes <= budget_bytes) return Status::Ok();
  analysis::Diagnostic diag;
  diag.code = analysis::kCodeMemoryBudgetExceeded;
  diag.severity = analysis::Severity::kError;
  diag.message = "plan's static peak-memory bound (" +
                 std::to_string(peak_bytes) +
                 " bytes) exceeds max_query_memory_bytes (" +
                 std::to_string(budget_bytes) + " bytes)";
  // The bound belongs to the whole plan, so the diagnostic anchors at the
  // start of the query and underlines its first line.
  const size_t eol = query.find('\n');
  diag.span = {/*offset=*/0,
               /*length=*/eol == std::string::npos ? query.size() : eol,
               /*line=*/1, /*column=*/1};
  return Status::PlanError(analysis::RenderDiagnostic(diag, query));
}

// GQL008: a tripped cancellation token unwinds to a located diagnostic,
// the same shape as the GQL007 admission gate's so both terminal
// outcomes render identically. Cancellation belongs to the whole query,
// so the span anchors at its first line; the message attributes the trip
// to the engine phase that observed it, plus the tripping operator's own
// message when execution supplied one.
Status CancelledStatus(const std::string& query,
                       common::CancellationToken& token, const char* phase,
                       const std::string& detail) {
  analysis::Diagnostic diag;
  diag.code = analysis::kCodeQueryCancelled;
  diag.severity = analysis::Severity::kError;
  diag.message =
      std::string(token.reason() == common::CancelReason::kDeadline
                      ? "query timed out"
                      : "query cancelled") +
      " during " + phase + " phase";
  if (!detail.empty()) diag.message += " (" + detail + ")";
  const size_t eol = query.find('\n');
  diag.span = {/*offset=*/0,
               /*length=*/eol == std::string::npos ? query.size() : eol,
               /*line=*/1, /*column=*/1};
  return Status::ExecutionError(analysis::RenderDiagnostic(diag, query));
}

// Per-operator plan-quality telemetry, observed right after execution so
// the figures land in the same metrics snapshot the query profile
// captures: every operator's cardinality Q-error into the "plan.qerror"
// histogram (ratio bounds — most estimates land within a small factor),
// and, where both sides exist, the measured-peak / claimed-peak memory
// accuracy into "plan.mem.accuracy". Returns the plan's worst Q-error.
double ObservePlanQuality(const exec::PhysicalOperator& op,
                          telemetry::MetricsRegistry& metrics) {
  double max_qerror = telemetry::QError(
      op.estimated_cardinality(),
      static_cast<double>(op.stats().actual_rows));
  metrics.ObserveWith("plan.qerror", max_qerror,
                      telemetry::MetricsRegistry::RatioBounds());
  const uint64_t claimed_peak = op.properties().memory.peak_bytes;
  if (claimed_peak > 0 && op.stats().actual_peak_bytes > 0) {
    metrics.ObserveWith("plan.mem.accuracy",
                        static_cast<double>(op.stats().actual_peak_bytes) /
                            static_cast<double>(claimed_peak),
                        telemetry::MetricsRegistry::RatioBounds());
  }
  for (const exec::PhysicalOperatorPtr& child : op.children()) {
    const double child_qerror = ObservePlanQuality(*child, metrics);
    if (child_qerror > max_qerror) max_qerror = child_qerror;
  }
  return max_qerror;
}

}  // namespace

CypherEngine::CypherEngine(epgm::LogicalGraph graph,
                           PlannerOptions planner_options)
    : graph_(std::move(graph)),
      indexed_(epgm::IndexedLogicalGraph::Build(graph_)),
      stats_(GraphStatistics::Compute(graph_)),
      planner_options_(planner_options),
      audit_random_(exec::CancellationAuditSeed()) {}

void CypherEngine::Cancel() { cancellation().RequestCancel(); }

common::CancellationToken& CypherEngine::cancellation() {
  return graph_.vertices().context()->cancellation();
}

Result<CypherMatchResult> CypherEngine::Execute(
    const std::string& query, const MorphismSetting& semantics) {
  return ExecuteAudited(query, semantics, ResultForm::kRows);
}

Result<CypherMatchResult> CypherEngine::ExecuteAudited(
    const std::string& query, const MorphismSetting& semantics,
    ResultForm form) {
  GRADOOP_RETURN_IF_ERROR(ValidatePlannerOptions(planner_options_));
  if (exec::CancellationAuditEnabled() && audit_inject_checkpoint_ == 0) {
    // Audit probe (docs/cancellation.md): run the query once with the
    // token armed to trip at a randomized checkpoint count. If the trip
    // fires, the probe MUST unwind to an error — an injected cancel that
    // the engine swallows means some path ignores its token. Queries
    // that finish before the checkpoint simply never trip. The clean
    // re-run below gives the caller the real result either way.
    audit_inject_checkpoint_ = 1 + audit_random_.NextUint64(512);
    Result<CypherMatchResult> probe =
        ExecuteInternal(query, semantics, form);
    audit_inject_checkpoint_ = 0;
    common::CancellationToken& token = cancellation();
    const bool tripped = token.cancelled();
    exec::CancellationAuditStats::Instance().RecordInjection(tripped);
    if (tripped && probe.ok()) {
      std::fprintf(stderr,
                   "[gradoop] cancellation audit FAILED: injected cancel "
                   "(reason=%s, at poll %llu) was swallowed — the query "
                   "completed normally\n",
                   common::CancelReasonName(token.reason()),
                   static_cast<unsigned long long>(token.trip_poll()));
      std::abort();
    }
  }
  return ExecuteInternal(query, semantics, form);
}

Result<CypherMatchResult> CypherEngine::ExecuteInternal(
    const std::string& query, const MorphismSetting& semantics,
    ResultForm form) {
  dataflow::ExecutionContext& ctx = *graph_.vertices().context();
  telemetry::Telemetry& tel = ctx.telemetry();
  const bool traced = tel.enabled();
  const std::string engine_name =
      planner_options_.engine == PlannerOptions::ExecutionEngine::kBatch
          ? "batch"
          : "row";
  // Arm the cancellation window for this query: fresh token, then the
  // deadline (if any) and the audit's injected checkpoint (if probing).
  // Every kernel loop downstream polls this token (docs/cancellation.md).
  common::CancellationToken& cancel = ctx.cancellation();
  cancel.Reset();
  if (query_deadline_sec_ > 0.0) {
    cancel.SetDeadline(
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(query_deadline_sec_)));
  }
  if (audit_inject_checkpoint_ != 0) {
    cancel.InjectCancelAfter(audit_inject_checkpoint_);
  }
  std::vector<telemetry::PhaseProfile> phases;
  Timer total_timer;
  Timer phase_timer;
  double phase_begin_us = traced ? tel.tracer().NowMicros() : 0.0;
  // Closes the current phase: records its wall time and, when tracing,
  // emits a driver-row "query" span covering it.
  auto end_phase = [&](const char* name) {
    phases.push_back({name, phase_timer.ElapsedSeconds()});
    if (traced) {
      const double now_us = tel.tracer().NowMicros();
      tel.tracer().AddSpan(name, telemetry::kCategoryQuery, phase_begin_us,
                           now_us, /*worker=*/-1);
      phase_begin_us = now_us;
    }
    phase_timer.Restart();
  };
  // Terminal cancel path: counts and logs the cancellation (telemetry-on
  // only, like the success tail), then renders the GQL008 diagnostic.
  // `phase_name` is the engine phase during which the trip was observed.
  auto cancelled = [&](const char* phase_name, const std::string& detail,
                       uint64_t peak_memory_bytes) -> Status {
    if (traced) {
      tel.metrics().AddCounter("query.cancelled", 1);
      tel.metrics().ObserveWith(
          "query.cancel.latency_us", cancel.SecondsSinceTrip() * 1e6,
          telemetry::MetricsRegistry::MicroLatencyBounds());
      telemetry::QueryLogEntry entry;
      entry.query_hash = telemetry::QueryTextHash(query);
      entry.name = "q_" + entry.query_hash.substr(0, 8);
      entry.engine = engine_name;
      entry.total_wall_sec = total_timer.ElapsedSeconds();
      entry.peak_memory_bytes = peak_memory_bytes;
      entry.cancelled_phase = phase_name;
      entry.cancel_reason = common::CancelReasonName(cancel.reason());
      entry.phases = phases;
      // The phase being unwound never ended; record its partial time so
      // the log's phase list is never empty (the validator requires it).
      if (entry.phases.empty() || entry.phases.back().name != phase_name) {
        entry.phases.push_back({phase_name, phase_timer.ElapsedSeconds()});
      }
      ctx.query_log().Append(entry);
    }
    return CancelledStatus(query, cancel, phase_name, detail);
  };

  GRADOOP_ASSIGN_OR_RETURN(cypher::CypherQuery ast,
                           cypher::ParseCypher(query));
  end_phase("parse");
  if (cancel.CancelledOrExpired()) return cancelled("parse", "", 0);
  // Semantic analysis gate: scope/kind/bound errors reject the query with
  // located diagnostics; the surviving AST carries the constant-folded
  // WHERE, and statically unsatisfiable queries skip planning entirely.
  analysis::AnalyzerOptions analyzer_options;
  analyzer_options.statistics = &stats_;
  analyzer_options.semantics = semantics;
  const analysis::AnalysisResult sema =
      analysis::AnalyzeQuery(ast, analyzer_options);
  if (sema.HasErrors()) return Status::PlanError(sema.ErrorSummary());
  ast.where = sema.folded_where;
  GRADOOP_ASSIGN_OR_RETURN(cypher::QueryGraph qg,
                           cypher::QueryGraph::Build(ast));
  end_phase("analyze");
  if (cancel.CancelledOrExpired()) return cancelled("analyze", "", 0);
  if (sema.unsatisfiable || qg.unsatisfiable()) {
    // Statically empty match set (contradictory labels or predicates): no
    // plan is built, compiled or executed.
    CypherMatchResult result;
    result.query_graph = std::move(qg);
    result.embeddings = {
        dfl::Dataset<Embedding>::Empty(graph_.vertices().context()),
        EmbeddingMetaData()};
    result.phases = std::move(phases);
    result.total_wall_sec = total_timer.ElapsedSeconds();
    result.engine = engine_name;
    // Disarm before returning: a deadline left armed would trip polls in
    // unrelated dataflow work after the query (e.g. Match()'s collection
    // build) and silently truncate it.
    cancel.Reset();
    return result;
  }
  GRADOOP_ASSIGN_OR_RETURN(PlanNodePtr plan,
                           PlanQuery(qg, stats_, planner_options_));
  // Invariant gate on the logical plan: structural soundness always,
  // predicate type checking in debug builds. A failure here is a planner
  // bug, not a user error.
  GRADOOP_RETURN_IF_ERROR(analysis::VerifyPlan(qg, plan));
  end_phase("plan");
  if (cancel.CancelledOrExpired()) return cancelled("plan", "", 0);
  // Lower to physical operators: the compiler resolves every column
  // layout, join key and property slot once and derives the plan
  // properties; the second gate asserts the compiled layouts are mutually
  // consistent before anything runs.
  const int num_workers = graph_.vertices().context()->num_workers();
  exec::PlanCompiler compiler(
      qg, semantics,
      CompileOptionsFrom(planner_options_, num_workers, &stats_));
  GRADOOP_ASSIGN_OR_RETURN(exec::PhysicalOperatorPtr physical,
                           compiler.Compile(plan));
  GRADOOP_RETURN_IF_ERROR(analysis::VerifyCompiledPlan(qg, *physical));
  // Admission control: the static bound gates execution (docs/memory.md).
  GRADOOP_RETURN_IF_ERROR(
      CheckMemoryAdmission(query, *physical, max_query_memory_bytes_));
  end_phase("compile");
  if (cancel.CancelledOrExpired()) return cancelled("compile", "", 0);
  ScanCache scan_cache;
  BatchScanCache batch_scan_cache;
  const bool share_scans = planner_options_.share_scan_results;
  exec::ExecEnv env{&indexed_, share_scans ? &scan_cache : nullptr,
                    share_scans ? &batch_scan_cache : nullptr,
                    planner_options_.batch_size};
  // Per-query accounting window: reset-enable around the execution so the
  // peaks belong to this query alone; the guard disables on every exit
  // path (a failed Open/Execute must not leave a stale enabled accountant
  // charging unrelated dataflow work).
  dfl::MemoryAccountant& accountant =
      graph_.vertices().context()->accountant();
  accountant.Reset();
  if (account_memory_) accountant.Enable();
  struct AccountantGuard {
    dfl::MemoryAccountant* accountant;
    ~AccountantGuard() { accountant->Disable(); }
  } accountant_guard{&accountant};
  GRADOOP_RETURN_IF_ERROR(physical->Open(env));
  // Both engines run the same compiled (and verified) plan. The batch
  // engine flows columnar EmbeddingBatches through every operator and
  // converts back to rows once at the root — outside any operator's
  // accounting frame — so DISTINCT/LIMIT and the result surface stay
  // row-based and byte-identical either way (docs/vectorized.md). A
  // count-only caller needs no rows: unless DISTINCT or LIMIT needs
  // their keys, the batch root's active rows are summed in place and the
  // batches dropped, charged exactly as the conversion would have been.
  const bool batch_engine =
      planner_options_.engine == PlannerOptions::ExecutionEngine::kBatch;
  const bool count_in_place = form == ResultForm::kCount && batch_engine &&
                              !qg.return_distinct() && qg.limit() < 0;
  EmbeddingSet embeddings;
  uint64_t matches = 0;
  auto run_root = [&]() -> Status {
    if (!batch_engine) {
      GRADOOP_ASSIGN_OR_RETURN(embeddings, physical->Execute(env));
      return Status::Ok();
    }
    GRADOOP_ASSIGN_OR_RETURN(BatchSet batches, physical->ExecuteBatch(env));
    if (count_in_place) {
      matches = CountBatchRows(batches);
    } else {
      embeddings = BatchesToRows(batches);
    }
    return Status::Ok();
  };
  // Execution unwind: the operator that observed the trip returned an
  // error, which converts to GQL008 only when the token actually tripped
  // (other failures pass through untouched). The injected-cancel audit
  // runs here, while the compiled plan is still alive and the accountant
  // still holds this query's window.
  auto cancelled_execute = [&](const std::string& detail) -> Status {
    if (physical->stats().executed) {
      // The root produced its output before a later boundary observed the
      // trip; release it so the audit sees a drained accountant.
      accountant.Release(physical->stats().output_bytes);
    }
    if (exec::CancellationAuditEnabled()) {
      exec::AuditCancelledQuery(*physical, ctx);
    }
    const uint64_t cancelled_peak = accountant.peak_bytes();
    accountant.Disable();
    return cancelled("execute", detail, cancelled_peak);
  };
  const Status run = run_root();
  if (!run.ok()) {
    if (cancel.cancelled()) return cancelled_execute(run.message());
    return run;
  }
  if (!count_in_place) {
    if (qg.return_distinct()) embeddings = ApplyDistinct(embeddings, qg);
    if (qg.limit() >= 0) embeddings = ApplyLimit(embeddings, qg.limit());
    // Partition sizes are read directly; Dataset::Count() would charge
    // the tracker a stage the query never ran.
    for (int p = 0; p < embeddings.data.num_partitions(); ++p) {
      matches += embeddings.data.partition(p).size();
    }
  }
  if (cancel.CancelledOrExpired()) return cancelled_execute("");
  accountant.Disable();
  if (traced) {
    tel.metrics().SetGauge("memory.bytes.peak",
                           static_cast<double>(accountant.peak_bytes()));
    tel.metrics().SetGauge("memory.bytes.current",
                           static_cast<double>(accountant.current_bytes()));
  }
  // Runtime audit (CI): measured per-operator peaks vs the static model.
  // Aborts the process on a violation — see memory_bound.h.
  if (exec::MemoryAuditEnabled()) {
    exec::AuditCompiledPlanMemory(*physical, num_workers);
  }
  end_phase("execute");
  CypherMatchResult result;
  result.query_graph = std::move(qg);
  result.plan = std::move(plan);
  result.physical = std::move(physical);
  result.embeddings = std::move(embeddings);
  result.matches = matches;
  result.phases = std::move(phases);
  result.total_wall_sec = total_timer.ElapsedSeconds();
  result.engine = engine_name;
  // Disarm before the observability tail and the caller's follow-up
  // dataflow work (e.g. Match()'s collection build): a deadline left
  // armed would trip their polls and silently truncate results.
  cancel.Reset();
  if (traced) {
    // Observability tail, telemetry-on only: plan-quality metrics first
    // (so they land in the snapshot the profile captures), then the
    // profile itself into the flight recorder and the query log.
    const double max_qerror =
        ObservePlanQuality(*result.physical, tel.metrics());
    tel.metrics().SetGauge("plan.qerror.max", max_qerror);
    for (const telemetry::PhaseProfile& phase : result.phases) {
      tel.metrics().ObserveWith(
          "phase.wall_us." + phase.name, phase.wall_sec * 1e6,
          telemetry::MetricsRegistry::MicroLatencyBounds());
    }
    telemetry::QueryProfile profile = BuildQueryProfile(
        "q_" + telemetry::QueryTextHash(query).substr(0, 8), query, result,
        ctx);
    ctx.query_log().Record(profile);
    ctx.flight_recorder().Record(std::move(profile));
  }
  return result;
}

Result<epgm::GraphCollection> CypherEngine::Match(
    const std::string& query, const MorphismSetting& semantics) {
  GRADOOP_ASSIGN_OR_RETURN(CypherMatchResult result,
                           Execute(query, semantics));
  return BuildMatchCollection(graph_, result.query_graph, result.embeddings);
}

Result<uint64_t> CypherEngine::Count(const std::string& query,
                                     const MorphismSetting& semantics) {
  GRADOOP_ASSIGN_OR_RETURN(
      CypherMatchResult result,
      ExecuteAudited(query, semantics, ResultForm::kCount));
  // The count stage Dataset::Count() charges over the result rows: the
  // paper's reported runtimes include the count.
  dfl::ChargeUniformNarrow(*graph_.vertices().context(), "Count",
                           result.matches, 0);
  return result.matches;
}

Result<std::string> CypherEngine::Explain(const std::string& query,
                                          const MorphismSetting& semantics) {
  GRADOOP_RETURN_IF_ERROR(ValidatePlannerOptions(planner_options_));
  GRADOOP_ASSIGN_OR_RETURN(cypher::CypherQuery ast,
                           cypher::ParseCypher(query));
  analysis::AnalyzerOptions analyzer_options;
  analyzer_options.statistics = &stats_;
  analyzer_options.semantics = semantics;
  const analysis::AnalysisResult sema =
      analysis::AnalyzeQuery(ast, analyzer_options);
  if (sema.HasErrors()) return Status::PlanError(sema.ErrorSummary());
  ast.where = sema.folded_where;
  GRADOOP_ASSIGN_OR_RETURN(cypher::QueryGraph qg,
                           cypher::QueryGraph::Build(ast));
  if (sema.unsatisfiable || qg.unsatisfiable()) {
    return std::string("EmptyResult (unsatisfiable)\n");
  }
  GRADOOP_ASSIGN_OR_RETURN(PlanNodePtr plan,
                           PlanQuery(qg, stats_, planner_options_));
  GRADOOP_RETURN_IF_ERROR(analysis::VerifyPlan(qg, plan));
  // EXPLAIN shows what would run, so it renders the compiled plan (fused
  // filters, pruned projections and all), verified like a real execution —
  // including the admission gate, so a budgeted engine EXPLAINs the same
  // rejection Execute() would produce.
  const int num_workers = graph_.vertices().context()->num_workers();
  exec::PlanCompiler compiler(
      qg, semantics,
      CompileOptionsFrom(planner_options_, num_workers, &stats_));
  GRADOOP_ASSIGN_OR_RETURN(exec::PhysicalOperatorPtr physical,
                           compiler.Compile(plan));
  GRADOOP_RETURN_IF_ERROR(analysis::VerifyCompiledPlan(qg, *physical));
  GRADOOP_RETURN_IF_ERROR(
      CheckMemoryAdmission(query, *physical, max_query_memory_bytes_));
  return physical->ToString({.batch_size = RenderedBatchSize(planner_options_)});
}

Result<std::string> CypherEngine::ExplainAnalyze(
    const std::string& query, const MorphismSetting& semantics) {
  GRADOOP_ASSIGN_OR_RETURN(CypherMatchResult result,
                           Execute(query, semantics));
  if (result.physical == nullptr) {
    return std::string("EmptyResult (unsatisfiable)\n");
  }
  return result.physical->ToString({.actuals = true,
                                    .timing = true,
                                    .batch_size = RenderedBatchSize(planner_options_)});
}

namespace {

// RETURN DISTINCT: deduplicates embeddings on the projected row — the
// returned bindings/values for explicit items, or every variable binding
// for `RETURN *`.
std::string DistinctKeyOf(const Embedding& e, const EmbeddingMetaData& meta,
                          const cypher::QueryGraph& qg) {
  std::string key;
  auto append_binding = [&](const std::string& var) {
    const int c = meta.IdColumn(var);
    if (c < 0) return;
    if (e.IsPathEntry(c)) {
      for (uint64_t id : e.PathAt(c)) {
        key.append(reinterpret_cast<const char*>(&id), 8);
      }
      key.push_back('\1');
    } else {
      const uint64_t id = e.IdAt(c);
      key.append(reinterpret_cast<const char*>(&id), 8);
    }
    key.push_back('\0');
  };
  if (qg.return_all()) {
    for (const std::string& var : meta.Variables()) append_binding(var);
    return key;
  }
  for (const cypher::ReturnItem& item : qg.return_items()) {
    if (item.IsPropertyAccess()) {
      const int c = meta.PropertyColumn(item.variable, item.property_key);
      if (c >= 0) e.PropertyAt(c).EncodeTo(&key);
      key.push_back('\0');
    } else {
      append_binding(item.variable);
    }
  }
  return key;
}

EmbeddingSet ApplyDistinct(const EmbeddingSet& input,
                           const cypher::QueryGraph& qg) {
  const EmbeddingMetaData meta = input.meta;
  auto data = input.data.Distinct(
      [meta, &qg](const Embedding& e) { return DistinctKeyOf(e, meta, qg); },
      "ReturnDistinct");
  return {std::move(data), input.meta};
}

// LIMIT n: keeps the first n embeddings. Like Flink/Spark, the limit
// gathers to the driver (result sets under a LIMIT are small by intent)
// and redistributes the survivors.
EmbeddingSet ApplyLimit(const EmbeddingSet& input, int64_t limit) {
  std::vector<Embedding> rows = input.data.Collect();
  if (static_cast<int64_t>(rows.size()) > limit) {
    rows.resize(static_cast<size_t>(limit));
  }
  auto data = dfl::Dataset<Embedding>::FromVector(input.data.context(),
                                                  std::move(rows));
  return {std::move(data), input.meta};
}

// Intermediate record when materializing the match collection.
struct MatchedGraph {
  epgm::GraphHead head;
  std::vector<uint64_t> vertex_ids;
  std::vector<uint64_t> edge_ids;

  size_t SerializedSize() const {
    return head.SerializedSize() + 2 * sizeof(uint32_t) +
           8 * (vertex_ids.size() + edge_ids.size());
  }
};

}  // namespace

epgm::GraphCollection BuildMatchCollection(
    const epgm::LogicalGraph& graph, const cypher::QueryGraph& query_graph,
    const EmbeddingSet& embeddings) {
  const EmbeddingMetaData meta = embeddings.meta;

  // Variables whose bindings become head properties.
  std::vector<cypher::ReturnItem> items;
  if (query_graph.return_all()) {
    for (const std::string& var : meta.Variables()) {
      if (var.rfind("  __", 0) == 0) continue;  // anonymous elements
      cypher::ReturnItem item;
      item.variable = var;
      items.push_back(std::move(item));
    }
  } else {
    items = query_graph.return_items();
  }

  // New graph heads get ids disjoint from the data graph's id space:
  // partition-deterministic (partition index in the top bits).
  constexpr uint64_t kMatchIdBase = 1ull << 48;
  auto matched = embeddings.data.MapPartition<MatchedGraph>(
      [meta, items](int partition, const std::vector<Embedding>& in,
                    std::vector<MatchedGraph>* out) {
        out->reserve(in.size());
        uint64_t seq = 0;
        for (const Embedding& e : in) {
          MatchedGraph m;
          m.head.id = kMatchIdBase +
                      (static_cast<uint64_t>(partition) << 32) + seq++;
          m.head.label = "MatchResult";
          for (const cypher::ReturnItem& item : items) {
            const std::string name =
                item.alias.empty()
                    ? (item.IsPropertyAccess()
                           ? item.variable + "." + item.property_key
                           : item.variable)
                    : item.alias;
            if (item.IsPropertyAccess()) {
              const int c =
                  meta.PropertyColumn(item.variable, item.property_key);
              m.head.properties.Set(name, c >= 0
                                              ? e.PropertyAt(c)
                                              : epgm::PropertyValue::Null());
            } else {
              const int c = meta.IdColumn(item.variable);
              if (c < 0) continue;
              if (e.IsPathEntry(c)) {
                m.head.properties.Set(name, epgm::PropertyValue(e.PathAt(c)));
              } else {
                m.head.properties.Set(
                    name,
                    epgm::PropertyValue(static_cast<int64_t>(e.IdAt(c))));
              }
            }
          }
          for (int c : meta.VertexColumns()) m.vertex_ids.push_back(e.IdAt(c));
          for (int c : meta.EdgeColumns()) m.edge_ids.push_back(e.IdAt(c));
          for (int c : meta.PathColumns()) {
            const std::vector<uint64_t> via = e.PathAt(c);
            for (size_t i = 0; i < via.size(); ++i) {
              // Alternating edge/vertex ids, starting with an edge.
              (i % 2 == 0 ? m.edge_ids : m.vertex_ids).push_back(via[i]);
            }
          }
          out->push_back(std::move(m));
        }
      },
      "BuildMatchGraphs");

  auto heads = matched.Map(
      [](const MatchedGraph& m) { return m.head; }, "MatchHeads");

  // Membership pairs (element id -> head id), grouped per element.
  using IdPair = std::pair<uint64_t, uint64_t>;
  auto vertex_pairs = matched.FlatMap<IdPair>(
      [](const MatchedGraph& m, std::vector<IdPair>* out) {
        for (uint64_t id : m.vertex_ids) out->emplace_back(id, m.head.id);
      },
      "VertexMembership");
  auto edge_pairs = matched.FlatMap<IdPair>(
      [](const MatchedGraph& m, std::vector<IdPair>* out) {
        for (uint64_t id : m.edge_ids) out->emplace_back(id, m.head.id);
      },
      "EdgeMembership");

  auto group = [](const IdPair& p) { return p.first; };
  auto init = [](const IdPair& p) { return std::vector<uint64_t>{p.second}; };
  auto fold = [](std::vector<uint64_t> acc, const IdPair& p) {
    acc.push_back(p.second);
    return acc;
  };
  auto vertex_groups =
      vertex_pairs.ReduceByKey(group, init, fold, "GroupVertexMembership");
  auto edge_groups =
      edge_pairs.ReduceByKey(group, init, fold, "GroupEdgeMembership");

  // Attach membership to the matched elements (elements that match no
  // embedding do not appear in the result collection).
  auto vertices = graph.vertices().HashJoin<epgm::Vertex>(
      vertex_groups, [](const epgm::Vertex& v) { return v.id; },
      [](const std::pair<uint64_t, std::vector<uint64_t>>& g) {
        return g.first;
      },
      [](const epgm::Vertex& v,
         const std::pair<uint64_t, std::vector<uint64_t>>& g,
         std::vector<epgm::Vertex>* out) {
        epgm::Vertex copy = v;
        copy.graph_ids.insert(copy.graph_ids.end(), g.second.begin(),
                              g.second.end());
        out->push_back(std::move(copy));
      },
      dfl::JoinStrategy::kRepartition, "AttachVertexMembership");
  auto edges = graph.edges().HashJoin<epgm::Edge>(
      edge_groups, [](const epgm::Edge& e) { return e.id; },
      [](const std::pair<uint64_t, std::vector<uint64_t>>& g) {
        return g.first;
      },
      [](const epgm::Edge& e,
         const std::pair<uint64_t, std::vector<uint64_t>>& g,
         std::vector<epgm::Edge>* out) {
        epgm::Edge copy = e;
        copy.graph_ids.insert(copy.graph_ids.end(), g.second.begin(),
                              g.second.end());
        out->push_back(std::move(copy));
      },
      dfl::JoinStrategy::kRepartition, "AttachEdgeMembership");

  return epgm::GraphCollection(std::move(heads), std::move(vertices),
                               std::move(edges));
}

}  // namespace gradoop::query

#ifndef GRADOOP_QUERY_EXEC_PLAN_COMPILER_H_
#define GRADOOP_QUERY_EXEC_PLAN_COMPILER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "cypher/query_graph.h"
#include "query/exec/physical_operator.h"
#include "query/plan.h"

namespace gradoop::query {
class GraphStatistics;
}  // namespace gradoop::query

namespace gradoop::query::exec {

// Compile-time passes applied while lowering the logical plan.
struct CompileOptions {
  // Fuse kFilter nodes into their input operator: the clauses evaluate
  // inside the child kernel's emission loop (after the merge and morphism
  // check), skipping a dataflow stage per filter.
  bool fuse_filters = true;
  // Project only the properties some downstream consumer reads — cross
  // predicates, value-join keys and RETURN items. Element-centric
  // predicates evaluate on the raw element inside the scan and need no
  // embedding column, so their properties are dropped from the byte-array
  // embeddings (§3.3 exists to keep them small).
  bool prune_properties = true;
  // Compute edge-scan data signatures so EdgeScanOp can reuse identical
  // scans through the ScanCache (PlannerOptions::share_scan_results).
  bool share_scans = false;
  // Grant shuffle elisions from the partitioning analysis: a repartition
  // join side whose input is provably hash-partitioned on the join key
  // skips its shuffle. Partitioning properties are derived regardless;
  // this only gates acting on them (ablation / A-B testing).
  bool elide_shuffles = true;
  // Worker count the memory analysis prices broadcast replication at;
  // must equal the executing ClusterConfig::num_workers (the engine
  // passes its context's value; the default matches ClusterConfig's).
  int num_workers = 4;
  // Graph statistics for the memory analysis' expand transfer function
  // (how many edge rows each expansion hop stages). Null compiles fine —
  // the estimate is 0 and only the audited/budgeted paths care.
  const GraphStatistics* statistics = nullptr;
};

// The one bottom-up pass over a compiled tree: visits the children
// first, then grants `root`'s shuffle elisions from the children's
// partitioning (when options.elide_shuffles) and derives its
// PlanProperties — partitioning, memory bound and interruptibility, in
// that order. PlanCompiler::Compile runs it on every plan; trees built by
// hand call it directly. Reads options.num_workers and
// options.elide_shuffles.
void DerivePlanProperties(PhysicalOperator& root,
                          const CompileOptions& options);

// Lowers a logical PlanNode tree into compiled physical operators,
// resolving every operator's output EmbeddingMetaData, join key columns
// and property slots exactly once. This is the single source of truth for
// column layouts: the kernels in query/operators.h execute against the
// layouts compiled here and never derive their own, and
// analysis::VerifyCompiledPlan asserts the compiled layouts are mutually
// consistent before anything runs.
class PlanCompiler {
 public:
  PlanCompiler(const cypher::QueryGraph& query_graph,
               const MorphismSetting& semantics, CompileOptions options = {});

  // Compiles the tree rooted at `plan` and derives its PlanProperties.
  // Fails with Status::Internal when the plan references columns the
  // compiled layouts cannot provide (a planner bug, caught before
  // execution).
  Result<PhysicalOperatorPtr> Compile(const PlanNodePtr& plan);

 private:
  // Properties projected for `variable` under the active pruning mode.
  std::set<std::string> ProjectionFor(const std::string& variable) const;
  void CollectNeeded(const PlanNodePtr& node);

  Result<PhysicalOperatorPtr> CompileNode(
      const PlanNodePtr& node, std::vector<cypher::CnfClause> residual,
      double residual_estimate);

  // Every property a clause set reads must resolve in `meta`.
  Status CheckClauses(const char* op,
                      const std::vector<cypher::CnfClause>& clauses,
                      const EmbeddingMetaData& meta) const;

  std::string EdgeScanSignature(
      const cypher::QueryEdge& query_edge, bool self_loop,
      const std::set<std::string>& projection,
      const std::vector<cypher::CnfClause>& fused) const;

  const cypher::QueryGraph& qg_;
  MorphismSetting semantics_;
  CompileOptions options_;
  // Pruned projection per variable, collected once per Compile() from the
  // plan's filters and value joins plus the query's RETURN items.
  std::map<std::string, std::set<std::string>> needed_;
};

}  // namespace gradoop::query::exec

#endif  // GRADOOP_QUERY_EXEC_PLAN_COMPILER_H_

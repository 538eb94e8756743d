#ifndef GRADOOP_QUERY_PLANNER_H_
#define GRADOOP_QUERY_PLANNER_H_

#include "common/result.h"
#include "query/embedding_batch.h"
#include "query/graph_statistics.h"
#include "query/plan.h"

namespace gradoop::query {

// Planner knobs; defaults correspond to the paper's greedy planner, the
// alternatives exist for the ablation benchmarks.
struct PlannerOptions {
  enum class Mode {
    kGreedy,    // §3.2: bushy plan minimizing estimated intermediate size
    kLeftDeep,  // textual order, left-deep joins (ablation baseline)
    // Exhaustive dynamic programming over the scan units (optimal bushy
    // join order under the cost model); expansions and filters attach
    // afterwards. Falls back to greedy beyond kDpUnitLimit units.
    kDynamicProgramming,
  };

  // Unit-count cap for the DP enumeration (2^n subsets).
  static constexpr int kDpUnitLimit = 14;
  Mode mode = Mode::kGreedy;

  // A join build side whose estimated cardinality is below this threshold
  // (and below the probe side) is broadcast instead of repartitioned.
  double broadcast_threshold = 1000.0;
  // Disables broadcast joins entirely (ablation).
  bool allow_broadcast = true;

  // Reuse the result of identical edge scans within one query (the
  // paper's future-work item on recurring subqueries): Query 6 scans
  // hasInterest three times; with sharing it is scanned once.
  bool share_scan_results = false;

  // Compile-time passes applied by exec::PlanCompiler when lowering the
  // logical plan (ablation knobs; see exec/plan_compiler.h).
  bool fuse_filters = true;
  bool prune_properties = true;
  // Partitioning analysis (exec/partitioning.h): elide repartition-join
  // shuffles of inputs provably hash-partitioned on the join key, and
  // break join-order cost ties toward the shuffle-free candidate. Off =
  // ablation baseline for the elision A/B tests.
  bool elide_shuffles = true;

  // Execution engine: row-at-a-time Embedding kernels (the default), or
  // the columnar EmbeddingBatch kernels (docs/vectorized.md). Both
  // execute the same compiled plan and produce byte-identical results;
  // batch_size is the rows-per-batch capacity the vectorized kernels
  // build to; it must be positive (Execute and Explain reject anything
  // else) and EXPLAIN renders it as batch=<n> under the batch engine.
  enum class ExecutionEngine {
    kRow,
    kBatch,
  };
  ExecutionEngine engine = ExecutionEngine::kRow;
  int batch_size = exec::kDefaultBatchSize;

  // Default selectivity assumed per predicate clause, by comparison class.
  double equality_selectivity = 0.05;
  double range_selectivity = 0.25;
  double inequality_selectivity = 0.9;

  // Run analysis::PlanVerifier over every combined partial plan during the
  // search (defaults on in debug builds). Catches bookkeeping bugs at the
  // combination step that introduces them instead of at execution time;
  // the final plan is verified by the engine regardless.
#ifdef NDEBUG
  bool verify_candidates = false;
#else
  bool verify_candidates = true;
#endif
};

// Builds a physical plan for `query_graph` over a graph described by
// `stats`. Follows the paper's greedy approach: decompose the query into
// vertex/edge scan units, then iteratively combine the pair of partial
// plans whose join (or variable-length expansion) has the smallest
// estimated output cardinality, until one plan covers the whole query.
// Cross-variable filters attach as soon as their variables are bound.
Result<PlanNodePtr> PlanQuery(const cypher::QueryGraph& query_graph,
                              const GraphStatistics& stats,
                              const PlannerOptions& options = {});

// Cardinality estimation helpers (exposed for tests and ablations).
double EstimateScanCardinality(const cypher::QueryGraph& query_graph,
                               const GraphStatistics& stats,
                               const PlannerOptions& options,
                               const std::string& variable, bool is_vertex);

}  // namespace gradoop::query

#endif  // GRADOOP_QUERY_PLANNER_H_

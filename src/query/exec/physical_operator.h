#ifndef GRADOOP_QUERY_EXEC_PHYSICAL_OPERATOR_H_
#define GRADOOP_QUERY_EXEC_PHYSICAL_OPERATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "cypher/query_graph.h"
#include "dataflow/dataset.h"
#include "epgm/indexed_logical_graph.h"
#include "query/batch_operators.h"
#include "query/embedding_meta_data.h"
#include "query/exec/interruptibility.h"
#include "query/exec/memory_bound.h"
#include "query/exec/partitioning.h"
#include "query/match_semantics.h"
#include "query/operators.h"

namespace gradoop::query {

// Cache of edge-scan results within one query execution, keyed by the
// scan's data signature (types, direction, predicates, projection) —
// variable names are excluded since the embedding rows do not depend on
// them. Implements the paper's recurring-subquery reuse
// (PlannerOptions::share_scan_results).
using ScanCache = std::map<std::string, dataflow::Dataset<Embedding>>;

// The batch engine's counterpart, caching columnar edge-scan results
// under the same signatures (the two caches never mix representations).
using BatchScanCache = std::map<std::string, dataflow::Dataset<EmbeddingBatch>>;

namespace exec {

// Runtime statistics one compiled operator records per execution — the
// actual counterpart of the planner's estimates (Fig. 6 reports both).
struct OperatorStats {
  bool executed = false;
  uint64_t actual_rows = 0;     // output cardinality
  // Number of column batches produced — batch-engine execution only;
  // zero under the row engine, which is how the renderer tells the two
  // apart.
  uint64_t batches = 0;
  // Output rows per input row (1.0 on leaves), recorded by BOTH engines
  // so plan-quality telemetry is engine-agnostic.
  double selectivity = 0.0;
  // Wall time of this operator's own kernel (Run + stats collection),
  // excluding the children's Execute calls...
  double self_wall_sec = 0.0;
  // ...versus the cumulative time of the whole subtree rooted here. The
  // two are reported side by side so a parent is never misread as slow
  // when the time was really spent below it.
  double total_wall_sec = 0.0;
  uint64_t network_bytes = 0;   // shuffle bytes charged while it ran
  uint64_t spilled_bytes = 0;   // spill bytes charged while it ran
  uint64_t output_bytes = 0;    // serialized size of the output embeddings
  uint64_t property_bytes = 0;  // property payload share of output_bytes
  // Measured resident peak of this operator's subtree (accountant frame
  // delta; dataflow/memory_accountant.h). 0 when accounting was off. The
  // runtime counterpart of MemoryBound::peak_bytes.
  uint64_t actual_peak_bytes = 0;
};

// Everything an operator needs at run time. Column layouts are NOT here:
// they were resolved at compile time and live inside each operator.
struct ExecEnv {
  const epgm::IndexedLogicalGraph* graph = nullptr;
  ScanCache* scan_cache = nullptr;  // non-null enables edge-scan sharing
  // Batch-engine scan sharing; only consulted by ExecuteBatch.
  BatchScanCache* batch_scan_cache = nullptr;
  // Rows per column batch the vectorized kernels build to; only
  // ExecuteBatch reads it.
  int batch_size = kDefaultBatchSize;
};

// The static properties of the subtree rooted at one compiled operator,
// computed once by DerivePlanProperties (plan_compiler.h) and read-only
// afterwards. The GRADOOP_AUDIT_* runtime audits check them against the
// execution. Default-constructed properties have an unbounded
// checkpoint interval, so VerifyCompiledPlan rejects a tree that skipped
// the pass.
struct PlanProperties {
  PartitioningProperty partitioning;  // output layout across workers
  MemoryBound memory;                 // subtree footprint
  Interruptibility interruptibility;  // subtree checkpoint interval
};

enum class PhysOpKind {
  kVertexScan,
  kEdgeScan,
  kJoin,
  kValueJoin,
  kExpand,
  kFilter,
};

class PhysicalOperator;
using PhysicalOperatorPtr = std::shared_ptr<PhysicalOperator>;
struct CompileOptions;

// One compiled operator of a physical plan. Produced by PlanCompiler,
// which resolves the output EmbeddingMetaData, key columns and property
// slots once; Run() only executes the corresponding kernel. Execute()
// additionally drives the children and records OperatorStats, so
// estimated-vs-actual cardinalities can be rendered per operator
// (CypherEngine::ExplainAnalyze).
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  virtual PhysOpKind op_kind() const = 0;
  // Stable operator name matching analysis::PlanKindName.
  virtual const char* name() const = 0;
  // One-line description without cardinalities ("JoinEmbeddings(on a,
  // repartition)").
  virtual std::string Describe() const = 0;

  // Prepares the tree for one execution: validates the environment and
  // clears previous statistics, recursively.
  Status Open(const ExecEnv& env);

  // Executes children, then this operator's kernel, recording statistics.
  Result<EmbeddingSet> Execute(const ExecEnv& env);

  // Columnar execution of the same compiled plan: children and kernel run
  // batch-at-a-time (RunBatch), with identical accounting choreography —
  // frames, charges and counter deltas — so memory audits and admission
  // hold unchanged. Additionally records batches and selectivity.
  Result<BatchSet> ExecuteBatch(const ExecEnv& env);

  const EmbeddingMetaData& output_meta() const { return output_meta_; }
  double estimated_cardinality() const { return estimated_cardinality_; }
  const MorphismSetting& semantics() const { return semantics_; }
  const std::vector<cypher::CnfClause>& fused_clauses() const {
    return fused_clauses_;
  }
  const std::vector<PhysicalOperatorPtr>& children() const {
    return children_;
  }
  const OperatorStats& stats() const { return stats_; }

  const PlanProperties& properties() const { return properties_; }

  struct RenderOptions {
    bool actuals = false;  // append rows=<actual cardinality>
    bool timing = false;   // append wall/net/spill (non-deterministic)
    // Append batch=<n> when positive (EXPLAIN under --engine=batch; 0
    // keeps row-engine output byte-stable).
    int batch_size = 0;
  };
  // Indented operator-tree rendering (EXPLAIN / EXPLAIN ANALYZE output).
  std::string ToString(const RenderOptions& options, int indent = 0) const;
  std::string ToString() const { return ToString(RenderOptions()); }

 protected:
  PhysicalOperator(EmbeddingMetaData output_meta, double estimated_cardinality,
                   MorphismSetting semantics,
                   std::vector<cypher::CnfClause> fused_clauses,
                   std::vector<PhysicalOperatorPtr> children)
      : output_meta_(std::move(output_meta)),
        estimated_cardinality_(estimated_cardinality),
        semantics_(semantics),
        fused_clauses_(std::move(fused_clauses)),
        children_(std::move(children)) {}

  // Kernel invocation; `inputs` holds the children's outputs in order.
  virtual Result<EmbeddingSet> Run(const ExecEnv& env,
                                   std::vector<EmbeddingSet> inputs) = 0;

  // Columnar kernel invocation (the vectorized twin of Run).
  virtual Result<BatchSet> RunBatch(const ExecEnv& env,
                                    std::vector<BatchSet> inputs) = 0;

  EmbeddingMetaData output_meta_;
  double estimated_cardinality_ = 0.0;
  MorphismSetting semantics_;
  std::vector<cypher::CnfClause> fused_clauses_;
  std::vector<PhysicalOperatorPtr> children_;
  OperatorStats stats_;

 private:
  // Written only by DerivePlanProperties.
  PlanProperties properties_;

  friend void DerivePlanProperties(PhysicalOperator& root,
                                   const CompileOptions& options);
};

// --- one class per plan kind -----------------------------------------

class VertexScanOp final : public PhysicalOperator {
 public:
  VertexScanOp(EmbeddingMetaData meta, double estimate,
               MorphismSetting semantics,
               std::vector<cypher::CnfClause> fused,
               cypher::QueryVertex query_vertex,
               std::vector<cypher::CnfClause> predicates)
      : PhysicalOperator(std::move(meta), estimate, semantics,
                         std::move(fused), {}),
        query_vertex_(std::move(query_vertex)),
        predicates_(std::move(predicates)) {}

  PhysOpKind op_kind() const override { return PhysOpKind::kVertexScan; }
  const char* name() const override { return "ScanVertices"; }
  std::string Describe() const override;

 protected:
  Result<EmbeddingSet> Run(const ExecEnv& env,
                           std::vector<EmbeddingSet> inputs) override;
  Result<BatchSet> RunBatch(const ExecEnv& env,
                            std::vector<BatchSet> inputs) override;

 private:
  cypher::QueryVertex query_vertex_;
  std::vector<cypher::CnfClause> predicates_;
};

class EdgeScanOp final : public PhysicalOperator {
 public:
  EdgeScanOp(EmbeddingMetaData meta, double estimate,
             MorphismSetting semantics, std::vector<cypher::CnfClause> fused,
             cypher::QueryEdge query_edge,
             std::vector<cypher::CnfClause> predicates, bool self_loop,
             std::string signature)
      : PhysicalOperator(std::move(meta), estimate, semantics,
                         std::move(fused), {}),
        query_edge_(std::move(query_edge)),
        predicates_(std::move(predicates)),
        self_loop_(self_loop),
        signature_(std::move(signature)) {}

  PhysOpKind op_kind() const override { return PhysOpKind::kEdgeScan; }
  const char* name() const override { return "ScanEdges"; }
  std::string Describe() const override;

  bool self_loop() const { return self_loop_; }
  // Data signature for the scan cache; empty when sharing is disabled.
  const std::string& signature() const { return signature_; }

 protected:
  Result<EmbeddingSet> Run(const ExecEnv& env,
                           std::vector<EmbeddingSet> inputs) override;
  Result<BatchSet> RunBatch(const ExecEnv& env,
                            std::vector<BatchSet> inputs) override;

 private:
  cypher::QueryEdge query_edge_;
  std::vector<cypher::CnfClause> predicates_;
  bool self_loop_ = false;
  std::string signature_;
};

class JoinOp final : public PhysicalOperator {
 public:
  JoinOp(EmbeddingMetaData meta, double estimate, MorphismSetting semantics,
         std::vector<cypher::CnfClause> fused, PhysicalOperatorPtr left,
         PhysicalOperatorPtr right, std::vector<std::string> join_variables,
         std::vector<int> left_columns, std::vector<int> right_columns,
         dataflow::JoinStrategy strategy)
      : PhysicalOperator(std::move(meta), estimate, semantics,
                         std::move(fused),
                         {std::move(left), std::move(right)}),
        join_variables_(std::move(join_variables)),
        left_columns_(std::move(left_columns)),
        right_columns_(std::move(right_columns)),
        strategy_(strategy) {}

  PhysOpKind op_kind() const override { return PhysOpKind::kJoin; }
  const char* name() const override { return "JoinEmbeddings"; }
  std::string Describe() const override;

  const std::vector<std::string>& join_variables() const {
    return join_variables_;
  }
  const std::vector<int>& left_columns() const { return left_columns_; }
  const std::vector<int>& right_columns() const { return right_columns_; }
  dataflow::JoinStrategy strategy() const { return strategy_; }

  // Shuffle elision, granted by DerivePlanProperties when the
  // partitioning analysis proved the side co-partitioned on
  // join_variables_.
  bool elide_left_shuffle() const { return elide_left_shuffle_; }
  bool elide_right_shuffle() const { return elide_right_shuffle_; }

 protected:
  Result<EmbeddingSet> Run(const ExecEnv& env,
                           std::vector<EmbeddingSet> inputs) override;
  Result<BatchSet> RunBatch(const ExecEnv& env,
                            std::vector<BatchSet> inputs) override;

 private:
  std::vector<std::string> join_variables_;
  std::vector<int> left_columns_;
  std::vector<int> right_columns_;
  dataflow::JoinStrategy strategy_;
  bool elide_left_shuffle_ = false;
  bool elide_right_shuffle_ = false;

  friend void DerivePlanProperties(PhysicalOperator& root,
                                   const CompileOptions& options);
};

class ValueJoinOp final : public PhysicalOperator {
 public:
  ValueJoinOp(EmbeddingMetaData meta, double estimate,
              MorphismSetting semantics, std::vector<cypher::CnfClause> fused,
              PhysicalOperatorPtr left, PhysicalOperatorPtr right,
              std::vector<std::string> key_descriptions,
              std::vector<int> left_key_columns,
              std::vector<int> right_key_columns,
              dataflow::JoinStrategy strategy)
      : PhysicalOperator(std::move(meta), estimate, semantics,
                         std::move(fused),
                         {std::move(left), std::move(right)}),
        key_descriptions_(std::move(key_descriptions)),
        left_key_columns_(std::move(left_key_columns)),
        right_key_columns_(std::move(right_key_columns)),
        strategy_(strategy) {}

  PhysOpKind op_kind() const override { return PhysOpKind::kValueJoin; }
  const char* name() const override { return "ValueJoinEmbeddings"; }
  std::string Describe() const override;

  const std::vector<int>& left_key_columns() const {
    return left_key_columns_;
  }
  const std::vector<int>& right_key_columns() const {
    return right_key_columns_;
  }
  const std::vector<std::string>& key_descriptions() const {
    return key_descriptions_;
  }
  dataflow::JoinStrategy strategy() const { return strategy_; }

  bool elide_left_shuffle() const { return elide_left_shuffle_; }
  bool elide_right_shuffle() const { return elide_right_shuffle_; }

 protected:
  Result<EmbeddingSet> Run(const ExecEnv& env,
                           std::vector<EmbeddingSet> inputs) override;
  Result<BatchSet> RunBatch(const ExecEnv& env,
                            std::vector<BatchSet> inputs) override;

 private:
  std::vector<std::string> key_descriptions_;  // "a.x=b.y", for rendering
  std::vector<int> left_key_columns_;
  std::vector<int> right_key_columns_;
  dataflow::JoinStrategy strategy_;
  bool elide_left_shuffle_ = false;
  bool elide_right_shuffle_ = false;

  friend void DerivePlanProperties(PhysicalOperator& root,
                                   const CompileOptions& options);
};

class ExpandOp final : public PhysicalOperator {
 public:
  ExpandOp(EmbeddingMetaData meta, double estimate, MorphismSetting semantics,
           std::vector<cypher::CnfClause> fused, PhysicalOperatorPtr input,
           cypher::QueryEdge query_edge, int start_column,
           int bound_end_column, bool reverse, uint64_t edge_input_estimate)
      : PhysicalOperator(std::move(meta), estimate, semantics,
                         std::move(fused), {std::move(input)}),
        query_edge_(std::move(query_edge)),
        start_column_(start_column),
        bound_end_column_(bound_end_column),
        reverse_(reverse),
        edge_input_estimate_(edge_input_estimate) {}

  PhysOpKind op_kind() const override { return PhysOpKind::kExpand; }
  const char* name() const override { return "ExpandEmbeddings"; }
  std::string Describe() const override;

  int start_column() const { return start_column_; }
  int bound_end_column() const { return bound_end_column_; }
  bool reverse() const { return reverse_; }
  const cypher::QueryEdge& query_edge() const { return query_edge_; }

  // Estimated rows of the edge dataset each expansion hop joins against,
  // from the graph statistics (0 when compiled without statistics).
  // Trusted operator data for the memory transfer function, like the
  // cardinality estimate.
  uint64_t edge_input_estimate() const { return edge_input_estimate_; }

 protected:
  Result<EmbeddingSet> Run(const ExecEnv& env,
                           std::vector<EmbeddingSet> inputs) override;
  Result<BatchSet> RunBatch(const ExecEnv& env,
                            std::vector<BatchSet> inputs) override;

 private:
  cypher::QueryEdge query_edge_;
  int start_column_ = -1;
  int bound_end_column_ = -1;
  bool reverse_ = false;
  uint64_t edge_input_estimate_ = 0;
};

// Standalone filter stage; only compiled when filter fusion is disabled
// (CompileOptions::fuse_filters == false).
class FilterOp final : public PhysicalOperator {
 public:
  FilterOp(EmbeddingMetaData meta, double estimate, MorphismSetting semantics,
           PhysicalOperatorPtr input, std::vector<cypher::CnfClause> clauses)
      : PhysicalOperator(std::move(meta), estimate, semantics, {},
                         {std::move(input)}),
        clauses_(std::move(clauses)) {}

  PhysOpKind op_kind() const override { return PhysOpKind::kFilter; }
  const char* name() const override { return "SelectEmbeddings"; }
  std::string Describe() const override;

  const std::vector<cypher::CnfClause>& clauses() const { return clauses_; }

 protected:
  Result<EmbeddingSet> Run(const ExecEnv& env,
                           std::vector<EmbeddingSet> inputs) override;
  Result<BatchSet> RunBatch(const ExecEnv& env,
                            std::vector<BatchSet> inputs) override;

 private:
  std::vector<cypher::CnfClause> clauses_;
};

}  // namespace exec
}  // namespace gradoop::query

#endif  // GRADOOP_QUERY_EXEC_PHYSICAL_OPERATOR_H_

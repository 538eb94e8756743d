#include "query/exec/plan_compiler.h"

#include <memory>
#include <utility>

#include "query/graph_statistics.h"

namespace gradoop::query::exec {

namespace {

Status CompileError(const char* op, const std::string& detail) {
  return Status::Internal(std::string("PlanCompiler: ") + op + ": " + detail);
}

}  // namespace

PlanCompiler::PlanCompiler(const cypher::QueryGraph& query_graph,
                           const MorphismSetting& semantics,
                           CompileOptions options)
    : qg_(query_graph), semantics_(semantics), options_(options) {}

std::set<std::string> PlanCompiler::ProjectionFor(
    const std::string& variable) const {
  if (!options_.prune_properties) return qg_.NeededProperties(variable);
  auto it = needed_.find(variable);
  return it == needed_.end() ? std::set<std::string>() : it->second;
}

void PlanCompiler::CollectNeeded(const PlanNodePtr& node) {
  if (node == nullptr) return;
  if (node->kind == PlanNode::Kind::kFilter) {
    for (const cypher::CnfClause& clause : node->clauses) {
      std::set<std::pair<std::string, std::string>> accesses;
      for (const cypher::ExpressionPtr& atom : clause.atoms) {
        atom->CollectPropertyAccesses(&accesses);
      }
      for (const auto& [var, key] : accesses) needed_[var].insert(key);
    }
  }
  if (node->kind == PlanNode::Kind::kValueJoin) {
    for (const auto& [lhs, rhs] : node->value_join_keys) {
      for (const auto& side : {lhs, rhs}) {
        if (side != nullptr &&
            side->kind() == cypher::ExprKind::kPropertyAccess) {
          needed_[side->variable()].insert(side->property_key());
        }
      }
    }
  }
  CollectNeeded(node->left);
  CollectNeeded(node->right);
}

Result<PhysicalOperatorPtr> PlanCompiler::Compile(const PlanNodePtr& plan) {
  needed_.clear();
  if (options_.prune_properties) {
    // The pruned projection: everything a plan operator evaluates on
    // embeddings (cross predicates, value-join keys) plus what the result
    // consumers read (RETURN items; `RETURN *` reads bindings only).
    CollectNeeded(plan);
    if (!qg_.return_all()) {
      for (const cypher::ReturnItem& item : qg_.return_items()) {
        if (item.IsPropertyAccess()) {
          needed_[item.variable].insert(item.property_key);
        }
      }
    }
  }
  GRADOOP_ASSIGN_OR_RETURN(PhysicalOperatorPtr root,
                           CompileNode(plan, {}, 0.0));
  DerivePlanProperties(*root, options_);
  return root;
}

Status PlanCompiler::CheckClauses(
    const char* op, const std::vector<cypher::CnfClause>& clauses,
    const EmbeddingMetaData& meta) const {
  for (const cypher::CnfClause& clause : clauses) {
    std::set<std::pair<std::string, std::string>> accesses;
    for (const cypher::ExpressionPtr& atom : clause.atoms) {
      atom->CollectPropertyAccesses(&accesses);
    }
    for (const auto& [var, key] : accesses) {
      if (meta.PropertyColumn(var, key) < 0) {
        return CompileError(op, "property " + var + "." + key +
                                    " is not projected in the subtree");
      }
    }
  }
  return Status::Ok();
}

std::string PlanCompiler::EdgeScanSignature(
    const cypher::QueryEdge& query_edge, bool self_loop,
    const std::set<std::string>& projection,
    const std::vector<cypher::CnfClause>& fused) const {
  // Everything that shapes the scan's rows except the variable names. The
  // predicate strings carry the edge variable, so only true repeats of
  // the same shape hit the cache.
  std::string sig;
  for (const std::string& t : query_edge.types) sig += t + "|";
  sig += self_loop ? ";self;" : ";";
  sig += query_edge.any_direction ? "any;" : "dir;";
  sig += semantics_.vertex == MatchSemantics::kIsomorphism ? "viso;"
                                                           : "vhom;";
  for (const cypher::CnfClause& clause :
       qg_.ElementPredicates(query_edge.variable)) {
    sig += clause.ToString() + ";";
  }
  for (const std::string& key : projection) sig += key + ",";
  for (const cypher::CnfClause& clause : fused) {
    sig += "+" + clause.ToString() + ";";
  }
  return sig;
}

void DerivePlanProperties(PhysicalOperator& root,
                          const CompileOptions& options) {
  for (const PhysicalOperatorPtr& child : root.children()) {
    if (child != nullptr) DerivePlanProperties(*child, options);
  }
  // A repartition-join side skips its shuffle when its input is already
  // hash-partitioned on exactly that side's key.
  auto side_elides = [&](size_t i, PartitionKeyKind key_kind,
                         const std::vector<std::string>& key) {
    const PhysicalOperatorPtr& child = root.children()[i];
    return options.elide_shuffles && child != nullptr &&
           ElidesShuffle(child->properties().partitioning, key_kind, key);
  };
  if (root.op_kind() == PhysOpKind::kJoin) {
    auto& join = static_cast<JoinOp&>(root);
    if (join.strategy() == dataflow::JoinStrategy::kRepartition) {
      join.elide_left_shuffle_ = side_elides(0, PartitionKeyKind::kIdColumns,
                                             join.join_variables());
      join.elide_right_shuffle_ = side_elides(
          1, PartitionKeyKind::kIdColumns, join.join_variables());
    }
  }
  if (root.op_kind() == PhysOpKind::kValueJoin) {
    auto& join = static_cast<ValueJoinOp&>(root);
    if (join.strategy() == dataflow::JoinStrategy::kRepartition) {
      join.elide_left_shuffle_ =
          side_elides(0, PartitionKeyKind::kPropertyValues,
                      ValueKeySideTokens(join.key_descriptions(), false));
      join.elide_right_shuffle_ =
          side_elides(1, PartitionKeyKind::kPropertyValues,
                      ValueKeySideTokens(join.key_descriptions(), true));
    }
  }
  // Partitioning reads the kind, keys, strategy and the children's
  // properties, never the elision flags; memory and interruptibility
  // read the children's properties too.
  root.properties_.partitioning = DerivePartitioning(root);
  root.properties_.memory = DeriveMemoryBound(root, options.num_workers);
  root.properties_.interruptibility = DeriveInterruptibility(root);
}

Result<PhysicalOperatorPtr> PlanCompiler::CompileNode(
    const PlanNodePtr& node, std::vector<cypher::CnfClause> residual,
    double residual_estimate) {
  if (node == nullptr) {
    return Status::Internal("PlanCompiler: null plan node");
  }

  // Filter fusion: push the clauses into the input operator's emission
  // loop. The fused operator keeps the filter's (smaller) estimate, which
  // is what its output actually is.
  if (node->kind == PlanNode::Kind::kFilter && options_.fuse_filters) {
    if (node->left == nullptr) {
      return CompileError("SelectEmbeddings", "filter takes exactly one input");
    }
    std::vector<cypher::CnfClause> merged = node->clauses;
    merged.insert(merged.end(), residual.begin(), residual.end());
    const double estimate =
        residual.empty() ? node->estimated_cardinality : residual_estimate;
    return CompileNode(node->left, std::move(merged), estimate);
  }

  // A fused residual replaces this operator's output estimate with the
  // (topmost) filter's.
  auto estimate_of = [&](double own) {
    return residual.empty() ? own : residual_estimate;
  };

  switch (node->kind) {
    case PlanNode::Kind::kScanVertices: {
      const int n = static_cast<int>(qg_.vertices().size());
      if (node->element_index < 0 || node->element_index >= n) {
        return CompileError("ScanVertices", "element_index out of range");
      }
      const cypher::QueryVertex& qv = qg_.vertices()[node->element_index];
      EmbeddingMetaData meta;
      meta.AddIdColumn(qv.variable, EntryType::kVertex);
      for (const std::string& key : ProjectionFor(qv.variable)) {
        meta.AddPropertyColumn(qv.variable, key);
      }
      GRADOOP_RETURN_IF_ERROR(CheckClauses("ScanVertices", residual, meta));
      return PhysicalOperatorPtr(std::make_shared<VertexScanOp>(
          std::move(meta), estimate_of(node->estimated_cardinality),
          semantics_, std::move(residual), qv,
          qg_.ElementPredicates(qv.variable)));
    }

    case PlanNode::Kind::kScanEdges: {
      const int n = static_cast<int>(qg_.edges().size());
      if (node->element_index < 0 || node->element_index >= n) {
        return CompileError("ScanEdges", "element_index out of range");
      }
      const cypher::QueryEdge& qe = qg_.edges()[node->element_index];
      if (qe.IsVariableLength()) {
        return CompileError("ScanEdges", "variable-length edge `" +
                                             qe.variable +
                                             "` must be expanded");
      }
      const std::string& src = qg_.vertices()[qe.source].variable;
      const std::string& dst = qg_.vertices()[qe.target].variable;
      const bool self_loop = src == dst;
      EmbeddingMetaData meta;
      meta.AddIdColumn(src, EntryType::kVertex);
      meta.AddIdColumn(qe.variable, EntryType::kEdge);
      if (!self_loop) meta.AddIdColumn(dst, EntryType::kVertex);
      const std::set<std::string> projection = ProjectionFor(qe.variable);
      for (const std::string& key : projection) {
        meta.AddPropertyColumn(qe.variable, key);
      }
      GRADOOP_RETURN_IF_ERROR(CheckClauses("ScanEdges", residual, meta));
      std::string signature =
          options_.share_scans
              ? EdgeScanSignature(qe, self_loop, projection, residual)
              : std::string();
      return PhysicalOperatorPtr(std::make_shared<EdgeScanOp>(
          std::move(meta), estimate_of(node->estimated_cardinality),
          semantics_, std::move(residual), qe,
          qg_.ElementPredicates(qe.variable), self_loop,
          std::move(signature)));
    }

    case PlanNode::Kind::kJoin: {
      if (node->left == nullptr || node->right == nullptr) {
        return CompileError("JoinEmbeddings", "join needs two inputs");
      }
      GRADOOP_ASSIGN_OR_RETURN(PhysicalOperatorPtr left,
                               CompileNode(node->left, {}, 0.0));
      GRADOOP_ASSIGN_OR_RETURN(PhysicalOperatorPtr right,
                               CompileNode(node->right, {}, 0.0));
      std::vector<int> left_columns, right_columns;
      left_columns.reserve(node->join_variables.size());
      right_columns.reserve(node->join_variables.size());
      for (const std::string& var : node->join_variables) {
        const int lc = left->output_meta().IdColumn(var);
        const int rc = right->output_meta().IdColumn(var);
        if (lc < 0 || rc < 0) {
          return CompileError("JoinEmbeddings",
                              "join variable `" + var +
                                  "` lacks an id column on the " +
                                  (lc < 0 ? "left" : "right") + " input");
        }
        left_columns.push_back(lc);
        right_columns.push_back(rc);
      }
      EmbeddingMetaData merged = EmbeddingMetaData::Merge(
          left->output_meta(), right->output_meta());
      GRADOOP_RETURN_IF_ERROR(
          CheckClauses("JoinEmbeddings", residual, merged));
      return PhysicalOperatorPtr(std::make_shared<JoinOp>(
          std::move(merged), estimate_of(node->estimated_cardinality),
          semantics_, std::move(residual), std::move(left), std::move(right),
          node->join_variables, std::move(left_columns),
          std::move(right_columns), node->join_strategy));
    }

    case PlanNode::Kind::kValueJoin: {
      if (node->left == nullptr || node->right == nullptr) {
        return CompileError("ValueJoinEmbeddings",
                            "value join needs two inputs");
      }
      GRADOOP_ASSIGN_OR_RETURN(PhysicalOperatorPtr left,
                               CompileNode(node->left, {}, 0.0));
      GRADOOP_ASSIGN_OR_RETURN(PhysicalOperatorPtr right,
                               CompileNode(node->right, {}, 0.0));
      std::vector<std::string> key_descriptions;
      std::vector<int> left_keys, right_keys;
      for (const auto& [lhs, rhs] : node->value_join_keys) {
        for (const auto& side : {lhs, rhs}) {
          if (side == nullptr ||
              side->kind() != cypher::ExprKind::kPropertyAccess) {
            return CompileError("ValueJoinEmbeddings",
                                "value-join key is not a property access");
          }
        }
        const int lc = left->output_meta().PropertyColumn(
            lhs->variable(), lhs->property_key());
        if (lc < 0) {
          return CompileError("ValueJoinEmbeddings",
                              "left key " + lhs->ToString() +
                                  " resolves to no projected property "
                                  "column");
        }
        const int rc = right->output_meta().PropertyColumn(
            rhs->variable(), rhs->property_key());
        if (rc < 0) {
          return CompileError("ValueJoinEmbeddings",
                              "right key " + rhs->ToString() +
                                  " resolves to no projected property "
                                  "column");
        }
        left_keys.push_back(lc);
        right_keys.push_back(rc);
        key_descriptions.push_back(lhs->ToString() + "=" + rhs->ToString());
      }
      if (left_keys.empty()) {
        return CompileError("ValueJoinEmbeddings",
                            "value join has no key equalities");
      }
      EmbeddingMetaData merged = EmbeddingMetaData::Merge(
          left->output_meta(), right->output_meta());
      GRADOOP_RETURN_IF_ERROR(
          CheckClauses("ValueJoinEmbeddings", residual, merged));
      return PhysicalOperatorPtr(std::make_shared<ValueJoinOp>(
          std::move(merged), estimate_of(node->estimated_cardinality),
          semantics_, std::move(residual), std::move(left), std::move(right),
          std::move(key_descriptions), std::move(left_keys),
          std::move(right_keys), node->join_strategy));
    }

    case PlanNode::Kind::kExpand: {
      if (node->left == nullptr) {
        return CompileError("ExpandEmbeddings",
                            "expand takes exactly one input");
      }
      const int n = static_cast<int>(qg_.edges().size());
      if (node->element_index < 0 || node->element_index >= n) {
        return CompileError("ExpandEmbeddings", "element_index out of range");
      }
      const cypher::QueryEdge& qe = qg_.edges()[node->element_index];
      if (!qe.IsVariableLength()) {
        return CompileError("ExpandEmbeddings",
                            "fixed-length edge `" + qe.variable +
                                "` must be scanned");
      }
      GRADOOP_ASSIGN_OR_RETURN(PhysicalOperatorPtr input,
                               CompileNode(node->left, {}, 0.0));
      const std::string& src = qg_.vertices()[qe.source].variable;
      const std::string& dst = qg_.vertices()[qe.target].variable;
      const std::string& start = node->expand_reverse ? dst : src;
      const std::string& end = node->expand_reverse ? src : dst;
      const EmbeddingMetaData& input_meta = input->output_meta();
      const int start_column = input_meta.IdColumn(start);
      if (start_column < 0) {
        return CompileError("ExpandEmbeddings", "expansion start `" + start +
                                                    "` has no id column");
      }
      EmbeddingMetaData meta = input_meta;
      meta.AddIdColumn(qe.variable, EntryType::kPath);
      const int bound_end_column = input_meta.IdColumn(end);
      if (bound_end_column < 0) meta.AddIdColumn(end, EntryType::kVertex);
      GRADOOP_RETURN_IF_ERROR(
          CheckClauses("ExpandEmbeddings", residual, meta));
      // Expansion hops join against the full edge dataset, whose size
      // neither the cardinality estimate nor the input's bound captures.
      const uint64_t edge_input_estimate =
          options_.statistics != nullptr
              ? options_.statistics->EdgeCountByLabels(qe.types)
              : 0;
      return PhysicalOperatorPtr(std::make_shared<ExpandOp>(
          std::move(meta), estimate_of(node->estimated_cardinality),
          semantics_, std::move(residual), std::move(input), qe,
          start_column, bound_end_column, node->expand_reverse,
          edge_input_estimate));
    }

    case PlanNode::Kind::kFilter: {
      // Unfused path (CompileOptions::fuse_filters == false).
      if (node->left == nullptr) {
        return CompileError("SelectEmbeddings",
                            "filter takes exactly one input");
      }
      GRADOOP_ASSIGN_OR_RETURN(PhysicalOperatorPtr input,
                               CompileNode(node->left, {}, 0.0));
      EmbeddingMetaData meta = input->output_meta();
      GRADOOP_RETURN_IF_ERROR(
          CheckClauses("SelectEmbeddings", node->clauses, meta));
      return PhysicalOperatorPtr(std::make_shared<FilterOp>(
          std::move(meta), node->estimated_cardinality, semantics_,
          std::move(input), node->clauses));
    }
  }
  return Status::Internal("PlanCompiler: unknown plan node kind");
}

}  // namespace gradoop::query::exec

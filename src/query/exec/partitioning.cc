#include "query/exec/partitioning.h"

#include "query/exec/physical_operator.h"
#include "query/plan.h"

namespace gradoop::query::exec {

std::string PartitioningProperty::ToString() const {
  switch (kind) {
    case PartitioningKind::kRandom:
      return "random";
    case PartitioningKind::kReplicated:
      return "replicated";
    case PartitioningKind::kSingleton:
      return "singleton";
    case PartitioningKind::kHashPartitioned:
      break;
  }
  std::string out = key_kind == PartitionKeyKind::kIdColumns
                        ? "hash("
                        : "hash-values(";
  for (size_t i = 0; i < key_tokens.size(); ++i) {
    if (i > 0) out += ",";
    out += key_tokens[i];
  }
  return out + ")";
}

bool ElidesShuffle(const PartitioningProperty& input,
                   PartitionKeyKind key_kind,
                   const std::vector<std::string>& key_tokens) {
  return !key_tokens.empty() &&
         input.kind == PartitioningKind::kHashPartitioned &&
         input.key_kind == key_kind && input.key_tokens == key_tokens;
}

std::vector<std::string> ValueKeySideTokens(
    const std::vector<std::string>& key_descriptions, bool right_side) {
  // Property keys and variables are identifiers, so the first '=' always
  // separates the two accesses.
  std::vector<std::string> out;
  out.reserve(key_descriptions.size());
  for (const std::string& desc : key_descriptions) {
    const size_t eq = desc.find('=');
    if (eq == std::string::npos) {
      out.push_back(desc);
    } else {
      out.push_back(right_side ? desc.substr(eq + 1) : desc.substr(0, eq));
    }
  }
  return out;
}

namespace {

PartitioningProperty ChildPartitioning(const PhysicalOperator& op, size_t i) {
  const PhysicalOperatorPtr& child = op.children()[i];
  return child == nullptr ? PartitioningProperty::Random()
                          : child->properties().partitioning;
}

}  // namespace

PartitioningProperty DerivePartitioning(const PhysicalOperator& op) {
  switch (op.op_kind()) {
    case PhysOpKind::kVertexScan:
    case PhysOpKind::kEdgeScan:
      // Sources distribute round-robin (Dataset::FromVector); the label
      // indexes preserve that layout. Nothing keyed about it.
      return PartitioningProperty::Random();

    case PhysOpKind::kExpand:
      // Every hop re-routes the frontier by its end vertex and the output
      // unions emissions from every round; the output layout keeps no
      // single-key invariant.
      return PartitioningProperty::Random();

    case PhysOpKind::kFilter:
      // Filters drop records in place.
      return ChildPartitioning(op, 0);

    case PhysOpKind::kJoin: {
      const auto& join = static_cast<const JoinOp&>(op);
      if (join.strategy() == dataflow::JoinStrategy::kBroadcast) {
        // The probe (left) side stays in place and every output row is
        // emitted at its left row's partition.
        return ChildPartitioning(op, 0);
      }
      if (join.join_variables().empty()) {
        // Cartesian repartition join: both sides hash the empty key, so
        // everything collapses onto the single partition hash("") % p.
        return PartitioningProperty::Singleton();
      }
      // Both sides were hashed on the join key and every output row
      // carries it, so the output is hash-partitioned on it.
      return PartitioningProperty::HashOnVariables(join.join_variables());
    }

    case PhysOpKind::kValueJoin: {
      const auto& join = static_cast<const ValueJoinOp&>(op);
      if (join.strategy() == dataflow::JoinStrategy::kBroadcast) {
        return ChildPartitioning(op, 0);
      }
      // Output rows sit at hash(encoded left key values) — and the right
      // key values of a joined row encode identically, so either side's
      // access sequence describes the layout. The left one is canonical.
      return PartitioningProperty::HashOnValues(
          ValueKeySideTokens(join.key_descriptions(), /*right_side=*/false));
    }
  }
  return PartitioningProperty::Random();
}

PartitioningProperty DeriveLogicalPartitioning(const query::PlanNode& node) {
  switch (node.kind) {
    case PlanNode::Kind::kScanVertices:
    case PlanNode::Kind::kScanEdges:
      return PartitioningProperty::Random();

    case PlanNode::Kind::kExpand:
      return PartitioningProperty::Random();

    case PlanNode::Kind::kFilter:
      return node.left == nullptr ? PartitioningProperty::Random()
                                  : DeriveLogicalPartitioning(*node.left);

    case PlanNode::Kind::kJoin: {
      if (node.join_strategy == dataflow::JoinStrategy::kBroadcast) {
        return node.left == nullptr ? PartitioningProperty::Random()
                                    : DeriveLogicalPartitioning(*node.left);
      }
      if (node.join_variables.empty()) {
        return PartitioningProperty::Singleton();
      }
      return PartitioningProperty::HashOnVariables(node.join_variables);
    }

    case PlanNode::Kind::kValueJoin: {
      if (node.join_strategy == dataflow::JoinStrategy::kBroadcast) {
        return node.left == nullptr ? PartitioningProperty::Random()
                                    : DeriveLogicalPartitioning(*node.left);
      }
      std::vector<std::string> tokens;
      tokens.reserve(node.value_join_keys.size());
      for (const auto& [lhs, rhs] : node.value_join_keys) {
        (void)rhs;
        tokens.push_back(lhs == nullptr ? std::string() : lhs->ToString());
      }
      return PartitioningProperty::HashOnValues(std::move(tokens));
    }
  }
  return PartitioningProperty::Random();
}

}  // namespace gradoop::query::exec

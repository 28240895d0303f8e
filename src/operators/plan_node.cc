#include "operators/plan_node.h"

#include <sstream>

#include "common/logging.h"

namespace hetdb {

const char* PlanOpToString(PlanOp op) {
  switch (op) {
    case PlanOp::kScan:
      return "scan";
    case PlanOp::kSelect:
      return "select";
    case PlanOp::kJoin:
      return "join";
    case PlanOp::kAggregate:
      return "aggregate";
    case PlanOp::kSort:
      return "sort";
    case PlanOp::kProject:
      return "project";
    case PlanOp::kLimit:
      return "limit";
    case PlanOp::kFusedPipeline:
      return "fused_pipeline";
  }
  return "?";
}

Result<KernelOutput> PlanNode::ComputeWithWork(
    const std::vector<TablePtr>& inputs) const {
  KernelOutput output;
  HETDB_ASSIGN_OR_RETURN(output.table, ComputeResult(inputs));
  output.work = KernelWork{{{op_class(), InputBytes(inputs)}}};
  return output;
}

size_t PlanNode::InputBytes(const std::vector<TablePtr>& inputs) const {
  size_t bytes = 0;
  for (const TablePtr& input : inputs) {
    if (input != nullptr) bytes += input->data_bytes();
  }
  return bytes;
}

size_t PlanNode::IntermediateDeviceBytes(
    const std::vector<TablePtr>& inputs) const {
  (void)inputs;
  return 0;
}

std::string PlanNode::label() const { return PlanOpToString(op_); }

// --- ScanNode ---------------------------------------------------------------

ScanNode::ScanNode(TablePtr table, std::vector<std::string> columns)
    : PlanNode(PlanOp::kScan, {}),
      table_(std::move(table)),
      columns_(std::move(columns)) {
  HETDB_CHECK(table_ != nullptr);
  for (const std::string& name : columns_) {
    Result<ColumnPtr> column = table_->GetColumn(name);
    HETDB_CHECK(column.ok());
    base_columns_.emplace_back(table_->QualifiedName(name), column.value());
  }
}

Result<TablePtr> ScanNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  (void)inputs;
  auto output = std::make_shared<Table>(table_->name());
  for (const auto& [key, column] : base_columns_) {
    column->RecordAccess();
    HETDB_RETURN_NOT_OK(output->AddColumn(column));  // zero-copy alias
  }
  return output;
}

size_t ScanNode::InputBytes(const std::vector<TablePtr>& inputs) const {
  (void)inputs;
  size_t bytes = 0;
  for (const auto& [key, column] : base_columns_) bytes += column->data_bytes();
  return bytes;
}

size_t ScanNode::IntermediateDeviceBytes(
    const std::vector<TablePtr>& inputs) const {
  (void)inputs;
  return 0;
}

std::string ScanNode::label() const {
  std::ostringstream os;
  os << "scan(" << table_->name() << ": " << columns_.size() << " cols)";
  return os.str();
}

// --- SelectNode -------------------------------------------------------------

SelectNode::SelectNode(PlanNodePtr child, ConjunctiveFilter filter)
    : PlanNode(PlanOp::kSelect, {std::move(child)}),
      filter_(std::move(filter)) {}

Result<TablePtr> SelectNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 1 && inputs[0] != nullptr);
  HETDB_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                         EvaluateFilter(*inputs[0], filter_));
  return GatherRows(*inputs[0], rows, "select");
}

size_t SelectNode::IntermediateDeviceBytes(
    const std::vector<TablePtr>& inputs) const {
  // Flag array + prefix sums: 1.25x the input (He et al. selection model;
  // with the input buffer and worst-case output this peaks at 3.25x).
  return InputBytes(inputs) + InputBytes(inputs) / 4;
}

std::string SelectNode::label() const {
  return "select(" + filter_.ToString() + ")";
}

// --- JoinNode ---------------------------------------------------------------

JoinNode::JoinNode(PlanNodePtr build, PlanNodePtr probe, std::string build_key,
                   std::string probe_key, JoinOutputSpec output_spec)
    : PlanNode(PlanOp::kJoin, {std::move(build), std::move(probe)}),
      build_key_(std::move(build_key)),
      probe_key_(std::move(probe_key)),
      output_spec_(std::move(output_spec)) {}

Result<TablePtr> JoinNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 2 && inputs[0] != nullptr &&
              inputs[1] != nullptr);
  return HashJoin(*inputs[0], build_key_, *inputs[1], probe_key_, output_spec_,
                  "join");
}

size_t JoinNode::IntermediateDeviceBytes(
    const std::vector<TablePtr>& inputs) const {
  // Hash table over the build side: ~2x the build input.
  HETDB_CHECK(inputs.size() == 2 && inputs[0] != nullptr);
  return 2 * inputs[0]->data_bytes();
}

std::string JoinNode::label() const {
  return "join(" + build_key_ + " = " + probe_key_ + ")";
}

// --- AggregateNode ----------------------------------------------------------

AggregateNode::AggregateNode(PlanNodePtr child,
                             std::vector<std::string> group_by,
                             std::vector<AggregateSpec> aggregates)
    : PlanNode(PlanOp::kAggregate, {std::move(child)}),
      group_by_(std::move(group_by)),
      aggregates_(std::move(aggregates)) {}

Result<TablePtr> AggregateNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 1 && inputs[0] != nullptr);
  return Aggregate(*inputs[0], group_by_, aggregates_, "aggregate");
}

size_t AggregateNode::IntermediateDeviceBytes(
    const std::vector<TablePtr>& inputs) const {
  // Group hash table; bounded by half the input.
  return InputBytes(inputs) / 2;
}

std::string AggregateNode::label() const {
  std::ostringstream os;
  os << "aggregate(";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) os << ", ";
    os << AggregateFnToString(aggregates_[i].fn) << "("
       << aggregates_[i].input_column << ")";
  }
  if (!group_by_.empty()) {
    os << " by ";
    for (size_t i = 0; i < group_by_.size(); ++i) {
      if (i > 0) os << ",";
      os << group_by_[i];
    }
  }
  os << ")";
  return os.str();
}

// --- SortNode ---------------------------------------------------------------

SortNode::SortNode(PlanNodePtr child, std::vector<SortKey> keys)
    : PlanNode(PlanOp::kSort, {std::move(child)}), keys_(std::move(keys)) {}

Result<TablePtr> SortNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 1 && inputs[0] != nullptr);
  return Sort(*inputs[0], keys_, "sort");
}

size_t SortNode::IntermediateDeviceBytes(
    const std::vector<TablePtr>& inputs) const {
  // Index array + double buffer.
  return InputBytes(inputs);
}

std::string SortNode::label() const {
  std::ostringstream os;
  os << "sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) os << ", ";
    os << keys_[i].column << (keys_[i].ascending ? " asc" : " desc");
  }
  os << ")";
  return os.str();
}

// --- ProjectNode ------------------------------------------------------------

ProjectNode::ProjectNode(PlanNodePtr child,
                         std::vector<std::string> keep_columns,
                         std::vector<ArithmeticExpr> expressions)
    : PlanNode(PlanOp::kProject, {std::move(child)}),
      keep_columns_(std::move(keep_columns)),
      expressions_(std::move(expressions)) {}

Result<TablePtr> ProjectNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 1 && inputs[0] != nullptr);
  return Project(*inputs[0], keep_columns_, expressions_, "project");
}

std::string ProjectNode::label() const {
  std::ostringstream os;
  os << "project(" << keep_columns_.size() << " cols";
  for (const ArithmeticExpr& e : expressions_) os << ", " << e.output_name;
  os << ")";
  return os.str();
}

// --- LimitNode --------------------------------------------------------------

LimitNode::LimitNode(PlanNodePtr child, size_t limit)
    : PlanNode(PlanOp::kLimit, {std::move(child)}), limit_(limit) {}

Result<TablePtr> LimitNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 1 && inputs[0] != nullptr);
  return Limit(*inputs[0], limit_, "limit");
}

std::string LimitNode::label() const {
  return "limit(" + std::to_string(limit_) + ")";
}

// --- Traversal helpers ------------------------------------------------------

size_t CountPlanNodes(const PlanNodePtr& root) {
  size_t count = 0;
  VisitPlanPostOrder(root, [&count](const PlanNodePtr&) { ++count; });
  return count;
}

void VisitPlanPostOrder(const PlanNodePtr& root,
                        const std::function<void(const PlanNodePtr&)>& fn) {
  if (root == nullptr) return;
  for (const PlanNodePtr& child : root->children()) {
    VisitPlanPostOrder(child, fn);
  }
  fn(root);
}

namespace {

void RegisterPlanNodesImpl(QueryStats* stats, const PlanNodePtr& node,
                           const PlanNode* parent) {
  stats->AddNode(node.get(), parent, PlanOpToString(node->op()),
                 node->label());
  for (const PlanNodePtr& child : node->children()) {
    RegisterPlanNodesImpl(stats, child, node.get());
  }
}

}  // namespace

void RegisterPlanNodes(QueryStats* stats, const PlanNodePtr& root) {
  if (stats == nullptr || root == nullptr) return;
  HETDB_CHECK(stats->nodes().empty());
  RegisterPlanNodesImpl(stats, root, nullptr);
}

}  // namespace hetdb

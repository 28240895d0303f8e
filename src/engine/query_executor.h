#ifndef HETDB_ENGINE_QUERY_EXECUTOR_H_
#define HETDB_ENGINE_QUERY_EXECUTOR_H_

#include <unordered_map>

#include "engine/engine_context.h"
#include "engine/operator_executor.h"
#include "operators/plan_node.h"

namespace hetdb {

/// Compile-time operator placement: one processor per plan node, fixed
/// before execution starts.
using PlacementMap = std::unordered_map<const PlanNode*, ProcessorKind>;

/// Operator-at-a-time executor for compile-time-placed plans.
///
/// Walks the plan bottom-up; children of an n-ary operator are evaluated in
/// parallel (CoGaDB's inter-operator parallelism, Section 2.5). Each
/// operator runs on its compile-time processor with the standard fault
/// handling — and, crucially, an abort does *not* change the placement of
/// successor operators; the resulting ping-pong transfers are the
/// compile-time weakness the paper illustrates in Figure 8.
class QueryExecutor {
 public:
  explicit QueryExecutor(EngineContext* ctx) : ctx_(ctx) {}

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Executes the plan; nodes missing from `placement` run on the CPU.
  /// `stats` (optional, fresh) receives per-query/per-node resource
  /// attribution against `root`'s nodes; when null the executor creates its
  /// own so flight-recorder summaries stay complete.
  Result<TablePtr> Execute(const PlanNodePtr& root,
                           const PlacementMap& placement,
                           QueryStatsPtr stats = nullptr);

 private:
  Result<OperatorResult> ExecuteNode(const PlanNodePtr& node,
                                     const PlacementMap& placement,
                                     const PlanNode* parent);

  EngineContext* ctx_;
  QueryStatsPtr stats_;     ///< attribution target of the running query
  /// Sharding home of the running query (largest scan's affinity device);
  /// biases every device pick so the query stays on one device.
  int home_device_ = -1;
};

}  // namespace hetdb

#endif  // HETDB_ENGINE_QUERY_EXECUTOR_H_

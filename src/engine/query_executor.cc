#include "engine/query_executor.h"

#include <future>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "telemetry/trace_recorder.h"

namespace hetdb {

Result<TablePtr> QueryExecutor::Execute(const PlanNodePtr& root,
                                        const PlacementMap& placement,
                                        QueryStatsPtr stats) {
  stats_ = stats != nullptr ? std::move(stats) : std::make_shared<QueryStats>();
  RegisterPlanNodes(stats_.get(), root);
  stats_->MarkSubmitted();
  home_device_ = ctx_->sharding().QueryHomeDevice(*root);

  Result<TablePtr> outcome = [&]() -> Result<TablePtr> {
    HETDB_ASSIGN_OR_RETURN(OperatorResult result,
                           ExecuteNode(root, placement, /*parent=*/nullptr));
    // If the final result still lives on the device, the user receives it on
    // the host: pay the copy-back (attributed to the query, no node).
    if (result.location == ProcessorKind::kGpu && !result.base_data) {
      QueryStatsScope scope(stats_, nullptr);
      HETDB_RETURN_NOT_OK(TransferWithRetry(result.table_bytes(),
                                            TransferDirection::kDeviceToHost,
                                            *ctx_, result.device));
      result.ReleaseDeviceResources();
    }
    return result.table;
  }();

  if (outcome.ok()) {
    ctx_->metrics().RecordQueryDone();
    stats_->MarkFinished(/*ok=*/true);
  } else {
    stats_->MarkFinished(/*ok=*/false, outcome.status().ToString());
  }
  ctx_->flight_recorder().RecordQuerySummary(stats_->query_id(), stats_->name(),
                                             stats_->SummaryFields());
  ctx_->NoteQueryFinished();
  stats_ = nullptr;
  return outcome;
}

Result<OperatorResult> QueryExecutor::ExecuteNode(
    const PlanNodePtr& node, const PlacementMap& placement,
    const PlanNode* parent) {
  const auto& children = node->children();
  std::vector<OperatorResult> child_results;
  child_results.reserve(children.size());

  if (children.size() <= 1) {
    for (const PlanNodePtr& child : children) {
      HETDB_ASSIGN_OR_RETURN(OperatorResult r,
                             ExecuteNode(child, placement, node.get()));
      child_results.push_back(std::move(r));
    }
  } else {
    // Inter-operator parallelism: binary operators evaluate both subtrees
    // concurrently.
    std::vector<std::future<Result<OperatorResult>>> futures;
    futures.reserve(children.size());
    for (const PlanNodePtr& child : children) {
      futures.push_back(std::async(std::launch::async, [this, &child,
                                                        &placement, &node] {
        return ExecuteNode(child, placement, node.get());
      }));
    }
    Status first_error;
    for (auto& future : futures) {
      Result<OperatorResult> r = future.get();
      if (!r.ok() && first_error.ok()) first_error = r.status();
      if (r.ok()) child_results.push_back(std::move(r).value());
    }
    if (!first_error.ok()) return first_error;
  }

  std::vector<OperatorResult*> inputs;
  inputs.reserve(child_results.size());
  for (OperatorResult& r : child_results) inputs.push_back(&r);

  auto it = placement.find(node.get());
  ProcessorKind processor =
      it != placement.end() ? it->second : ProcessorKind::kCpu;

  // The compile-time map fixes CPU vs device; *which* device is a run-time
  // sharding decision (inputs' residency is only known now). No admittable
  // device demotes the operator to the CPU, like a breaker short-circuit.
  int device = 0;
  if (processor == ProcessorKind::kGpu) {
    std::vector<std::string> input_keys;
    if (node->op() == PlanOp::kScan) {
      const auto& scan = static_cast<const ScanNode&>(*node);
      input_keys.reserve(scan.base_columns().size());
      for (const auto& [key, column] : scan.base_columns()) {
        input_keys.push_back(key);
      }
    }
    std::vector<std::pair<int, size_t>> resident_inputs;
    for (OperatorResult* input : inputs) {
      if (input->location == ProcessorKind::kGpu) {
        resident_inputs.emplace_back(input->device, input->table_bytes());
      }
    }
    size_t input_bytes = 0;
    for (OperatorResult* input : inputs) input_bytes += input->table_bytes();
    const int picked = ctx_->sharding().PickDevice(
        input_keys, resident_inputs, input_bytes, home_device_);
    if (picked < 0) {
      // No device admits work (breakers open or devices lost): the same
      // short-circuit ExecuteWithFallback would take, decided one layer
      // earlier — count it under the same metric.
      ctx_->metrics()
          .registry()
          .GetCounter("breaker.short_circuits")
          .Increment();
      processor = ProcessorKind::kCpu;
    } else {
      device = picked;
    }
  }

  // Attribute this operator's transfers, allocations, and cache loads.
  NodeStats* node_stats = stats_->Find(node.get());
  QueryStatsScope stats_scope(stats_, node_stats);

  TraceSpan span;
  if (TraceRecorder::enabled()) {
    span.Begin(node->label(), "operator");
    span.SetQuery(stats_->query_id());
    span.SetNode(reinterpret_cast<uint64_t>(node.get()),
                 reinterpret_cast<uint64_t>(parent));
    span.AddArg("requested", ProcessorKindToString(processor));
  }
  Stopwatch run_watch;
  Result<ExecutedOperator> attempt =
      ExecuteWithFallback(*node, inputs, processor, *ctx_, device);
  stats_->OnRun(static_cast<int64_t>(run_watch.ElapsedMicros()), node_stats);
  if (!attempt.ok()) {
    if (span.active()) span.AddArg("error", attempt.status().ToString());
    return attempt.status();
  }
  ExecutedOperator executed = std::move(attempt).value();
  if (span.active()) {
    span.AddArg("processor", ProcessorKindToString(executed.ran_on));
    if (executed.aborted) span.AddArg("cpu_retry", "true");
  }
  // child_results go out of scope here, releasing device residency of the
  // consumed inputs.
  return std::move(executed.result);
}

}  // namespace hetdb

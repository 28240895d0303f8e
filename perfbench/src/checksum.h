#ifndef PERFBENCH_CHECKSUM_H_
#define PERFBENCH_CHECKSUM_H_

#include <cstdint>
#include <vector>

#include "operators/plan_node.h"
#include "storage/table.h"

namespace perfbench {

/// Order-insensitive fingerprint of a result table: column names and types,
/// row count, and the multiset of rows (each row hashed over every column's
/// value, doubles by their bit pattern). Two results that hold the same rows
/// under the same schema fingerprint equal, whatever order ties sort in.
uint64_t TableChecksum(const hetdb::Table& table);

/// The ORDER BY of a plan: the keys of the SortNode at its root, looking
/// through the Limit and Project nodes above it (they keep row order).
/// Empty when the plan's result order is unspecified.
std::vector<hetdb::SortKey> OrderKeys(const hetdb::PlanNodePtr& plan);

/// True if every adjacent pair of rows is in `keys` order (ties may come in
/// any order). False if a key column is missing from the table. The
/// checksum ignores row order, so this is what catches a result that holds
/// the right rows in the wrong order.
bool IsSortedBy(const hetdb::Table& table,
                const std::vector<hetdb::SortKey>& keys);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKSUM_H_

#include "checksum.h"

#include <cstring>
#include <string_view>
#include <vector>

#include "storage/column.h"

namespace perfbench {
namespace {

using hetdb::ColumnCast;
using hetdb::DataType;

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t CellHash(const hetdb::Column& column, size_t row) {
  switch (column.type()) {
    case DataType::kInt32:
      return static_cast<uint64_t>(
          ColumnCast<hetdb::Int32Column>(column).value(row));
    case DataType::kInt64:
      return static_cast<uint64_t>(
          ColumnCast<hetdb::Int64Column>(column).value(row));
    case DataType::kDouble: {
      const double v = ColumnCast<hetdb::DoubleColumn>(column).value(row);
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      return bits;
    }
    case DataType::kString:
      return HashBytes(ColumnCast<hetdb::StringColumn>(column).value(row));
  }
  return 0;
}

/// Three-way comparison of two cells of one column: <0, 0 or >0.
int CompareCells(const hetdb::Column& column, size_t a, size_t b) {
  auto three_way = [](const auto& x, const auto& y) {
    return x < y ? -1 : (y < x ? 1 : 0);
  };
  switch (column.type()) {
    case DataType::kInt32: {
      const auto& c = ColumnCast<hetdb::Int32Column>(column);
      return three_way(c.value(a), c.value(b));
    }
    case DataType::kInt64: {
      const auto& c = ColumnCast<hetdb::Int64Column>(column);
      return three_way(c.value(a), c.value(b));
    }
    case DataType::kDouble: {
      const auto& c = ColumnCast<hetdb::DoubleColumn>(column);
      return three_way(c.value(a), c.value(b));
    }
    case DataType::kString: {
      const auto& c = ColumnCast<hetdb::StringColumn>(column);
      return three_way(c.value(a), c.value(b));
    }
  }
  return 0;
}

}  // namespace

uint64_t TableChecksum(const hetdb::Table& table) {
  uint64_t schema = Mix(table.num_rows());
  for (const hetdb::ColumnPtr& column : table.columns()) {
    schema = Mix(schema ^ HashBytes(column->name()) ^
                 static_cast<uint64_t>(column->type()));
  }
  uint64_t rows = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const hetdb::ColumnPtr& column : table.columns()) {
      h = Mix(h ^ CellHash(*column, r));
    }
    rows += h;  // a sum keeps the fingerprint independent of row order
  }
  return Mix(schema ^ rows);
}

std::vector<hetdb::SortKey> OrderKeys(const hetdb::PlanNodePtr& plan) {
  for (const hetdb::PlanNode* node = plan.get(); node != nullptr;) {
    if (node->op() == hetdb::PlanOp::kSort) {
      return static_cast<const hetdb::SortNode*>(node)->keys();
    }
    const bool keeps_order = node->op() == hetdb::PlanOp::kLimit ||
                             node->op() == hetdb::PlanOp::kProject;
    if (!keeps_order || node->num_children() != 1) break;
    node = node->children()[0].get();
  }
  return {};
}

bool IsSortedBy(const hetdb::Table& table,
                const std::vector<hetdb::SortKey>& keys) {
  std::vector<std::pair<const hetdb::Column*, bool>> columns;
  for (const hetdb::SortKey& key : keys) {
    hetdb::Result<hetdb::ColumnPtr> column = table.GetColumn(key.column);
    if (!column.ok()) return false;
    columns.emplace_back(column.value().get(), key.ascending);
  }
  for (size_t r = 1; r < table.num_rows(); ++r) {
    for (const auto& [column, ascending] : columns) {
      const int order = CompareCells(*column, r - 1, r);
      if (order == 0) continue;
      if ((order < 0) != ascending) return false;
      break;
    }
  }
  return true;
}

}  // namespace perfbench

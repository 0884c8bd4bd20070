#ifndef CQP_EXEC_ROW_SET_H_
#define CQP_EXEC_ROW_SET_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/tuple.h"

namespace cqp::exec {

/// A materialized intermediate or final result: qualified column names plus
/// rows. Column names are "alias.attribute".
class RowSet {
 public:
  RowSet() = default;
  RowSet(std::vector<std::string> column_names,
         std::vector<storage::Tuple> rows)
      : column_names_(std::move(column_names)), rows_(std::move(rows)) {}

  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  const std::vector<storage::Tuple>& rows() const { return rows_; }
  std::vector<storage::Tuple>& mutable_rows() { return rows_; }
  size_t row_count() const { return rows_.size(); }
  size_t arity() const { return column_names_.size(); }

  void AddColumnName(std::string name) {
    column_names_.push_back(std::move(name));
  }
  void AddRow(storage::Tuple row) { rows_.push_back(std::move(row)); }

  /// Resolves a column reference against the qualified column names.
  /// Qualified refs match "qualifier.attribute" exactly (case-insensitive);
  /// unqualified refs must match exactly one column's attribute part.
  StatusOr<int> ResolveColumn(const sql::ColumnRef& ref) const;

  /// Pretty-prints up to `max_rows` rows with a header (for examples).
  std::string ToString(size_t max_rows = 20) const;

 private:
  std::vector<std::string> column_names_;
  std::vector<storage::Tuple> rows_;
};

/// Sorts `items` by (doi desc, row rendering asc): the deterministic order
/// of every grouped result. `row_of(item)` is the item's Tuple and
/// `doi_of(item)` its doi. Each row is rendered (Tuple::ToString) once and
/// the items are then moved into place. Renderings compare as text, so an
/// int 10 ranks before 9.
template <typename T, typename RowOf, typename DoiOf>
void RankByRendering(std::vector<T>& items, RowOf row_of, DoiOf doi_of) {
  std::vector<std::string> renderings;
  renderings.reserve(items.size());
  for (const T& item : items) renderings.push_back(row_of(item).ToString());
  // Renderings often share a long prefix (keys of one format). The 8 bytes
  // after the prefix all of them share, read big-endian, order most pairs
  // without a string comparison, and never against the string order.
  size_t common = renderings.empty() ? 0 : renderings[0].size();
  for (const std::string& r : renderings) {
    size_t n = 0;
    while (n < common && n < r.size() && r[n] == renderings[0][n]) ++n;
    common = n;
  }
  struct Key {
    double doi;
    uint64_t prefix;
    uint32_t index;
  };
  std::vector<Key> keys;
  keys.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    uint64_t prefix = 0;
    for (size_t j = common; j < common + 8; ++j) {
      prefix = prefix << 8 |
               (j < renderings[i].size()
                    ? static_cast<unsigned char>(renderings[i][j])
                    : 0u);
    }
    keys.push_back(Key{doi_of(items[i]), prefix, static_cast<uint32_t>(i)});
  }
  std::sort(keys.begin(), keys.end(), [&](const Key& a, const Key& b) {
    if (a.doi != b.doi) return a.doi > b.doi;
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return renderings[a.index] < renderings[b.index];
  });
  std::vector<T> ranked;
  ranked.reserve(items.size());
  for (const Key& key : keys) ranked.push_back(std::move(items[key.index]));
  items = std::move(ranked);
}

}  // namespace cqp::exec

#endif  // CQP_EXEC_ROW_SET_H_

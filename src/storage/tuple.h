#ifndef CQP_STORAGE_TUPLE_H_
#define CQP_STORAGE_TUPLE_H_

#include <string>
#include <vector>

#include "catalog/value.h"

namespace cqp::storage {

/// A row of typed values. Tuples are plain value containers; the schema
/// (column names/types) lives with the Table or the executor's RowSet.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<catalog::Value> values)
      : values_(std::move(values)) {}

  size_t arity() const { return values_.size(); }
  const catalog::Value& at(size_t i) const { return values_[i]; }
  const std::vector<catalog::Value>& values() const { return values_; }

  void Append(catalog::Value v) { values_.push_back(std::move(v)); }

  bool operator==(const Tuple& other) const { return values_ == other.values_; }
  bool operator!=(const Tuple& other) const { return !(*this == other); }

  size_t Hash() const;

  /// Storage footprint under the byte-accounted block layout.
  size_t ByteSize() const;

  /// "(v1, v2, ...)" rendering.
  std::string ToString() const;

 private:
  std::vector<catalog::Value> values_;
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

}  // namespace cqp::storage

#endif  // CQP_STORAGE_TUPLE_H_

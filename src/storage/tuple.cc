#include "storage/tuple.h"

namespace cqp::storage {

size_t Tuple::Hash() const {
  size_t h = 1469598103934665603ull;
  for (const catalog::Value& v : values_) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

size_t Tuple::ByteSize() const {
  size_t bytes = 0;
  for (const catalog::Value& v : values_) bytes += v.ByteSize();
  return bytes;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace cqp::storage

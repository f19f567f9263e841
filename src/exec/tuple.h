#ifndef PARADISE_EXEC_TUPLE_H_
#define PARADISE_EXEC_TUPLE_H_

#include <string>
#include <vector>

#include "common/logging.h"
#include "exec/value.h"

namespace paradise::exec {

/// A row. Cheap to copy (large attributes are shared by reference).
struct Tuple {
  std::vector<Value> values;

  Tuple() = default;
  explicit Tuple(std::vector<Value> v) : values(std::move(v)) {}

  const Value& at(size_t i) const {
    PARADISE_DCHECK(i < values.size());
    return values[i];
  }
  size_t size() const { return values.size(); }

  /// Bytes moved when this tuple crosses a network/disk boundary. Shallow:
  /// shared large attributes contribute only their handle (the pull model
  /// moves tile bytes separately, and only when needed).
  size_t WireBytes() const {
    size_t n = 4;
    for (const Value& v : values) n += v.StorageBytes(/*deep=*/false);
    return n;
  }

  void Serialize(ByteWriter* w) const {
    w->PutU32(static_cast<uint32_t>(values.size()));
    for (const Value& v : values) v.Serialize(w);
  }
  static Tuple Deserialize(ByteReader* r) {
    Tuple t;
    uint32_t n = r->GetU32();
    if (!r->Fits(n, 1)) return t;
    t.values.reserve(n);
    for (uint32_t i = 0; i < n; ++i) t.values.push_back(Value::Deserialize(r));
    return t;
  }

  std::string ToString() const {
    std::string out = "(";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ", ";
      out += values[i].ToString();
    }
    out += ")";
    return out;
  }
};

using TupleVec = std::vector<Tuple>;

struct Column {
  std::string name;
  ValueType type = ValueType::kNull;
};

/// Ordered column list describing tuples of one table or operator output.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Index of a named column; aborts if absent (schema bugs are programmer
  /// errors).
  size_t IndexOf(const std::string& name) const {
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (columns_[i].name == name) return i;
    }
    PARADISE_CHECK_MSG(false, ("no column " + name).c_str());
    return 0;
  }

  bool Has(const std::string& name) const {
    for (const Column& c : columns_) {
      if (c.name == name) return true;
    }
    return false;
  }

  /// Concatenation, used by joins (right columns prefixed on collision).
  static Schema Join(const Schema& left, const Schema& right) {
    std::vector<Column> cols = left.columns_;
    for (const Column& c : right.columns_) {
      Column copy = c;
      if (left.Has(c.name)) copy.name = "r." + c.name;
      cols.push_back(copy);
    }
    return Schema(std::move(cols));
  }

 private:
  std::vector<Column> columns_;
};

}  // namespace paradise::exec

#endif  // PARADISE_EXEC_TUPLE_H_

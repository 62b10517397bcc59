// The "simple value" of the paper: the payload stored in a database item
// when its state is certain, and the `v` half of each polyvalue pair.
//
// Values are a small tagged union (null / bool / int / real / string)
// with checked arithmetic returning Result<Value>: a polytransaction's
// alternative that divides by zero must fail cleanly for that branch, not
// crash the site.
#ifndef SRC_VALUE_VALUE_H_
#define SRC_VALUE_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

#include "src/common/status.h"

namespace polyvalue {

enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt = 2,
  kReal = 3,
  kString = 4,
};

const char* ValueTypeName(ValueType type);

class Value {
 public:
  // Null value.
  Value() : payload_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(std::in_place_type<bool>, b); }
  static Value Int(int64_t i) { return Value(std::in_place_type<int64_t>, i); }
  static Value Real(double d) { return Value(std::in_place_type<double>, d); }
  static Value Str(std::string s) {
    return Value(std::in_place_type<std::string>, std::move(s));
  }

  ValueType type() const {
    return static_cast<ValueType>(payload_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_real() const { return type() == ValueType::kReal; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_numeric() const { return is_int() || is_real(); }

  // Typed accessors; aborting on wrong type is a programming error, so
  // callers check type() (or use the As* helpers) first.
  bool bool_value() const { return std::get<bool>(payload_); }
  int64_t int_value() const { return std::get<int64_t>(payload_); }
  double real_value() const { return std::get<double>(payload_); }
  const std::string& string_value() const {
    return std::get<std::string>(payload_);
  }

  // Numeric coercion: ints widen to double.
  Result<double> AsReal() const;
  Result<int64_t> AsInt() const;
  Result<bool> AsBool() const;

  // Exact structural equality (no numeric cross-type coercion: Int(1) !=
  // Real(1.0); polyvalue pair-merging relies on this being exact).
  bool operator==(const Value& other) const { return payload_ == other.payload_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Total order for canonicalisation (by type, then payload).
  bool operator<(const Value& other) const;

  std::string ToString() const;
  size_t Hash() const;

 private:
  using Payload =
      std::variant<std::monostate, bool, int64_t, double, std::string>;
  // Builds the alternative in place. GCC 12 loses track of the index of
  // a temporary Payload moved into payload_ and, in the ASan+UBSan
  // build, warns (-Wmaybe-uninitialized) that its string may be unset.
  template <typename T, typename Arg>
  Value(std::in_place_type_t<T> type, Arg&& arg)
      : payload_(type, std::forward<Arg>(arg)) {}

  Payload payload_;
};

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

// Checked arithmetic / comparison on values.
//
// Numeric ops accept int+int (exact, overflow-checked), or any numeric mix
// (computed in double). String '+' concatenates. Anything else is an
// InvalidArgument error.
Result<Value> Add(const Value& a, const Value& b);
Result<Value> Sub(const Value& a, const Value& b);
Result<Value> Mul(const Value& a, const Value& b);
Result<Value> Div(const Value& a, const Value& b);
Result<Value> Neg(const Value& a);
Result<Value> Min(const Value& a, const Value& b);
Result<Value> Max(const Value& a, const Value& b);

// Comparisons: numeric mixes compare as doubles; strings lexicographically;
// bools as false<true. Mixed non-numeric types are errors.
Result<bool> Less(const Value& a, const Value& b);
Result<bool> LessEq(const Value& a, const Value& b);
Result<bool> Greater(const Value& a, const Value& b);
Result<bool> GreaterEq(const Value& a, const Value& b);

}  // namespace polyvalue

namespace std {
template <>
struct hash<polyvalue::Value> {
  size_t operator()(const polyvalue::Value& v) const noexcept {
    return v.Hash();
  }
};
}  // namespace std

#endif  // SRC_VALUE_VALUE_H_

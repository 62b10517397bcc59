#include "src/net/codec.h"

namespace polyvalue {

namespace {
// Sanity caps: a peer (or a corrupt frame) cannot make us allocate
// unbounded structures.
constexpr uint64_t kMaxTermsPerCondition = 1 << 16;
constexpr uint64_t kMaxLiteralsPerTerm = 1 << 12;
constexpr uint64_t kMaxPairsPerPolyValue = 1 << 16;
}  // namespace

void EncodeValue(const Value& v, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w->PutBool(v.bool_value());
      break;
    case ValueType::kInt:
      w->PutSigned(v.int_value());
      break;
    case ValueType::kReal:
      w->PutDouble(v.real_value());
      break;
    case ValueType::kString:
      w->PutString(v.string_value());
      break;
  }
}

Result<Value> DecodeValue(ByteReader* r) {
  POLYV_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      POLYV_ASSIGN_OR_RETURN(bool b, r->GetBool());
      return Value::Bool(b);
    }
    case ValueType::kInt: {
      POLYV_ASSIGN_OR_RETURN(int64_t i, r->GetSigned());
      return Value::Int(i);
    }
    case ValueType::kReal: {
      POLYV_ASSIGN_OR_RETURN(double d, r->GetDouble());
      return Value::Real(d);
    }
    case ValueType::kString: {
      POLYV_ASSIGN_OR_RETURN(std::string s, r->GetString());
      return Value::Str(std::move(s));
    }
  }
  return DataLossError("bad value tag");
}

void EncodeCondition(const Condition& c, ByteWriter* w) {
  w->PutVarint(c.terms().size());
  for (const Term& t : c.terms()) {
    w->PutVarint(t.literals().size());
    for (const Literal& lit : t.literals()) {
      w->PutVarint(lit.txn.value());
      w->PutBool(lit.positive);
    }
  }
}

Result<Condition> DecodeCondition(ByteReader* r) {
  POLYV_ASSIGN_OR_RETURN(uint64_t n_terms, r->GetVarint());
  if (n_terms > kMaxTermsPerCondition) {
    return DataLossError("condition too large");
  }
  std::vector<Term> terms;
  terms.reserve(n_terms);
  for (uint64_t i = 0; i < n_terms; ++i) {
    POLYV_ASSIGN_OR_RETURN(uint64_t n_lits, r->GetVarint());
    if (n_lits > kMaxLiteralsPerTerm) {
      return DataLossError("term too large");
    }
    std::vector<Literal> literals;
    literals.reserve(n_lits);
    for (uint64_t j = 0; j < n_lits; ++j) {
      POLYV_ASSIGN_OR_RETURN(uint64_t txn, r->GetVarint());
      POLYV_ASSIGN_OR_RETURN(bool positive, r->GetBool());
      if (txn == TxnId::kInvalid) {
        return DataLossError("invalid txn id in condition");
      }
      literals.push_back({TxnId(txn), positive});
    }
    terms.push_back(Term::Of(std::move(literals)));
  }
  return Condition::Of(std::move(terms));
}

void EncodePolyValue(const PolyValue& pv, ByteWriter* w) {
  w->PutVarint(pv.pairs().size());
  for (const PolyPair& p : pv.pairs()) {
    EncodeValue(p.value, w);
    EncodeCondition(p.condition, w);
  }
}

Result<PolyValue> DecodePolyValue(ByteReader* r) {
  POLYV_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n == 0 || n > kMaxPairsPerPolyValue) {
    return DataLossError("bad polyvalue pair count");
  }
  std::vector<PolyPair> pairs;
  pairs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    POLYV_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
    POLYV_ASSIGN_OR_RETURN(Condition c, DecodeCondition(r));
    pairs.push_back({std::move(v), std::move(c)});
  }
  return PolyValue::Of(std::move(pairs));
}

}  // namespace polyvalue

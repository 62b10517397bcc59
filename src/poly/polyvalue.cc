#include "src/poly/polyvalue.h"

#include <algorithm>
#include <map>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace polyvalue {

PolyValue PolyValue::Certain(Value v) {
  return PolyValue({{std::move(v), Condition::True()}});
}

PolyValue PolyValue::Of(std::vector<PolyPair> pairs) {
  return PolyValue(std::move(pairs));
}

PolyValue PolyValue::InstallUncertain(TxnId txn, const PolyValue& computed,
                                      const PolyValue& previous) {
  POLYV_CHECK(txn.valid());
  const Condition committed = Condition::Committed(txn);
  const Condition aborted = Condition::Aborted(txn);
  std::vector<PolyPair> pairs;
  pairs.reserve(computed.pairs_.size() + previous.pairs_.size());
  for (const PolyPair& p : computed.pairs_) {
    pairs.push_back({p.value, Condition::And(p.condition, committed)});
  }
  for (const PolyPair& p : previous.pairs_) {
    pairs.push_back({p.value, Condition::And(p.condition, aborted)});
  }
  return PolyValue(std::move(pairs));
}

void PolyValue::Canonicalize() {
  // Rule 3: drop pairs whose condition is (syntactically, in canonical
  // SOP) false.
  // Rule 2: merge pairs with equal values by OR-ing conditions.
  std::map<Value, Condition> merged;
  for (PolyPair& p : pairs_) {
    if (p.condition.is_false()) {
      continue;
    }
    auto [it, inserted] = merged.emplace(std::move(p.value), p.condition);
    if (!inserted) {
      it->second = Condition::Or(it->second, p.condition);
    }
  }
  pairs_.clear();
  pairs_.reserve(merged.size());
  for (auto& [value, condition] : merged) {
    pairs_.push_back({value, std::move(condition)});
  }
  // A polyvalue must describe *some* value; an empty pair set can only
  // arise from caller error (all conditions false).
  if (pairs_.empty()) {
    pairs_.push_back({Value::Null(), Condition::True()});
    return;
  }
  // If any single pair's condition simplifies to TRUE, disjointness of the
  // evolution rules means it is the only live pair.
  if (pairs_.size() > 1) {
    for (const PolyPair& p : pairs_) {
      if (p.condition.is_true()) {
        PolyPair only = p;
        pairs_ = {std::move(only)};
        break;
      }
    }
  }
}

const Value& PolyValue::certain_value() const {
  POLYV_CHECK_MSG(is_certain(), "polyvalue is uncertain: " << ToString());
  return pairs_[0].value;
}

std::optional<Value> PolyValue::TryCertain() const {
  if (is_certain()) {
    return pairs_[0].value;
  }
  return std::nullopt;
}

PolyValue PolyValue::Reduce(TxnId txn, bool committed) const {
  std::vector<PolyPair> out;
  out.reserve(pairs_.size());
  for (const PolyPair& p : pairs_) {
    out.push_back({p.value, p.condition.Assume(txn, committed)});
  }
  return PolyValue(std::move(out));
}

PolyValue PolyValue::ReduceAll(
    const std::unordered_map<TxnId, bool>& outcomes) const {
  std::vector<PolyPair> out;
  out.reserve(pairs_.size());
  for (const PolyPair& p : pairs_) {
    Condition c = p.condition;
    for (const auto& [txn, committed] : outcomes) {
      c = c.Assume(txn, committed);
      if (c.is_false()) {
        break;
      }
    }
    out.push_back({p.value, std::move(c)});
  }
  return PolyValue(std::move(out));
}

std::vector<TxnId> PolyValue::Dependencies() const {
  std::vector<TxnId> all;
  for (const PolyPair& p : pairs_) {
    const std::vector<TxnId> vars = p.condition.Variables();
    all.insert(all.end(), vars.begin(), vars.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

std::vector<Value> PolyValue::PossibleValues() const {
  std::vector<Value> out;
  out.reserve(pairs_.size());
  for (const PolyPair& p : pairs_) {
    out.push_back(p.value);
  }
  return out;
}

Result<Value> PolyValue::MinPossible() const {
  Value best = pairs_[0].value;
  for (size_t i = 1; i < pairs_.size(); ++i) {
    POLYV_ASSIGN_OR_RETURN(best, Min(best, pairs_[i].value));
  }
  return best;
}

Result<Value> PolyValue::MaxPossible() const {
  Value best = pairs_[0].value;
  for (size_t i = 1; i < pairs_.size(); ++i) {
    POLYV_ASSIGN_OR_RETURN(best, Max(best, pairs_[i].value));
  }
  return best;
}

bool PolyValue::ForAllValues(
    const std::function<bool(const Value&)>& predicate) const {
  for (const PolyPair& p : pairs_) {
    if (!predicate(p.value)) {
      return false;
    }
  }
  return true;
}

bool PolyValue::ExistsValue(
    const std::function<bool(const Value&)>& predicate) const {
  for (const PolyPair& p : pairs_) {
    if (predicate(p.value)) {
      return true;
    }
  }
  return false;
}

namespace {

// Probability that `c` holds, assuming independent commit events.
double ConditionProbability(
    const Condition& c,
    const std::unordered_map<TxnId, double>& commit_probability,
    double fallback) {
  if (c.is_true()) {
    return 1.0;
  }
  if (c.is_false()) {
    return 0.0;
  }
  const TxnId pivot = c.Variables().front();
  auto it = commit_probability.find(pivot);
  const double p = it == commit_probability.end() ? fallback : it->second;
  return p * ConditionProbability(c.Assume(pivot, true), commit_probability,
                                  fallback) +
         (1.0 - p) * ConditionProbability(c.Assume(pivot, false),
                                          commit_probability, fallback);
}

}  // namespace

Result<double> PolyValue::ExpectedValue(
    const std::unordered_map<TxnId, double>& commit_probability,
    double default_commit_probability) const {
  double expectation = 0.0;
  for (const PolyPair& p : pairs_) {
    POLYV_ASSIGN_OR_RETURN(double v, p.value.AsReal());
    expectation += v * ConditionProbability(p.condition, commit_probability,
                                            default_commit_probability);
  }
  return expectation;
}

bool PolyValue::Validate() const {
  std::vector<Condition> conditions;
  conditions.reserve(pairs_.size());
  for (const PolyPair& p : pairs_) {
    conditions.push_back(p.condition);
  }
  return ConditionsCompleteAndDisjoint(conditions);
}

Result<Value> PolyValue::ValueUnder(
    const std::unordered_map<TxnId, bool>& outcomes) const {
  for (const PolyPair& p : pairs_) {
    bool covered = true;
    for (TxnId txn : p.condition.Variables()) {
      if (outcomes.find(txn) == outcomes.end()) {
        covered = false;
        break;
      }
    }
    if (!covered) {
      return InvalidArgumentError(
          "incomplete outcome assignment for " + ToString());
    }
    if (p.condition.Evaluate(outcomes)) {
      return p.value;
    }
  }
  return InternalError("no alternative satisfied — polyvalue incomplete: " +
                       ToString());
}

std::string PolyValue::ToString() const {
  if (is_certain()) {
    return pairs_[0].value.ToString();
  }
  std::vector<std::string> parts;
  parts.reserve(pairs_.size());
  for (const PolyPair& p : pairs_) {
    parts.push_back(
        StrCat(p.value.ToString(), " if ", p.condition.ToString()));
  }
  return StrCat("{", StrJoin(parts, "; "), "}");
}

}  // namespace polyvalue

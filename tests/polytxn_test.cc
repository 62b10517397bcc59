// Unit tests for polytransaction execution (§3.2).
#include "src/txn/polytxn.h"

#include <gtest/gtest.h>

#include "src/common/strings.h"

namespace polyvalue {
namespace {

const TxnId kT1(1);
const TxnId kT2(2);

PolyValue TwoWay(TxnId txn, int64_t if_commit, int64_t if_abort) {
  return PolyValue::InstallUncertain(
      txn, PolyValue::Certain(Value::Int(if_commit)),
      PolyValue::Certain(Value::Int(if_abort)));
}

TEST(PolyTxnTest, CertainInputsSingleAlternative) {
  std::map<ItemKey, PolyValue> inputs = {
      {"x", PolyValue::Certain(Value::Int(5))}};
  const auto result = ExecutePolyTransaction(
      inputs, inputs,
      [](const TxnReads& reads) {
        TxnEffect e;
        e.writes["x"] = Value::Int(reads.IntAt("x") + 1);
        e.output = Value::Int(reads.IntAt("x"));
        return e;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->alternatives_executed, 1u);
  EXPECT_TRUE(result->writes.at("x").is_certain());
  EXPECT_EQ(result->writes.at("x").certain_value(), Value::Int(6));
  EXPECT_EQ(result->output.certain_value(), Value::Int(5));
}

TEST(PolyTxnTest, UncertainInputForksAlternatives) {
  std::map<ItemKey, PolyValue> inputs = {{"x", TwoWay(kT1, 10, 20)}};
  const auto result = ExecutePolyTransaction(
      inputs, inputs,
      [](const TxnReads& reads) {
        TxnEffect e;
        e.writes["x"] = Value::Int(reads.IntAt("x") * 2);
        return e;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->alternatives_executed, 2u);
  const PolyValue& out = result->writes.at("x");
  EXPECT_EQ(out.ValueUnder({{kT1, true}}).value(), Value::Int(20));
  EXPECT_EQ(out.ValueUnder({{kT1, false}}).value(), Value::Int(40));
  EXPECT_TRUE(out.Validate());
}

TEST(PolyTxnTest, TwoIndependentUncertainInputsFourAlternatives) {
  std::map<ItemKey, PolyValue> inputs = {{"x", TwoWay(kT1, 1, 2)},
                                         {"y", TwoWay(kT2, 10, 20)}};
  const auto result = ExecutePolyTransaction(
      inputs, {},
      [](const TxnReads& reads) {
        TxnEffect e;
        e.writes["sum"] = Value::Int(reads.IntAt("x") + reads.IntAt("y"));
        return e;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->alternatives_executed, 4u);
  const PolyValue& sum = result->writes.at("sum");
  EXPECT_EQ(sum.size(), 4u);
  EXPECT_EQ(sum.ValueUnder({{kT1, false}, {kT2, true}}).value(),
            Value::Int(12));
}

TEST(PolyTxnTest, CorrelatedInputsPruneFalseCombinations) {
  // Both items depend on the same transaction: 2 reachable combinations,
  // 2 pruned.
  std::map<ItemKey, PolyValue> inputs = {{"x", TwoWay(kT1, 1, 2)},
                                         {"y", TwoWay(kT1, 10, 20)}};
  const auto result = ExecutePolyTransaction(
      inputs, {},
      [](const TxnReads& reads) {
        TxnEffect e;
        e.writes["sum"] = Value::Int(reads.IntAt("x") + reads.IntAt("y"));
        return e;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->alternatives_executed, 2u);
  EXPECT_EQ(result->alternatives_pruned, 2u);
  const PolyValue& sum = result->writes.at("sum");
  EXPECT_EQ(sum.ValueUnder({{kT1, true}}).value(), Value::Int(11));
  EXPECT_EQ(sum.ValueUnder({{kT1, false}}).value(), Value::Int(22));
}

TEST(PolyTxnTest, UnwrittenItemFallsBackToPreviousValue) {
  // §3.2: an alternative that does not write an item contributes the
  // item's previous value under its condition.
  std::map<ItemKey, PolyValue> inputs = {{"x", TwoWay(kT1, 100, 0)}};
  std::map<ItemKey, PolyValue> previous = {
      {"flag", PolyValue::Certain(Value::Str("old"))}};
  const auto result = ExecutePolyTransaction(
      inputs, previous,
      [](const TxnReads& reads) {
        TxnEffect e;
        if (reads.IntAt("x") >= 50) {
          e.writes["flag"] = Value::Str("rich");
        }
        return e;
      });
  ASSERT_TRUE(result.ok());
  const PolyValue& flag = result->writes.at("flag");
  EXPECT_EQ(flag.ValueUnder({{kT1, true}}).value(), Value::Str("rich"));
  EXPECT_EQ(flag.ValueUnder({{kT1, false}}).value(), Value::Str("old"));
  EXPECT_TRUE(flag.Validate());
}

TEST(PolyTxnTest, AlternativesAgreeingProduceCertainOutput) {
  // §3.4/§5: a reservation can be granted when every alternative agrees.
  std::map<ItemKey, PolyValue> inputs = {{"seats", TwoWay(kT1, 96, 97)}};
  const auto result = ExecutePolyTransaction(
      inputs, inputs,
      [](const TxnReads& reads) {
        TxnEffect e;
        e.output = Value::Bool(reads.IntAt("seats") < 100);
        return e;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->output.is_certain());
  EXPECT_EQ(result->output.certain_value(), Value::Bool(true));
  EXPECT_TRUE(result->writes.empty());
}

TEST(PolyTxnTest, DisagreeingOutputsStayUncertain) {
  std::map<ItemKey, PolyValue> inputs = {{"seats", TwoWay(kT1, 99, 101)}};
  const auto result = ExecutePolyTransaction(
      inputs, inputs,
      [](const TxnReads& reads) {
        TxnEffect e;
        e.output = Value::Bool(reads.IntAt("seats") < 100);
        return e;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->output.is_certain());
}

TEST(PolyTxnTest, AnyAlternativeAbortAbortsWhole) {
  std::map<ItemKey, PolyValue> inputs = {{"bal", TwoWay(kT1, 100, 10)}};
  const auto result = ExecutePolyTransaction(
      inputs, inputs,
      [](const TxnReads& reads) {
        if (reads.IntAt("bal") < 50) {
          return TxnEffect::Abort("insufficient funds");
        }
        TxnEffect e;
        e.writes["bal"] = Value::Int(reads.IntAt("bal") - 50);
        return e;
      });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_EQ(result.status().message(), "insufficient funds");
}

TEST(PolyTxnTest, FanOutCapEnforced) {
  std::map<ItemKey, PolyValue> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.emplace(StrCat("k", i),
                   TwoWay(TxnId(i + 1), i, i + 100));
  }
  PolyTxnOptions options;
  options.max_alternatives = 16;  // 2^6 = 64 > 16
  const auto result = ExecutePolyTransaction(
      inputs, {},
      [](const TxnReads&) { return TxnEffect{}; }, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PolyTxnTest, NestedDependenciesCompose) {
  // An input that depends on two transactions (three alternatives).
  const PolyValue nested = PolyValue::InstallUncertain(
      kT2, PolyValue::Certain(Value::Int(7)), TwoWay(kT1, 5, 3));
  std::map<ItemKey, PolyValue> inputs = {{"x", nested}};
  const auto result = ExecutePolyTransaction(
      inputs, inputs,
      [](const TxnReads& reads) {
        TxnEffect e;
        e.writes["x"] = Value::Int(reads.IntAt("x") * 10);
        return e;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->alternatives_executed, 3u);
  const PolyValue& out = result->writes.at("x");
  EXPECT_EQ(out.ValueUnder({{kT1, true}, {kT2, true}}).value(),
            Value::Int(70));
  EXPECT_EQ(out.ValueUnder({{kT1, true}, {kT2, false}}).value(),
            Value::Int(50));
  EXPECT_EQ(out.ValueUnder({{kT1, false}, {kT2, false}}).value(),
            Value::Int(30));
  EXPECT_TRUE(out.Validate());
}

TEST(PolyTxnTest, EqualResultsCollapseToCertain) {
  // Uncertainty that cannot affect the computation disappears.
  std::map<ItemKey, PolyValue> inputs = {{"x", TwoWay(kT1, 3, -3)}};
  const auto result = ExecutePolyTransaction(
      inputs, inputs,
      [](const TxnReads& reads) {
        TxnEffect e;
        const int64_t x = reads.IntAt("x");
        e.writes["sq"] = Value::Int(x * x);
        return e;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->writes.at("sq").is_certain());
  EXPECT_EQ(result->writes.at("sq").certain_value(), Value::Int(9));
}

}  // namespace
}  // namespace polyvalue

// Experiment X2 (extension): micro-costs of the polyvalue machinery —
// the "additional storage and processing" §4 argues stays small.
//
// google-benchmark microbenches over width sweeps:
//   * polyvalue construction (InstallUncertain) at depth d,
//   * reduction (outcome substitution + re-canonicalisation),
//   * lifted arithmetic across alternative counts,
//   * polytransaction execution fan-out,
//   * condition algebra (And/Or over k variables, Blake canonicalisation),
//   * exact complete/disjoint validation (the BDD-backed debug check),
//   * wire codec round trips.
#include <benchmark/benchmark.h>

#include "src/common/strings.h"
#include "src/net/codec.h"
#include "src/poly/poly_ops.h"
#include "src/poly/polyvalue.h"
#include "src/txn/polytxn.h"

namespace polyvalue {
namespace {

// A polyvalue stacked `depth` deep (depth+1 alternatives).
PolyValue Stacked(int depth) {
  PolyValue pv = PolyValue::Certain(Value::Int(0));
  for (int i = 0; i < depth; ++i) {
    pv = PolyValue::InstallUncertain(
        TxnId(i + 1), PolyValue::Certain(Value::Int(i + 1)), pv);
  }
  return pv;
}

void BM_InstallUncertain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const PolyValue previous = Stacked(depth);
  const PolyValue computed = PolyValue::Certain(Value::Int(999));
  uint64_t txn = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PolyValue::InstallUncertain(TxnId(txn++), computed, previous));
  }
  state.SetLabel(std::to_string(depth + 1) + " alternatives");
}
BENCHMARK(BM_InstallUncertain)->Arg(0)->Arg(1)->Arg(3)->Arg(7);

void BM_Reduce(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const PolyValue pv = Stacked(depth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pv.Reduce(TxnId(depth), true));
  }
}
BENCHMARK(BM_Reduce)->Arg(1)->Arg(3)->Arg(7);

void BM_ReduceAllToCertain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const PolyValue pv = Stacked(depth);
  std::unordered_map<TxnId, bool> outcomes;
  for (int i = 0; i < depth; ++i) {
    outcomes.emplace(TxnId(i + 1), (i % 2) == 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pv.ReduceAll(outcomes));
  }
}
BENCHMARK(BM_ReduceAllToCertain)->Arg(1)->Arg(3)->Arg(7);

void BM_LiftedAdd(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const PolyValue a = Stacked(depth);
  const PolyValue b = PolyValue::Certain(Value::Int(7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PolyAdd(a, b));
  }
}
BENCHMARK(BM_LiftedAdd)->Arg(1)->Arg(3)->Arg(7);

void BM_LiftedAddBothUncertain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const PolyValue a = Stacked(depth);
  // Independent transaction set for b: cross product of alternatives.
  PolyValue b = PolyValue::Certain(Value::Int(0));
  for (int i = 0; i < depth; ++i) {
    b = PolyValue::InstallUncertain(
        TxnId(100 + i), PolyValue::Certain(Value::Int(50 + i)), b);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PolyAdd(a, b));
  }
}
BENCHMARK(BM_LiftedAddBothUncertain)->Arg(1)->Arg(2)->Arg(3);

void BM_PolyTxnExecute(benchmark::State& state) {
  const int uncertain_inputs = static_cast<int>(state.range(0));
  std::map<ItemKey, PolyValue> inputs;
  for (int i = 0; i < uncertain_inputs; ++i) {
    inputs.emplace(
        StrCat("k", i),
        PolyValue::InstallUncertain(TxnId(i + 1),
                                    PolyValue::Certain(Value::Int(i)),
                                    PolyValue::Certain(Value::Int(-i))));
  }
  const TxnLogic logic = [](const TxnReads& reads) {
    TxnEffect e;
    int64_t sum = 0;
    for (const auto& [key, value] : reads.All()) {
      sum += value.int_value();
    }
    e.writes["sum"] = Value::Int(sum);
    return e;
  };
  PolyTxnOptions options;
  options.max_alternatives = 4096;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExecutePolyTransaction(inputs, {}, logic, options));
  }
  state.SetLabel(std::to_string(1 << uncertain_inputs) + " alternatives");
}
BENCHMARK(BM_PolyTxnExecute)->Arg(1)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_ConditionAndOr(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  Condition a = Condition::True();
  Condition b = Condition::True();
  for (int i = 0; i < vars; ++i) {
    a = Condition::And(a, (i % 2) ? Condition::Committed(TxnId(i + 1))
                                  : Condition::Aborted(TxnId(i + 1)));
    b = Condition::Or(b, Condition::Committed(TxnId(i + 50)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Condition::And(a, b));
    benchmark::DoNotOptimize(Condition::Or(a, b));
  }
}
BENCHMARK(BM_ConditionAndOr)->Arg(2)->Arg(4)->Arg(8);

void BM_ValidateCompleteDisjoint(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const PolyValue pv = Stacked(depth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pv.Validate());
  }
  state.SetLabel(std::to_string(depth) + " txn deps (exact check)");
}
BENCHMARK(BM_ValidateCompleteDisjoint)->Arg(2)->Arg(4)->Arg(8);

void BM_CodecRoundTrip(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const PolyValue pv = Stacked(depth);
  for (auto _ : state) {
    ByteWriter w;
    EncodePolyValue(pv, &w);
    ByteReader r(w.buffer());
    benchmark::DoNotOptimize(DecodePolyValue(&r));
  }
  ByteWriter size_probe;
  EncodePolyValue(pv, &size_probe);
  state.SetLabel(std::to_string(size_probe.size()) + " bytes");
}
BENCHMARK(BM_CodecRoundTrip)->Arg(1)->Arg(3)->Arg(7);

void BM_CertainFastPath(benchmark::State& state) {
  // The cost a failure-free database pays: operating on certain values
  // through the polyvalue interface.
  const PolyValue a = PolyValue::Certain(Value::Int(41));
  const PolyValue b = PolyValue::Certain(Value::Int(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PolyAdd(a, b));
  }
}
BENCHMARK(BM_CertainFastPath);

}  // namespace
}  // namespace polyvalue

BENCHMARK_MAIN();

// Unit and fuzz tests for the Value/Condition/PolyValue codecs.
#include "src/net/codec.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace polyvalue {
namespace {

const TxnId kT1(1);
const TxnId kT2(2);

template <typename T, typename Enc, typename Dec>
T RoundTrip(const T& input, Enc encode, Dec decode) {
  ByteWriter w;
  encode(input, &w);
  ByteReader r(w.buffer());
  auto result = decode(&r);
  EXPECT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(r.AtEnd());
  return std::move(result).value();
}

TEST(CodecTest, ValueRoundTripAllTypes) {
  for (const Value& v :
       {Value::Null(), Value::Bool(true), Value::Bool(false),
        Value::Int(-123456789), Value::Int(INT64_MAX), Value::Real(2.5),
        Value::Real(-1e300), Value::Str(""), Value::Str("payload"),
        Value::Str(std::string("\0\xff", 2))}) {
    EXPECT_EQ(RoundTrip(v, EncodeValue, DecodeValue), v);
  }
}

TEST(CodecTest, ConditionRoundTrip) {
  const Condition c = Condition::Or(
      Condition::And(Condition::Committed(kT1), Condition::Aborted(kT2)),
      Condition::Committed(TxnId(99)));
  EXPECT_EQ(RoundTrip(c, EncodeCondition, DecodeCondition), c);
  EXPECT_EQ(RoundTrip(Condition::True(), EncodeCondition, DecodeCondition),
            Condition::True());
  EXPECT_EQ(RoundTrip(Condition::False(), EncodeCondition, DecodeCondition),
            Condition::False());
}

TEST(CodecTest, PolyValueRoundTrip) {
  const PolyValue pv = PolyValue::InstallUncertain(
      kT2,
      PolyValue::InstallUncertain(kT1, PolyValue::Certain(Value::Int(1)),
                                  PolyValue::Certain(Value::Int(2))),
      PolyValue::Certain(Value::Str("old")));
  EXPECT_EQ(RoundTrip(pv, EncodePolyValue, DecodePolyValue), pv);
}

TEST(CodecTest, CertainPolyValueRoundTrip) {
  const PolyValue pv = PolyValue::Certain(Value::Real(3.5));
  EXPECT_EQ(RoundTrip(pv, EncodePolyValue, DecodePolyValue), pv);
}

TEST(CodecTest, DecodeRejectsBadValueTag) {
  ByteWriter w;
  w.PutU8(250);
  ByteReader r(w.buffer());
  EXPECT_FALSE(DecodeValue(&r).ok());
}

TEST(CodecTest, DecodeRejectsEmptyPolyValue) {
  ByteWriter w;
  w.PutVarint(0);  // zero pairs
  ByteReader r(w.buffer());
  EXPECT_FALSE(DecodePolyValue(&r).ok());
}

TEST(CodecTest, DecodeRejectsOversizedCounts) {
  ByteWriter w;
  w.PutVarint(1ULL << 40);  // absurd term count
  ByteReader r(w.buffer());
  EXPECT_FALSE(DecodeCondition(&r).ok());
}

TEST(CodecTest, DecodeRejectsInvalidTxnId) {
  ByteWriter w;
  w.PutVarint(1);                  // one term
  w.PutVarint(1);                  // one literal
  w.PutVarint(TxnId::kInvalid);    // bad id
  w.PutBool(true);
  ByteReader r(w.buffer());
  EXPECT_FALSE(DecodeCondition(&r).ok());
}

TEST(CodecTest, TruncatedInputsNeverCrash) {
  // Encode a rich polyvalue, then decode every prefix: each must return
  // cleanly (usually DATA_LOSS), never crash or over-read.
  const PolyValue pv = PolyValue::InstallUncertain(
      kT2,
      PolyValue::InstallUncertain(kT1, PolyValue::Certain(Value::Int(10)),
                                  PolyValue::Certain(Value::Str("x"))),
      PolyValue::Certain(Value::Real(1.25)));
  ByteWriter w;
  EncodePolyValue(pv, &w);
  const std::string full = w.buffer();
  for (size_t len = 0; len < full.size(); ++len) {
    ByteReader r(full.data(), len);
    const Result<PolyValue> result = DecodePolyValue(&r);
    // Prefixes may happen to decode if a trailing pair is cut cleanly —
    // but only shorter content, never garbage. Mostly they error.
    if (result.ok()) {
      EXPECT_LE(result.value().pairs().size(), pv.pairs().size());
    }
  }
}

TEST(CodecTest, RandomBytesNeverCrash) {
  Rng rng(777);
  for (int trial = 0; trial < 500; ++trial) {
    std::string noise;
    const size_t len = rng.NextBelow(64);
    for (size_t i = 0; i < len; ++i) {
      noise.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    ByteReader r(noise);
    (void)DecodePolyValue(&r);  // must not crash / UB
    ByteReader r2(noise);
    (void)DecodeCondition(&r2);
    ByteReader r3(noise);
    (void)DecodeValue(&r3);
  }
}

TEST(CodecTest, FuzzRoundTripRandomPolyValues) {
  Rng rng(4242);
  for (int trial = 0; trial < 100; ++trial) {
    PolyValue pv = PolyValue::Certain(Value::Int(rng.NextInt(-5, 5)));
    const int layers = rng.NextBelow(4);
    for (int i = 0; i < layers; ++i) {
      pv = PolyValue::InstallUncertain(
          TxnId(rng.NextBelow(6) + 1),
          PolyValue::Certain(Value::Int(rng.NextInt(-5, 5))), pv);
    }
    EXPECT_EQ(RoundTrip(pv, EncodePolyValue, DecodePolyValue), pv);
  }
}

}  // namespace
}  // namespace polyvalue

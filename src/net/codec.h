// Wire codecs for the data-model types (Value, Condition, PolyValue).
//
// Encode* appends to a ByteWriter; Decode* consumes from a ByteReader and
// fails with DATA_LOSS on malformed input. Round-tripping is covered by
// fuzz-flavoured property tests.
#ifndef SRC_NET_CODEC_H_
#define SRC_NET_CODEC_H_

#include "src/common/status.h"
#include "src/condition/condition.h"
#include "src/net/wire.h"
#include "src/poly/polyvalue.h"
#include "src/value/value.h"

namespace polyvalue {

void EncodeValue(const Value& v, ByteWriter* w);
Result<Value> DecodeValue(ByteReader* r);

void EncodeCondition(const Condition& c, ByteWriter* w);
Result<Condition> DecodeCondition(ByteReader* r);

void EncodePolyValue(const PolyValue& pv, ByteWriter* w);
Result<PolyValue> DecodePolyValue(ByteReader* r);

}  // namespace polyvalue

#endif  // SRC_NET_CODEC_H_

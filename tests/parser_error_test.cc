// Error-path coverage for the condition text parser: malformed
// predicates, truncated input, numeric-range edges, and the
// operator-precedence corners where '·' binds tighter than '+'. Every
// rejection must come back as INVALID_ARGUMENT with a position-bearing
// message — parse errors are caller errors, never crashes — and the CI
// ASan/UBSan job runs this binary to prove the error paths are clean
// under sanitizers too (no leaks from partially built conditions, no
// out-of-bounds peeks on truncated text).
#include "src/condition/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/strings.h"

namespace polyvalue {
namespace {

// Every malformed input must yield INVALID_ARGUMENT (not a crash, not
// some other code) and carry an offset in its message.
void ExpectRejected(const std::string& text) {
  const Result<Condition> result = ParseCondition(text);
  ASSERT_FALSE(result.ok()) << "'" << text << "' unexpectedly parsed";
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << "'" << text << "'";
  EXPECT_NE(result.status().message().find("offset"), std::string::npos)
      << "parse error for '" << text
      << "' lacks a position: " << result.status().message();
}

TEST(ParserErrorTest, EmptyAndWhitespaceOnly) {
  ExpectRejected("");
  ExpectRejected("   ");
  ExpectRejected("\t\n");
}

TEST(ParserErrorTest, MalformedPredicates) {
  ExpectRejected("X1");        // unknown variable prefix
  ExpectRejected("T");         // 'T' with no digits
  ExpectRejected("Tx");        // non-numeric id
  ExpectRejected("1T");        // digits before the prefix
  ExpectRejected("T-1");       // negative id
  ExpectRejected("T1.");       // dot with no seq digits
  ExpectRejected("T.5");       // dot with no site digits
  ExpectRejected("T1..2");     // double dot
  ExpectRejected("truee");     // trailing garbage on a keyword
  ExpectRejected("True");      // keywords are case-sensitive
  ExpectRejected("FALSE");
}

TEST(ParserErrorTest, TruncatedInput) {
  // Every proper prefix of a valid expression that ends mid-production
  // must be rejected, never read past the end of the buffer.
  const std::string valid = "T1·¬T2 + T3.7";
  ASSERT_TRUE(ParseCondition(valid).ok());
  ExpectRejected("T1 +");      // sum missing its right operand
  ExpectRejected("T1 &");      // product missing its right operand
  ExpectRejected("T1 & !");    // negation with nothing to negate
  ExpectRejected("!");         // lone negation
  ExpectRejected("¬");         // lone negation (multibyte form)
  ExpectRejected("T1 + T2 &"); // truncated inside the second term
}

TEST(ParserErrorTest, ByteLevelTruncationNeverCrashes) {
  // Chop a valid multibyte expression at every byte boundary: each
  // prefix either parses (when it happens to end on a production
  // boundary) or is cleanly rejected. Splitting the UTF-8 '·' or '¬'
  // mid-sequence must not trip the parser (exercised under ASan).
  const std::string valid = "T1·¬T2 + T3.7·!T4";
  for (size_t len = 0; len < valid.size(); ++len) {
    const std::string prefix = valid.substr(0, len);
    const Result<Condition> result = ParseCondition(prefix);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << "prefix len " << len;
    }
  }
}

TEST(ParserErrorTest, TrailingGarbage) {
  ExpectRejected("T1 T2");     // adjacency is not an operator
  ExpectRejected("T1 )");
  ExpectRejected("true T1");   // constants must stand alone
  ExpectRejected("false + T1");
  ExpectRejected("T1 # comment");
}

TEST(ParserErrorTest, NumericRangeEdges) {
  // Raw ids: 64-bit overflow must be caught, not wrapped.
  ExpectRejected("T99999999999999999999");   // > UINT64_MAX
  ExpectRejected("T18446744073709551615");   // TxnId::kInvalid (~0)
  // site.seq form: each half has a hard bit budget.
  ExpectRejected("T99999999999999999999.1");
  const uint64_t site_limit = 1ULL << (64 - kTxnSiteShift);
  const uint64_t seq_limit = 1ULL << kTxnSiteShift;
  ExpectRejected(StrCat("T", site_limit, ".1"));
  ExpectRejected(StrCat("T1.", seq_limit));
  // All-ones site.seq IS kInvalid and must be refused...
  ExpectRejected(StrCat("T", site_limit - 1, ".", seq_limit - 1));
  // ...but one below it is representable and parses.
  EXPECT_TRUE(ParseCondition(StrCat("T", site_limit - 1, ".", seq_limit - 2))
                  .ok());
}

TEST(ParserErrorTest, PrecedenceEdges) {
  // '·' binds tighter than '+': T1·T2 + T3 is (T1∧T2) ∨ T3. If the
  // parser got the binding backwards it would produce T1∧(T2∨T3),
  // which differs on the assignment T1=1, T2=0, T3=1.
  const Condition tight = ParseCondition("T1·T2 + T3").value();
  const Condition grouped =
      Condition::Or(Condition::And(Condition::Committed(TxnId(1)),
                                   Condition::Committed(TxnId(2))),
                    Condition::Committed(TxnId(3)));
  EXPECT_EQ(tight, grouped);

  // Negation binds tighter than both: !T1·T2 is (¬T1)∧T2, and
  // !T1 + T2 is (¬T1)∨T2.
  EXPECT_EQ(ParseCondition("!T1·T2").value(),
            Condition::And(Condition::Aborted(TxnId(1)),
                           Condition::Committed(TxnId(2))));
  EXPECT_EQ(ParseCondition("!T1 + T2").value(),
            Condition::Or(Condition::Aborted(TxnId(1)),
                          Condition::Committed(TxnId(2))));

  // Mixed ASCII/Unicode operator spellings inside one expression keep
  // the same precedence.
  EXPECT_EQ(ParseCondition("T1·T2 & T3 * T4").value(),
            ParseCondition("T1 & T2 & T3 & T4").value());

  // A dangling high-precedence operator after a complete sum is still
  // truncation, wherever it sits.
  ExpectRejected("T1 + T2 ·");
  ExpectRejected("· T1");
  ExpectRejected("+ T1");
}

TEST(ParserErrorTest, ErrorsDoNotDependOnSurvivingState) {
  // A rejected parse must leave nothing behind that corrupts later
  // parses (the parser is stateless by construction; this pins it).
  ExpectRejected("T1 &");
  const Result<Condition> ok = ParseCondition("T1 & T2");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(),
            Condition::And(Condition::Committed(TxnId(1)),
                           Condition::Committed(TxnId(2))));
}

}  // namespace
}  // namespace polyvalue

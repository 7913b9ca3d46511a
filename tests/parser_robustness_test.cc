// Robustness of the GMQL parser: malformed inputs must produce ParseError
// statuses — never crashes, hangs, or silent acceptance — including
// pseudo-random token soup.

#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/parser.h"

namespace gdms::core {
namespace {

void ExpectRejected(const std::string& text) {
  auto result = Parser::Parse(text);
  EXPECT_FALSE(result.ok()) << "accepted: " << text;
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << text;
  }
}

TEST(ParserRobustnessTest, StructurallyBrokenStatements) {
  ExpectRejected("X =");
  ExpectRejected("= SELECT(a == 'b') D;");
  ExpectRejected("X = SELECT(a == 'b' D;");
  ExpectRejected("X = SELECT a == 'b') D;");
  ExpectRejected("X = SELECT(a == 'b') ;");
  ExpectRejected("X = SELECT(a == 'b') D E F;");  // stray extra operand
  ExpectRejected("X == SELECT(a == 'b') D;");
  ExpectRejected(";");
  ExpectRejected("X = ;");
  ExpectRejected("MATERIALIZE;");
}

TEST(ParserRobustnessTest, PredicateGarbage) {
  ExpectRejected("X = SELECT(== 'b') D;");
  ExpectRejected("X = SELECT(a ==) D;");
  ExpectRejected("X = SELECT(a == 'b' AND) D;");
  ExpectRejected("X = SELECT(a == 'b' OR OR c == 'd') D;");
  ExpectRejected("X = SELECT(NOT) D;");
  ExpectRejected("X = SELECT((a == 'b') D;");
  ExpectRejected("X = SELECT(region: left >=) D;");
  ExpectRejected("X = SELECT(region: ) D;");
}

TEST(ParserRobustnessTest, OperatorParameterGarbage) {
  ExpectRejected("X = MAP(n AS) A B;");
  ExpectRejected("X = MAP(n COUNT) A B;");
  ExpectRejected("X = MAP(n AS BOGUSFUNC) A B;");
  ExpectRejected("X = JOIN(; LEFT) A B;");
  ExpectRejected("X = JOIN(DLE(); LEFT) A B;");
  ExpectRejected("X = JOIN(DLE(5); SIDEWAYS) A B;");
  ExpectRejected("X = JOIN(MD(0); LEFT) A B;");
  ExpectRejected("X = COVER(ANY) D;");
  ExpectRejected("X = COVER(1, 2, 3) D;");
  ExpectRejected("X = ORDER(; TOP 3) D;");
  ExpectRejected("X = ORDER(a; TOP -3) D;");
  ExpectRejected("X = ORDER(a; region: b TOP 0) D;");
  ExpectRejected("X = PROJECT(a; b) D;");  // new attr without AS
  ExpectRejected("X = SEMIJOIN() A B;");
  ExpectRejected("X = EXTEND() D;");
  ExpectRejected("X = GROUP() D;");
}

TEST(ParserRobustnessTest, JoinDistanceOutOfRange) {
  // Each would overflow signed arithmetic: DLT's n - 1, DGT's n + 1, and
  // the sweep window max_dist + 1.
  ExpectRejected("X = JOIN(DLT(-9223372036854775808); LEFT) A B;");
  ExpectRejected("X = JOIN(DGT(9223372036854775807) AND DLE(5); LEFT) A B;");
  ExpectRejected("X = JOIN(DLE(9223372036854775807); LEFT) A B;");
  // The bound itself is a distance.
  EXPECT_TRUE(Parser::Parse("X = JOIN(DLE(2305843009213693951) AND "
                            "DGE(-2305843009213693951); LEFT) A B;")
                  .ok());
  ExpectRejected("X = JOIN(DLE(2305843009213693952); LEFT) A B;");
}

TEST(ParserRobustnessTest, LexicalGarbage) {
  ExpectRejected("X = SELECT(a == 'unterminated) D;");
  ExpectRejected("X = SELECT(a == $) D;");
  ExpectRejected("@#%");
  ExpectRejected("X = SELECT(a == 'b') D; trailing tokens");
}

TEST(ParserRobustnessTest, EmptyAndCommentOnlyPrograms) {
  // An empty program has nothing to materialize -- accepted with no sinks.
  auto empty = Parser::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().sinks.empty());
  auto comments = Parser::Parse("# just a comment\n# another\n");
  ASSERT_TRUE(comments.ok());
  EXPECT_TRUE(comments.value().sinks.empty());
}

TEST(ParserRobustnessTest, RandomTokenSoupNeverCrashes) {
  static const char* kFragments[] = {
      "SELECT",  "MAP",    "JOIN",   "(",       ")",    ";",   "==",
      "'x'",     "AND",    "OR",     "NOT",     "DLE",  "MD",  "123",
      "-5",      "TOP",    "AS",     "COUNT",   ",",    "=",   "region",
      ":",       "D",      "COVER",  "ANY",     "ALL",  "*",   "+",
      "joinby",  "<",      ">=",     "left",    "\"y\"", ".",  "_v",
      "MATERIALIZE", "INTO",
  };
  Rng rng(2024);
  for (int round = 0; round < 500; ++round) {
    std::string program;
    size_t tokens = 1 + rng.Next() % 30;
    for (size_t t = 0; t < tokens; ++t) {
      program += kFragments[rng.Next() % (sizeof(kFragments) / sizeof(char*))];
      program += " ";
    }
    // Must terminate and return either ok or a ParseError -- never crash.
    auto result = Parser::Parse(program);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kParseError) << program;
    }
  }
}

TEST(ParserRobustnessTest, DeeplyNestedPredicates) {
  std::string pred = "a == 'b'";
  for (int i = 0; i < 200; ++i) pred = "(" + pred + " AND c == 'd')";
  auto result = Parser::Parse("X = SELECT(" + pred + ") D;");
  EXPECT_TRUE(result.ok());
}

TEST(ParserRobustnessTest, LongPrograms) {
  std::string program;
  for (int i = 0; i < 500; ++i) {
    program += "V" + std::to_string(i) + " = SELECT(a == '" +
               std::to_string(i) + "') D;\n";
  }
  program += "MATERIALIZE V499;\n";
  auto result = Parser::Parse(program);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().sinks.size(), 1u);
}

}  // namespace
}  // namespace gdms::core

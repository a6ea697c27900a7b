// Tests for src/util: Status/Result, string utilities, PRNG, Matrix,
// ThreadPool shutdown semantics, JSON writer/parser, number parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "util/json.h"
#include "util/matrix.h"
#include "util/random.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace cupid {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad wstruct");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad wstruct");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad wstruct");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::CycleDetected("x").IsCycleDetected());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "hello");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  CUPID_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseHalf(7, &out).IsInvalidArgument());
}

// --------------------------------------------------------------- strings --

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLowerAscii("PoLines"), "polines");
  EXPECT_EQ(ToUpperAscii("qty"), "QTY");
}

TEST(StringsTest, Predicates) {
  EXPECT_TRUE(IsAllDigits("12345"));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_TRUE(IsAllAlpha("abc"));
  EXPECT_FALSE(IsAllAlpha("a1"));
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  x y \t"), "x y");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(StringsTest, SplitAndJoin) {
  auto parts = SplitAny("a,b;;c", ",;");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_EQ(Join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(Join({}, "."), "");
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Qty", "qty"));
  EXPECT_FALSE(EqualsIgnoreCase("Qty", "qt"));
}

TEST(StringsTest, AffixLengths) {
  EXPECT_EQ(CommonPrefixLength("street", "streetaddress"), 6u);
  EXPECT_EQ(CommonSuffixLength("customername", "name"), 4u);
  EXPECT_EQ(CommonPrefixLength("abc", "xyz"), 0u);
}

TEST(StringsTest, LongestCommonSubstring) {
  EXPECT_EQ(LongestCommonSubstringLength("postalcode", "zipcode"), 4u);
  EXPECT_EQ(LongestCommonSubstringLength("", "abc"), 0u);
  EXPECT_EQ(LongestCommonSubstringLength("same", "same"), 4u);
}

TEST(StringsTest, EditDistance) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
}

TEST(StringsTest, StemStripsPlurals) {
  EXPECT_EQ(Stem("lines"), "line");
  EXPECT_EQ(Stem("addresses"), "address");
  EXPECT_EQ(Stem("cities"), "city");
  EXPECT_EQ(Stem("items"), "item");
  // Words that must NOT be over-stemmed.
  EXPECT_EQ(Stem("address"), "address");
  EXPECT_EQ(Stem("status"), "status");
}

TEST(StringsTest, StemIsCaseInsensitive) {
  EXPECT_EQ(Stem("Lines"), Stem("lines"));
  EXPECT_EQ(Stem("QUANTITIES"), "quantity");
}

TEST(StringsTest, StringFormat) {
  EXPECT_EQ(StringFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringFormat("%.2f", 0.5), "0.50");
}

// ---------------------------------------------------------------- random --

TEST(RandomTest, Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, BoundedStaysInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(10), 10u);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  SplitMix64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  SplitMix64 rng(1);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

// ---------------------------------------------------------------- matrix --

TEST(MatrixTest, ZeroInitialized) {
  Matrix<float> m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) EXPECT_EQ(m(i, j), 0.0f);
  }
}

TEST(MatrixTest, ReadWrite) {
  Matrix<int> m(2, 2);
  m(0, 1) = 5;
  m(1, 0) = -3;
  EXPECT_EQ(m(0, 1), 5);
  EXPECT_EQ(m(1, 0), -3);
  m.Fill(9);
  EXPECT_EQ(m(0, 0), 9);
  EXPECT_EQ(m(1, 1), 9);
}

// ---------------------------------------------------------- number parsing --

TEST(ParseNumbersTest, ParseDouble) {
  EXPECT_EQ(*ParseDouble("0.5"), 0.5);
  EXPECT_EQ(*ParseDouble("-2"), -2.0);
  EXPECT_EQ(*ParseDouble("1e3"), 1000.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("0.5x").ok());   // partial consumption
  EXPECT_FALSE(ParseDouble(" 1").ok());     // leading space not consumed out
  EXPECT_FALSE(ParseDouble("1 ").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1e999999").ok());  // overflow
}

TEST(ParseNumbersTest, ParseInt) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_EQ(*ParseInt("0"), 0);
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("12.5").ok());
  EXPECT_FALSE(ParseInt("12x").ok());
  EXPECT_FALSE(ParseInt("9999999999999999999999").ok());  // overflow
}

// -------------------------------------------------------------- thread pool --

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ++ran; }));
  }
  pool.Shutdown();  // drains the queue before joining
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<bool> ran{false};
  // The regression: this used to enqueue silently into a dead pool; the
  // task would never run and the caller had no way to notice.
  EXPECT_FALSE(pool.Submit([&ran] { ran = true; }));
  EXPECT_FALSE(ran.load());
  pool.Shutdown();  // idempotent
}

// -------------------------------------------------------------------- json --

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String("a\"b\\c\n");
  w.Key("i");
  w.Int(-3);
  w.Key("list");
  w.BeginArray();
  w.Int(1);
  w.Bool(true);
  w.Null();
  w.BeginObject();
  w.EndObject();
  w.EndArray();
  w.Key("f");
  w.FixedDouble(0.5, 3);
  w.EndObject();
  EXPECT_EQ(std::move(w).str(),
            "{\"s\":\"a\\\"b\\\\c\\n\",\"i\":-3,"
            "\"list\":[1,true,null,{}],\"f\":0.500}");
}

std::string WriterFixed(double value, int precision) {
  JsonWriter w;
  w.FixedDouble(value, precision);
  return std::move(w).str();
}

std::string PrintfFixed(double value, int precision) {
  char buf[512];  // the largest double at %.6f takes 317 bytes
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

// Mapping similarities are rendered with FixedDouble and compared byte for
// byte against references rendered with printf, so the two formatters must
// never diverge: not on any bit pattern, not on exact decimal ties (which
// both round half to even), not on signed zeros, infinities or NaN.
TEST(JsonWriterTest, FixedDoubleMatchesPrintf) {
  int64_t mismatches = 0;
  std::string first_mismatch;
  auto check_at = [&](double v, int precision) {
    std::string got = WriterFixed(v, precision);
    std::string want = PrintfFixed(v, precision);
    if (got != want && mismatches++ == 0) {
      first_mismatch = "p=" + std::to_string(precision) + ": " + got +
                       " vs printf " + want;
    }
  };
  auto check = [&](double v) {
    check_at(v, 3);
    check_at(v, 6);
  };
  SplitMix64 rng(20011);
  for (int i = 0; i < 1000000; ++i) {
    // Raw bit patterns: both signs, denormals, values above 1e300, NaNs.
    uint64_t bits = rng.Next();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    check(v);
  }
  for (int i = 0; i < 1000000; ++i) check(rng.NextDouble());
  // Exact decimal ties: m/128 has seven decimals, m/16 has four.
  for (int64_t m = 1; m < 2000000; m += 2) {
    check_at(static_cast<double>(m) / 128.0, 6);
    check_at(static_cast<double>(m) / 16.0, 3);
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {0.0, -0.0, inf, -inf, nan, -nan}) check(v);
  EXPECT_EQ(mismatches, 0) << first_mismatch;
}

TEST(JsonWriterTest, EscapesControlCharacters) {
  EXPECT_EQ(JsonEscape(std::string("a\x01" "b\tc", 5)), "a\\u0001b\\tc");
}

/// The per-character escaper JsonEscapeTo replaced: the run-appending one
/// must write the same bytes.
std::string ReferenceEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StringFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonWriterTest, EscapeMatchesPerCharacterReference) {
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    const std::string framed = "ab" + one + "cd" + one;
    EXPECT_EQ(JsonEscape(one), ReferenceEscape(one)) << "byte " << b;
    EXPECT_EQ(JsonEscape(framed), ReferenceEscape(framed)) << "byte " << b;
  }
  SplitMix64 rng(2801);
  for (int i = 0; i < 20000; ++i) {
    std::string s(rng.NextBounded(40), '\0');
    // Mostly plain bytes, with escapes in runs, at the ends and adjacent.
    for (char& c : s) {
      c = static_cast<char>(rng.NextBounded(4) == 0 ? rng.NextBounded(0x24)
                                                    : rng.NextBounded(256));
    }
    std::string appended = "prefix";
    JsonEscapeTo(s, &appended);
    ASSERT_EQ(appended, "prefix" + ReferenceEscape(s)) << "string " << i;
  }
}

TEST(JsonWriterTest, RawMembersSpliceLikeKeyValuePairs) {
  JsonWriter members;  // a bare member list at the top level
  members.Key("a");
  members.Int(1);
  members.Key("b");
  members.BeginObject();
  members.EndObject();
  ASSERT_EQ(members.str(), "\"a\":1,\"b\":{}");

  JsonWriter first;
  first.BeginObject();
  first.RawMembers(members.str());
  first.Key("c");
  first.Bool(true);
  first.EndObject();
  EXPECT_EQ(std::move(first).str(), "{\"a\":1,\"b\":{},\"c\":true}");

  JsonWriter after;
  after.BeginObject();
  after.Key("c");
  after.Bool(true);
  after.RawMembers(members.str());
  after.EndObject();
  EXPECT_EQ(std::move(after).str(), "{\"c\":true,\"a\":1,\"b\":{}}");
}

TEST(JsonParserTest, ParsesDocuments) {
  auto r = ParseJson(
      R"({"cmd":"match","n":2.5,"deep":{"list":[1,-2,3e2]},"on":true,"x":null})");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->GetString("cmd"), "match");
  EXPECT_EQ(r->GetNumber("n"), 2.5);
  EXPECT_TRUE(r->GetBool("on"));
  const JsonValue* deep = r->Find("deep");
  ASSERT_NE(deep, nullptr);
  const JsonValue* list = deep->Find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->array.size(), 3u);
  EXPECT_EQ(list->array[1].number, -2.0);
  EXPECT_EQ(list->array[2].number, 300.0);
  EXPECT_EQ(r->Find("x")->type, JsonValue::Type::kNull);
  EXPECT_EQ(r->Find("nosuch"), nullptr);
  EXPECT_EQ(r->GetString("n", "fallback"), "fallback");  // wrong type
}

TEST(JsonParserTest, StringEscapesRoundTrip) {
  std::string original = "quote\" slash\\ tab\t newline\n unicode\xE2\x82\xAC";
  JsonWriter w;
  w.String(original);
  auto r = ParseJson(w.str());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->string, original);
}

TEST(JsonParserTest, UnicodeEscapes) {
  auto r = ParseJson("\"\\u20acA\"");  // euro sign
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->string, "\xE2\x82\xAC" "A");
  auto pair = ParseJson("\"\\ud83d\\ude00\"");  // surrogate pair (emoji)
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  EXPECT_EQ(pair->string, "\xF0\x9F\x98\x80");
  EXPECT_FALSE(ParseJson("\"\\ud83d\"").ok());  // unpaired high surrogate
}

TEST(JsonParserTest, RejectsMalformed) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("01x").ok());
  EXPECT_FALSE(ParseJson("{'single':1}").ok());
}

}  // namespace
}  // namespace cupid

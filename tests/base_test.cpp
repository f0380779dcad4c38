// Unit tests for src/base: BitVec, Rng, string utilities, Table, JSON
// validation/parsing, telemetry thread indices.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <unordered_set>

#include "base/bitvec.h"
#include "base/json.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/rng.h"
#include "base/strutil.h"
#include "base/table.h"

namespace satpg {
namespace {

TEST(BitVecTest, DefaultIsEmpty) {
  BitVec v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.none());
}

TEST(BitVecTest, SetGetAcrossWordBoundary) {
  BitVec v(130);
  for (std::size_t i : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    EXPECT_FALSE(v.get(i));
    v.set(i, true);
    EXPECT_TRUE(v.get(i));
  }
  EXPECT_EQ(v.count(), 8u);
  v.set(64, false);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.count(), 7u);
}

TEST(BitVecTest, FromStringMsbFirst) {
  const BitVec v = BitVec::from_string("1010");
  EXPECT_EQ(v.size(), 4u);
  EXPECT_TRUE(v.get(3));
  EXPECT_FALSE(v.get(2));
  EXPECT_TRUE(v.get(1));
  EXPECT_FALSE(v.get(0));
  EXPECT_EQ(v.to_string(), "1010");
}

TEST(BitVecTest, FromValueRoundTrip) {
  for (std::uint64_t x : {0ull, 1ull, 5ull, 255ull, 0xdeadbeefull}) {
    EXPECT_EQ(BitVec::from_value(40, x).to_u64(), x);
  }
}

TEST(BitVecTest, LogicOps) {
  const BitVec a = BitVec::from_string("1100");
  const BitVec b = BitVec::from_string("1010");
  EXPECT_EQ((a & b).to_string(), "1000");
  EXPECT_EQ((a | b).to_string(), "1110");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  EXPECT_EQ((~a).to_string(), "0011");
}

TEST(BitVecTest, ComplementTrimsTail) {
  BitVec v(70);
  const BitVec c = ~v;
  EXPECT_EQ(c.count(), 70u);  // no phantom bits beyond size
}

TEST(BitVecTest, FindFirstNext) {
  BitVec v(100);
  v.set(3, true);
  v.set(64, true);
  v.set(99, true);
  EXPECT_EQ(v.find_first(), 3u);
  EXPECT_EQ(v.find_next(3), 64u);
  EXPECT_EQ(v.find_next(64), 99u);
  EXPECT_EQ(v.find_next(99), 100u);
}

TEST(BitVecTest, SubsetAndOrdering) {
  const BitVec a = BitVec::from_string("0100");
  const BitVec b = BitVec::from_string("0110");
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a < b);
}

TEST(BitVecTest, HashDistinguishes) {
  std::unordered_set<BitVec, BitVecHash> set;
  for (std::uint64_t i = 0; i < 200; ++i)
    set.insert(BitVec::from_value(16, i));
  EXPECT_EQ(set.size(), 200u);
}

TEST(BitVecTest, ResizeGrowsWithValue) {
  BitVec v(3);
  v.set(1, true);
  v.resize(10, false);
  EXPECT_EQ(v.count(), 1u);
  EXPECT_TRUE(v.get(1));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, NextIntCoversRange) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ForkIndependent) {
  Rng a(5);
  Rng child = a.fork(1);
  Rng b(5);
  Rng child2 = b.fork(1);
  EXPECT_EQ(child.next_u64(), child2.next_u64());  // fork deterministic
}

TEST(StrUtilTest, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StrUtilTest, SplitWs) {
  const auto t = split_ws("  a bb\t ccc \n");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "bb");
  EXPECT_EQ(t[2], "ccc");
}

TEST(StrUtilTest, SplitKeepsEmpty) {
  const auto t = split("a,,b", ',');
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], "");
}

TEST(StrUtilTest, StartsEndsWith) {
  EXPECT_TRUE(starts_with("INPUT(a)", "INPUT"));
  EXPECT_FALSE(starts_with("IN", "INPUT"));
  EXPECT_TRUE(ends_with("x.re", ".re"));
  EXPECT_FALSE(ends_with("re", ".re"));
}

TEST(StrUtilTest, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
}

TEST(StrUtilTest, FormatDensityMatchesPaperStyle) {
  EXPECT_EQ(format_density(0.84), "0.84");
  EXPECT_EQ(format_density(0.73), "0.73");
  EXPECT_EQ(format_density(2.0e-4), "2.0E-4");
  EXPECT_EQ(format_density(1.8e-6), "1.8E-6");
}

TEST(StrUtilTest, FormatCountMatchesPaperStyle) {
  EXPECT_EQ(format_count(32), "32");
  EXPECT_EQ(format_count(2048), "2048");
  EXPECT_EQ(format_count(524288), "5.24E5");
  EXPECT_EQ(format_count(268435456), "2.68E8");
}

TEST(TableTest, AlignsAndCounts) {
  Table t({"circuit", "#DFF"});
  t.add_row({"dk16.ji.sd", "5"});
  t.add_row({"dk16.ji.sd.re", "19"});
  EXPECT_EQ(t.num_rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("dk16.ji.sd.re"), std::string::npos);
  EXPECT_NE(s.find("#DFF"), std::string::npos);
  // Numeric column right-aligned: " 5" appears with leading spaces.
  EXPECT_NE(s.find("   5"), std::string::npos);
}

// ---- JSON validator + parser edge cases -------------------------------------

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  JsonValue v;
  std::string err;
  // BMP escapes: "A", the cent sign (2-byte UTF-8), the euro (3-byte).
  ASSERT_TRUE(json_parse(R"("\u0041\u00a2\u20ac")", &v, &err)) << err;
  EXPECT_EQ(v.string(), "A\xc2\xa2\xe2\x82\xac");
  // Surrogate pair: U+1D11E (musical G clef), 4-byte UTF-8.
  ASSERT_TRUE(json_parse(R"("\ud834\udd1e")", &v, &err)) << err;
  EXPECT_EQ(v.string(), "\xf0\x9d\x84\x9e");
  // Lone surrogates decode to U+FFFD rather than invalid UTF-8.
  ASSERT_TRUE(json_parse(R"("\ud834!")", &v, &err)) << err;
  EXPECT_EQ(v.string(), "\xef\xbf\xbd!");
  ASSERT_TRUE(json_parse(R"("\udd1e")", &v, &err)) << err;
  EXPECT_EQ(v.string(), "\xef\xbf\xbd");
  // Malformed escapes are rejected by validator and parser alike.
  for (const char* bad : {R"("\u12")", R"("\u12zz")", R"("\x41")"}) {
    EXPECT_FALSE(json_valid(bad)) << bad;
    EXPECT_FALSE(json_parse(bad, &v)) << bad;
  }
}

TEST(JsonTest, RejectsNaNAndInfinity) {
  JsonValue v;
  for (const char* bad :
       {"NaN", "Infinity", "-Infinity", "{\"x\": NaN}", "[1, Infinity]",
        "nan", "inf"}) {
    EXPECT_FALSE(json_valid(bad)) << bad;
    EXPECT_FALSE(json_parse(bad, &v)) << bad;
  }
  // Ordinary extreme numbers are fine.
  std::string err;
  ASSERT_TRUE(json_parse("1e308", &v, &err)) << err;
  EXPECT_DOUBLE_EQ(v.number(), 1e308);
}

TEST(JsonTest, DeeplyNestedArraysHitTheDepthCap) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  JsonValue v;
  std::string err;
  EXPECT_TRUE(json_valid(nested(kJsonMaxDepth), &err)) << err;
  EXPECT_TRUE(json_parse(nested(kJsonMaxDepth), &v, &err)) << err;
  // One level past the cap must fail cleanly in both, not overflow the
  // stack.
  EXPECT_FALSE(json_valid(nested(kJsonMaxDepth + 1)));
  EXPECT_FALSE(json_parse(nested(kJsonMaxDepth + 1), &v));
  EXPECT_FALSE(json_valid(nested(4000)));
  EXPECT_FALSE(json_parse(nested(4000), &v));
}

TEST(JsonTest, ParsesV2RecordShapes) {
  // The shapes report.cpp emits for atpg_run.v2: nested objects in
  // document order, integer arrays, doubles printed with %.17g.
  const std::string text =
      "{\"schema\": \"satpg.atpg_run.v2\",\n"
      " \"attribution\": {\"oracle\": \"exact\", \"num_valid\": 20,"
      " \"density\": 0.3125,"
      " \"bucket_order\": [\"valid\", \"invalid\", \"unknown\"]},\n"
      " \"summary\": {\"attr_evals\": [10, 7, 0],"
      " \"effort_invalid_frac\": 0.35780918623103503}}";
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(text, &v, &err)) << err;
  EXPECT_EQ(v.str_or("schema", ""), "satpg.atpg_run.v2");
  const JsonValue* attr = v.find("attribution");
  ASSERT_NE(attr, nullptr);
  EXPECT_EQ(attr->str_or("oracle", ""), "exact");
  EXPECT_DOUBLE_EQ(attr->num_or("density", -1), 0.3125);
  const JsonValue* order = attr->find("bucket_order");
  ASSERT_NE(order, nullptr);
  ASSERT_TRUE(order->is_array());
  ASSERT_EQ(order->array().size(), 3u);
  EXPECT_EQ(order->array()[1].string(), "invalid");
  const JsonValue* summary = v.find("summary");
  ASSERT_NE(summary, nullptr);
  const JsonValue* evals = summary->find("attr_evals");
  ASSERT_NE(evals, nullptr);
  EXPECT_DOUBLE_EQ(evals->array()[1].number(), 7.0);
  EXPECT_DOUBLE_EQ(summary->num_or("effort_invalid_frac", 0),
                   0.35780918623103503);
  // Members preserve document order.
  EXPECT_EQ(v.members()[0].first, "schema");
  EXPECT_EQ(v.members()[1].first, "attribution");
  // uint_or falls back for a number uint64_t cannot hold, never casts it.
  ASSERT_TRUE(json_parse("{\"neg\": -2, \"huge\": 1e30, \"ok\": 7}", &v));
  EXPECT_EQ(v.uint_or("neg", 9), 9u);
  EXPECT_EQ(v.uint_or("huge", 9), 9u);
  EXPECT_EQ(v.uint_or("ok", 9), 7u);
}

// ---- telemetry thread indices -----------------------------------------------

TEST(TelemetryThreadTest, MainThreadOwnsIndexZero) {
  EXPECT_EQ(telemetry_thread_index(), kMainThreadIndex);
  // Registration is idempotent and never reassigns main.
  EXPECT_EQ(telemetry_register_worker(), kMainThreadIndex);
  EXPECT_EQ(telemetry_thread_index(), kMainThreadIndex);
}

TEST(TelemetryThreadTest, ForeignThreadsReadTheSentinel) {
  unsigned before = 0, after = 0;
  std::thread t([&] {
    before = telemetry_thread_index();
    after = telemetry_register_worker();
  });
  t.join();
  EXPECT_EQ(before, kForeignThreadIndex);
  EXPECT_NE(after, kForeignThreadIndex);
  EXPECT_GE(after, 1u) << "worker indices start above main's 0";
}

TEST(TelemetryThreadTest, LogTagRendersForeignAsQuestionMark) {
  EXPECT_EQ(detail::log_thread_tag(kMainThreadIndex), "t0");
  EXPECT_EQ(detail::log_thread_tag(3), "t3");
  EXPECT_EQ(detail::log_thread_tag(kForeignThreadIndex), "t?");
}

}  // namespace
}  // namespace satpg

// Checked flag parsing (util/flags.h).  An argument a bench does not know
// must die loudly, and so must a *known* flag with an unparseable value:
// "--runs=ten" silently becoming 0 via atoi once corrupted a whole sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "util/flags.h"

namespace {

using namespace aoft;

TEST(ParseI64, AcceptsDecimalIntegers) {
  long long v = 0;
  EXPECT_TRUE(util::parse_i64("0", v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(util::parse_i64("-17", v));
  EXPECT_EQ(v, -17);
  EXPECT_TRUE(util::parse_i64("9223372036854775807", v));
  EXPECT_EQ(v, std::numeric_limits<long long>::max());
}

TEST(ParseI64, RejectsGarbageAndPartialParses) {
  long long v = 42;
  EXPECT_FALSE(util::parse_i64(nullptr, v));
  EXPECT_FALSE(util::parse_i64("", v));
  EXPECT_FALSE(util::parse_i64("ten", v));
  EXPECT_FALSE(util::parse_i64("12x", v));       // atoi: 12
  EXPECT_FALSE(util::parse_i64("1e3", v));       // atoi: 1
  EXPECT_FALSE(util::parse_i64("4 ", v));        // trailing junk
  EXPECT_FALSE(util::parse_i64("9223372036854775808", v));  // overflow
  EXPECT_EQ(v, 42) << "failed parses must not clobber the output";
}

TEST(ParseU64, RejectsNegativeInsteadOfWrapping) {
  std::uint64_t v = 7;
  // strtoull accepts "-1" and wraps it to UINT64_MAX; a negative count or
  // seed is garbage, not a very large number.
  EXPECT_FALSE(util::parse_u64("-1", v));
  EXPECT_FALSE(util::parse_u64("", v));
  EXPECT_FALSE(util::parse_u64("1.5", v));
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(util::parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseF64, AcceptsNumbersRejectsJunk) {
  double v = 0;
  EXPECT_TRUE(util::parse_f64("1.25", v));
  EXPECT_DOUBLE_EQ(v, 1.25);
  EXPECT_TRUE(util::parse_f64("1e-3", v));
  EXPECT_DOUBLE_EQ(v, 1e-3);
  EXPECT_FALSE(util::parse_f64("fast", v));
  EXPECT_FALSE(util::parse_f64("1.5x", v));
  EXPECT_FALSE(util::parse_f64("", v));
}

TEST(FlagValue, FindsKnownFlagsIgnoresUnknown) {
  char a0[] = "bench", a1[] = "--runs=5", a2[] = "--mystery=zzz";
  char* argv[] = {a0, a1, a2};
  EXPECT_STREQ(util::flag_value(3, argv, "--runs"), "5");
  EXPECT_EQ(util::flag_value(3, argv, "--jobs"), nullptr);
  // flag_value is a lookup; rejecting unknown arguments is
  // flag_reject_unknown's job.
  EXPECT_EQ(util::flag_int(3, argv, "--jobs", 4), 4);
  EXPECT_EQ(util::flag_int(3, argv, "--runs", 4), 5);
}

using FlagDeath = ::testing::Test;

TEST(FlagDeath, GarbageValueForKnownFlagExits2) {
  char a0[] = "bench", a1[] = "--runs=ten";
  char* argv[] = {a0, a1};
  EXPECT_EXIT(util::flag_int(2, argv, "--runs", 4),
              ::testing::ExitedWithCode(2), "bad value");
}

TEST(FlagDeath, NegativeU64Exits2) {
  char a0[] = "bench", a1[] = "--seed=-3";
  char* argv[] = {a0, a1};
  EXPECT_EXIT(util::flag_u64(2, argv, "--seed", 1),
              ::testing::ExitedWithCode(2), "bad value");
}

TEST(FlagDeath, UnknownFlagExits2) {
  char a0[] = "bench", a1[] = "--runs=5", a2[] = "--pin=compact";
  char* argv[] = {a0, a1, a2};
  EXPECT_EXIT(util::flag_reject_unknown(3, argv, {"--runs", "--jobs"}),
              ::testing::ExitedWithCode(2),
              "unknown argument \"--pin=compact\"");
  // A known name without its value is unknown too.
  char b1[] = "--runs";
  char* bare[] = {a0, b1};
  EXPECT_EXIT(util::flag_reject_unknown(2, bare, {"--runs"}),
              ::testing::ExitedWithCode(2),
              "usage: bench \\[--runs=\\.\\.\\.\\]");
}

TEST(FlagValue, KnownFlagsPassTheUnknownCheck) {
  char a0[] = "bench", a1[] = "--runs=5", a2[] = "--jobs=2";
  char* argv[] = {a0, a1, a2};
  util::flag_reject_unknown(3, argv, {"--runs", "--jobs", "--dim"});
  util::flag_reject_unknown(1, argv, {"--runs"});  // no arguments at all
  EXPECT_EQ(util::flag_int(3, argv, "--jobs", 1), 2);
}

}  // namespace

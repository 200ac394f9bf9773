// obs::json::shortest_double against the snprintf/sscanf loop it replaced,
// kept here verbatim as the reference: every canonical file (traces,
// campaign streams) must keep its bytes.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/rng.h"

namespace aoft::obs::json {
namespace {

std::string reference_shortest_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double back = 0.0;
  std::sscanf(buf, "%lg", &back);
  for (int prec = 1; prec <= 16; ++prec) {
    char shorter[32];
    std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
    std::sscanf(shorter, "%lg", &back);
    if (back == v) return shorter;
  }
  return buf;
}

TEST(ShortestDoubleTest, EdgeValuesMatchTheReference) {
  using L = std::numeric_limits<double>;
  const std::vector<double> edges = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 1e-4, 1e-5, 123456.0, 1e16, 1e17,
      1e21, 1e22, 1e23, 12345678901234567890.0, 0x1p-24, 0x1p-1074, 0x1p53,
      0x1p53 + 2, 0x1p63, 3.0 / 7.0, 2.0 / 3.0, 1.0 / 3.0, 9007199254740993.0,
      L::min(), L::max(), L::lowest(), L::denorm_min(), L::epsilon(),
      L::infinity(), -L::infinity(), L::quiet_NaN(), -L::quiet_NaN()};
  for (const double v : edges)
    EXPECT_EQ(shortest_double(v), reference_shortest_double(v)) << v;
}

// 2^-24's shortest form has 16 digits, but %.16g does not read back: the
// answer takes 17.
TEST(ShortestDoubleTest, ShortestFormThatPrintfMissesStepsUp) {
  EXPECT_EQ(shortest_double(0x1p-24), "5.9604644775390625e-08");
  EXPECT_EQ(shortest_double(0.1), "0.1");
  EXPECT_EQ(shortest_double(1e-4), "0.0001");
  EXPECT_EQ(shortest_double(1e17), "1e+17");
}

TEST(ShortestDoubleTest, FuzzedValuesMatchTheReference) {
  util::Rng rng(2024);
  for (int i = 0; i < 200000; ++i) {
    double v = 0.0;
    switch (i % 4) {
      case 0:  // any finite bit pattern: every exponent, subnormals too
        do v = std::bit_cast<double>(rng.next_u64());
        while (!std::isfinite(v));
        break;
      case 1:  // short decimals, the values ticks and rates usually take
        v = static_cast<double>(rng.next_u64() % 1000000) /
            std::pow(10.0, static_cast<double>(rng.next_u64() % 12));
        break;
      case 2:  // integers up to and past 2^53
        v = static_cast<double>(rng.next_u64() >> (rng.next_u64() % 64));
        break;
      default:  // sums and ratios that carry rounding error
        v = static_cast<double>(rng.next_u64() % 100000) * 0.1 +
            1.0 / static_cast<double>(1 + rng.next_u64() % 1000);
        break;
    }
    ASSERT_EQ(shortest_double(v), reference_shortest_double(v))
        << std::bit_cast<std::uint64_t>(v);
  }
}

}  // namespace
}  // namespace aoft::obs::json

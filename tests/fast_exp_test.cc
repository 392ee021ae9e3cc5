// FastExp, the microkernel's vectorizable exp for softmax weights, checked
// against std::exp on every float of its domain [kFastExpMin, 0].
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/microkernel.h"
#include "util/threadpool.h"

namespace flashinfer {
namespace {

using detail::BitsToFloat;
using detail::FastExp;
using detail::FloatBits;
using detail::kFastExpMin;

TEST(FastExp, WithinOneUlpOfStdExpOnEveryFloatOfItsDomain) {
  // Bound: |FastExp(x) - e^x| <= 1 ulp of the float nearest e^x, with e^x
  // from std::exp in double. The sweep runs from -0 down to kFastExpMin in
  // bit order, split into chunks over the global pool.
  constexpr uint32_t kBegin = 0x80000000u;  // -0.0f
  const uint32_t span = FloatBits(kFastExpMin) + 1 - kBegin;
  constexpr int64_t kChunks = 256;
  std::vector<double> worst_ulp(kChunks, 0.0);
  std::vector<float> worst_x(kChunks, 0.0f);
  ThreadPool::Global().ParallelFor(kChunks, [&](int64_t c) {
    const uint32_t lo = kBegin + static_cast<uint32_t>(uint64_t{span} * c / kChunks);
    const uint32_t hi = kBegin + static_cast<uint32_t>(uint64_t{span} * (c + 1) / kChunks);
    for (uint32_t b = lo; b < hi; ++b) {
      const float x = BitsToFloat(b);
      const double exact = std::exp(static_cast<double>(x));
      // One ulp of a normal float f is 2^(exponent(f) - 23).
      const double ulp =
          static_cast<double>(BitsToFloat(FloatBits(static_cast<float>(exact)) & 0x7F800000u)) *
          0x1p-23;
      const double err = std::fabs(static_cast<double>(FastExp(x)) - exact) / ulp;
      if (err > worst_ulp[static_cast<size_t>(c)]) {
        worst_ulp[static_cast<size_t>(c)] = err;
        worst_x[static_cast<size_t>(c)] = x;
      }
    }
  });
  const size_t worst = static_cast<size_t>(
      std::max_element(worst_ulp.begin(), worst_ulp.end()) - worst_ulp.begin());
  EXPECT_LE(worst_ulp[worst], 1.0) << "at x = " << worst_x[worst];
}

TEST(FastExp, EdgesOfTheDomain) {
  EXPECT_EQ(FastExp(0.0f), 1.0f);
  EXPECT_EQ(FastExp(-0.0f), 1.0f);
  EXPECT_GT(FastExp(kFastExpMin), 0.0f);
  EXPECT_EQ(FastExp(std::nextafter(kFastExpMin, -1000.0f)), 0.0f);
  EXPECT_EQ(FastExp(-1000.0f), 0.0f);
  EXPECT_EQ(FastExp(-std::numeric_limits<float>::infinity()), 0.0f);
}

}  // namespace
}  // namespace flashinfer

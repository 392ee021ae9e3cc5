#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "util/float_types.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/threadpool.h"

namespace flashinfer {
namespace {

// ---------------------------------------------------------------- float16
TEST(Half, ExactSmallIntegers) {
  for (int i = -2048; i <= 2048; ++i) {
    EXPECT_EQ(static_cast<float>(half_t(static_cast<float>(i))), static_cast<float>(i));
  }
}

TEST(Half, RoundTripPowersOfTwo) {
  for (int e = -14; e <= 15; ++e) {
    const float v = std::ldexp(1.0f, e);
    EXPECT_EQ(static_cast<float>(half_t(v)), v);
  }
}

TEST(Half, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even -> 1.0.
  EXPECT_EQ(static_cast<float>(half_t(1.0f + std::ldexp(1.0f, -11))), 1.0f);
  // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even -> 1+2^-9.
  EXPECT_EQ(static_cast<float>(half_t(1.0f + 3 * std::ldexp(1.0f, -11))),
            1.0f + std::ldexp(1.0f, -9));
}

TEST(Half, OverflowToInf) {
  EXPECT_TRUE(std::isinf(static_cast<float>(half_t(70000.0f))));
  EXPECT_TRUE(std::isinf(static_cast<float>(half_t(-70000.0f))));
  EXPECT_LT(static_cast<float>(half_t(-70000.0f)), 0.0f);
}

TEST(Half, MaxFinite) { EXPECT_EQ(static_cast<float>(half_t(65504.0f)), 65504.0f); }

TEST(Half, Subnormals) {
  const float tiny = std::ldexp(1.0f, -24);  // Smallest subnormal.
  EXPECT_EQ(static_cast<float>(half_t(tiny)), tiny);
  EXPECT_EQ(static_cast<float>(half_t(tiny / 4)), 0.0f);  // Underflow.
}

TEST(Half, NanPropagates) {
  EXPECT_TRUE(std::isnan(static_cast<float>(half_t(std::nanf("")))));
}

TEST(Half, RoundTripAllBitPatterns) {
  // Every finite half value must convert to float and back bit-exactly.
  for (uint32_t bits = 0; bits < 0x10000; ++bits) {
    const auto h = half_t::FromBits(static_cast<uint16_t>(bits));
    const float f = static_cast<float>(h);
    if (std::isnan(f)) continue;
    const auto h2 = half_t(f);
    EXPECT_EQ(h2.bits, h.bits) << "bits=" << bits;
  }
}

// Reference binary16 decoder (branchy, ldexp-based): HalfBitsToFloat must
// match it bit for bit.
float OracleHalfBitsToFloat(uint16_t bits) {
  const uint32_t sign = static_cast<uint32_t>(bits & 0x8000u) << 16;
  const uint32_t exp = (bits >> 10) & 0x1F;
  const uint32_t man = bits & 0x3FFu;
  if (exp == 0) {
    if (man == 0) return detail::BitsToFloat(sign);
    const float v = std::ldexp(static_cast<float>(man), -24);
    return sign ? -v : v;
  }
  if (exp == 0x1F) return detail::BitsToFloat(sign | 0x7F800000u | (man << 13));
  return detail::BitsToFloat(sign | ((exp + 127 - 15) << 23) | (man << 13));
}

TEST(Half, BranchlessDecodeBitIdenticalToOracle) {
  for (uint32_t bits = 0; bits < 0x10000; ++bits) {
    const auto b = static_cast<uint16_t>(bits);
    ASSERT_EQ(detail::FloatBits(detail::HalfBitsToFloat(b)),
              detail::FloatBits(OracleHalfBitsToFloat(b)))
        << "bits=" << bits;
  }
  // Decoded in an `omp simd` loop, as the microkernel's K/V gather does.
  std::vector<half_t> all(0x10000);
  for (uint32_t bits = 0; bits < 0x10000; ++bits) {
    all[bits] = half_t::FromBits(static_cast<uint16_t>(bits));
  }
  std::vector<float> decoded(all.size());
#pragma omp simd
  for (size_t i = 0; i < all.size(); ++i) decoded[i] = ToFloat(all[i]);
  for (uint32_t bits = 0; bits < 0x10000; ++bits) {
    ASSERT_EQ(detail::FloatBits(decoded[bits]),
              detail::FloatBits(OracleHalfBitsToFloat(static_cast<uint16_t>(bits))))
        << "bits=" << bits;
  }
  // The classes the exhaustive sweep covers, pinned explicitly.
  EXPECT_EQ(detail::FloatBits(detail::HalfBitsToFloat(0x0000)), 0x00000000u);  // +0
  EXPECT_EQ(detail::FloatBits(detail::HalfBitsToFloat(0x8000)), 0x80000000u);  // -0
  EXPECT_EQ(detail::HalfBitsToFloat(0x0001), std::ldexp(1.0f, -24));  // Min subnormal.
  EXPECT_EQ(detail::HalfBitsToFloat(0x83FF), -std::ldexp(1023.0f, -24));  // Max subnormal.
  EXPECT_EQ(detail::HalfBitsToFloat(0x7C00), std::numeric_limits<float>::infinity());
  EXPECT_EQ(detail::HalfBitsToFloat(0xFC00), -std::numeric_limits<float>::infinity());
  EXPECT_EQ(detail::FloatBits(detail::HalfBitsToFloat(0x7E01)), 0x7FC02000u);  // qNaN payload.
  EXPECT_EQ(detail::FloatBits(detail::HalfBitsToFloat(0xFC01)), 0xFF802000u);  // sNaN payload.
}

// ---------------------------------------------------------------- bfloat16
TEST(Bf16, RoundTripAllBitPatterns) {
  for (uint32_t bits = 0; bits < 0x10000; ++bits) {
    const auto h = bf16_t::FromBits(static_cast<uint16_t>(bits));
    const float f = static_cast<float>(h);
    if (std::isnan(f)) continue;
    EXPECT_EQ(bf16_t(f).bits, h.bits) << "bits=" << bits;
  }
}

TEST(Bf16, KeepsFloatRange) {
  // bf16 shares float's exponent range: 3e38 stays finite (unlike fp16).
  const float v = static_cast<float>(bf16_t(3.0e38f));
  EXPECT_FALSE(std::isinf(v));
  EXPECT_NEAR(v, 3.0e38f, 3.0e38f * 0.01f);  // Within one mantissa step.
}

// ---------------------------------------------------------------- fp8
TEST(Fp8E4M3, KnownValues) {
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(1.0f)), 1.0f);
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(-2.0f)), -2.0f);
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(448.0f)), 448.0f);  // Max finite.
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(0.0625f)), 0.0625f);
}

TEST(Fp8E4M3, SaturatesInsteadOfInf) {
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(1e9f)), 448.0f);
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(-1e9f)), -448.0f);
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(std::numeric_limits<float>::infinity())), 448.0f);
}

TEST(Fp8E4M3, NanEncoding) {
  EXPECT_TRUE(std::isnan(static_cast<float>(fp8_e4m3_t(std::nanf("")))));
}

TEST(Fp8E4M3, RoundTripAllBitPatterns) {
  for (uint32_t bits = 0; bits < 256; ++bits) {
    const auto h = fp8_e4m3_t::FromBits(static_cast<uint8_t>(bits));
    const float f = static_cast<float>(h);
    if (std::isnan(f)) continue;
    EXPECT_EQ(fp8_e4m3_t(f).bits, h.bits) << "bits=" << bits << " f=" << f;
  }
}

TEST(Fp8E5M2, RoundTripAllBitPatterns) {
  for (uint32_t bits = 0; bits < 256; ++bits) {
    const auto h = fp8_e5m2_t::FromBits(static_cast<uint8_t>(bits));
    const float f = static_cast<float>(h);
    if (std::isnan(f)) continue;
    if (std::isinf(f)) {
      EXPECT_TRUE(std::isinf(static_cast<float>(fp8_e5m2_t(f))));
      continue;
    }
    EXPECT_EQ(fp8_e5m2_t(f).bits, h.bits) << "bits=" << bits << " f=" << f;
  }
}

// Reference fp8 decoder (ldexp-based): the decode tables must match it bit
// for bit.
float OracleFp8BitsToFloat(uint8_t bits, int exp_bits, int man_bits) {
  const int bias = (1 << (exp_bits - 1)) - 1;
  const uint32_t exp = (bits >> man_bits) & ((1u << exp_bits) - 1);
  const uint32_t man = bits & ((1u << man_bits) - 1);
  const float s = (bits & 0x80u) ? -1.0f : 1.0f;
  if (exp_bits == 4) {
    if (exp == 0xFu && man == 0x7u) return std::numeric_limits<float>::quiet_NaN();
  } else if (exp == 0x1Fu) {
    if (man == 0) return s * std::numeric_limits<float>::infinity();
    return std::numeric_limits<float>::quiet_NaN();
  }
  if (exp == 0) return s * std::ldexp(static_cast<float>(man), 1 - bias - man_bits);
  return s * std::ldexp(1.0f + std::ldexp(static_cast<float>(man), -man_bits),
                        static_cast<int>(exp) - bias);
}

TEST(Fp8, TableDecodeBitIdenticalToOracle) {
  for (uint32_t bits = 0; bits < 256; ++bits) {
    const auto b = static_cast<uint8_t>(bits);
    EXPECT_EQ(detail::FloatBits(static_cast<float>(fp8_e4m3_t::FromBits(b))),
              detail::FloatBits(OracleFp8BitsToFloat(b, 4, 3)))
        << "e4m3 bits=" << bits;
    EXPECT_EQ(detail::FloatBits(static_cast<float>(fp8_e5m2_t::FromBits(b))),
              detail::FloatBits(OracleFp8BitsToFloat(b, 5, 2)))
        << "e5m2 bits=" << bits;
  }
  EXPECT_EQ(detail::FloatBits(static_cast<float>(fp8_e4m3_t::FromBits(0x80))), 0x80000000u);
  EXPECT_TRUE(std::isnan(static_cast<float>(fp8_e4m3_t::FromBits(0xFF))));
  EXPECT_EQ(static_cast<float>(fp8_e5m2_t::FromBits(0xFC)),
            -std::numeric_limits<float>::infinity());
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t::FromBits(0x01)), std::ldexp(1.0f, -9));
  EXPECT_EQ(static_cast<float>(fp8_e5m2_t::FromBits(0x01)), std::ldexp(1.0f, -16));
}

TEST(Fp8E5M2, MaxFinite) {
  EXPECT_EQ(static_cast<float>(fp8_e5m2_t(57344.0f)), 57344.0f);
  EXPECT_EQ(static_cast<float>(fp8_e5m2_t(60000.0f)), 57344.0f);  // Saturate.
}

TEST(Fp8, QuantizationErrorBounded) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const float v = static_cast<float>(rng.Normal(0.0, 2.0));
    const float q = static_cast<float>(fp8_e4m3_t(v));
    // e4m3 relative step is 2^-3 for normals.
    EXPECT_LE(std::fabs(q - v), std::max(std::fabs(v) * 0.0625f, 0.002f)) << v;
  }
}

TEST(DTypeTraits, BytesAndNames) {
  EXPECT_EQ(DTypeBytes(DType::kF32), 4);
  EXPECT_EQ(DTypeBytes(DType::kF16), 2);
  EXPECT_EQ(DTypeBytes(DType::kBF16), 2);
  EXPECT_EQ(DTypeBytes(DType::kFP8_E4M3), 1);
  EXPECT_STREQ(DTypeName(DType::kFP8_E4M3), "e4m3");
}

// ---------------------------------------------------------------- rng
TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, UniformIntBounds) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All values hit.
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.02);
}

TEST(Zipf, RankOneMostLikely) {
  Rng rng(17);
  ZipfSampler zipf(100, 1.2);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 20000; ++i) ++counts[static_cast<size_t>(zipf.Sample(rng))];
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[10]);
}

TEST(Zipf, LengthsHitTargetMean) {
  Rng rng(19);
  const auto lens = ZipfLengths(rng, 20000, 1024.0, 1.2, 16);
  double sum = 0.0;
  for (int l : lens) sum += l;
  const double mean = sum / static_cast<double>(lens.size());
  EXPECT_GT(mean, 650.0);
  EXPECT_LT(mean, 1600.0);
}

// ---------------------------------------------------------------- threadpool
TEST(ThreadPool, AllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedCallsRunSerially) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](int64_t) {
    pool.ParallelFor(8, [&](int64_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ManySmallLaunches) {
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> n{0};
    pool.ParallelFor(7, [&](int64_t) { n++; });
    ASSERT_EQ(n.load(), 7);
  }
}

// ---------------------------------------------------------------- table
TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable t({"name", "value"});
  t.AddRow({"alpha", "1.00"});
  t.AddRow({"beta-long-name", "2"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("beta-long-name"), std::string::npos);
  EXPECT_EQ(AsciiTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::SignedPct(13.731, 2), "+13.73%");
  EXPECT_EQ(AsciiTable::SignedPct(-2.0, 2), "-2.00%");
}

}  // namespace
}  // namespace flashinfer

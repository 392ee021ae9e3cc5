// Host KV-tier codec: LZ4-style block compressor round trips, bounded-error
// quantization (incl. bfloat16 edge values), page-codec properties, and the
// PagedKVCache codec tier (byte accounting, capacity multiplication,
// transactional restore on device shortfall, codec-off bit-identity).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "kvcache/paged.h"
#include "util/codec.h"
#include "util/float_types.h"

namespace flashinfer {
namespace {

using util::DecodePage;
using util::EncodedPageBound;
using util::EncodePage;
using util::Lz4Compress;
using util::Lz4CompressBound;
using util::Lz4Decompress;
using util::PageCodecStats;

// --- LZ4 block round trips ---------------------------------------------------

std::vector<uint8_t> RoundTrip(const std::vector<uint8_t>& src) {
  std::vector<uint8_t> comp(Lz4CompressBound(src.size()));
  const size_t csize = Lz4Compress(src.data(), src.size(), comp.data(), comp.size());
  EXPECT_GT(csize + (src.empty() ? 1 : 0), 0u);  // 0 only legal for empty input.
  EXPECT_LE(csize, comp.size());
  std::vector<uint8_t> out(src.size());
  const size_t dsize = Lz4Decompress(comp.data(), csize, out.data(), out.size());
  EXPECT_EQ(dsize, src.size());
  return out;
}

TEST(Lz4, EmptyInputRoundTrips) {
  std::vector<uint8_t> src;
  uint8_t dst[8];
  EXPECT_EQ(Lz4Compress(src.data(), 0, dst, sizeof dst), 0u);
  EXPECT_EQ(Lz4Decompress(dst, 0, dst, 0), 0u);
}

TEST(Lz4, TinyInputsRoundTrip) {
  // Below the minimum matchable size everything is literals; exercise each
  // length around the last-literals boundary.
  for (size_t n = 1; n <= 16; ++n) {
    std::vector<uint8_t> src;
    for (size_t i = 0; i < n; ++i) src.push_back(static_cast<uint8_t>(17 * i + 3));
    EXPECT_EQ(RoundTrip(src), src) << "n=" << n;
  }
}

TEST(Lz4, RepetitiveInputCompressesAndRoundTrips) {
  std::vector<uint8_t> src(4096);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<uint8_t>(i % 7);
  std::vector<uint8_t> comp(Lz4CompressBound(src.size()));
  const size_t csize = Lz4Compress(src.data(), src.size(), comp.data(), comp.size());
  EXPECT_LT(csize, src.size() / 4);  // Period-7 data must compress hard.
  std::vector<uint8_t> out(src.size());
  EXPECT_EQ(Lz4Decompress(comp.data(), csize, out.data(), out.size()), src.size());
  EXPECT_EQ(out, src);
}

TEST(Lz4, RandomIncompressibleRoundTrips) {
  std::mt19937 rng(123);
  for (const size_t n : {1u, 63u, 64u, 65u, 255u, 256u, 257u, 4096u, 70000u}) {
    std::vector<uint8_t> src(n);
    for (auto& b : src) b = static_cast<uint8_t>(rng());
    EXPECT_EQ(RoundTrip(src), src) << "n=" << n;
  }
}

TEST(Lz4, LongMatchLengthExtensionRoundTrips) {
  // > 15+255 match lengths force multi-byte length continuation on both the
  // literal and match sides.
  std::vector<uint8_t> src(3000, 0xAB);
  src.front() = 1;
  src.back() = 2;
  EXPECT_EQ(RoundTrip(src), src);
  // Long literal run: random prefix (no matches) + short tail.
  std::mt19937 rng(7);
  std::vector<uint8_t> lit(1000);
  for (auto& b : lit) b = static_cast<uint8_t>(rng());
  EXPECT_EQ(RoundTrip(lit), lit);
}

TEST(Lz4, CompressReturnsZeroWhenDstTooSmall) {
  std::mt19937 rng(9);
  std::vector<uint8_t> src(512);
  for (auto& b : src) b = static_cast<uint8_t>(rng());
  uint8_t dst[16];
  EXPECT_EQ(Lz4Compress(src.data(), src.size(), dst, sizeof dst), 0u);
}

// --- Page codec --------------------------------------------------------------

constexpr size_t kElems = 2 * 2 * 16 * 8;  // 2 (K/V) x 2 heads x 16 slots x 8 dim.

std::vector<std::byte> MakePage(DType dtype, size_t elems,
                                const std::vector<float>& vals) {
  std::vector<std::byte> page(elems * DTypeBytes(dtype));
  for (size_t i = 0; i < elems; ++i) {
    const float v = vals[i % vals.size()];
    std::byte* p = page.data() + i * DTypeBytes(dtype);
    switch (dtype) {
      case DType::kF32: std::memcpy(p, &v, 4); break;
      case DType::kF16: { half_t h(v); std::memcpy(p, &h.bits, 2); break; }
      case DType::kBF16: { bf16_t h(v); std::memcpy(p, &h.bits, 2); break; }
      case DType::kFP8_E4M3: { fp8_e4m3_t h(v); std::memcpy(p, &h.bits, 1); break; }
      case DType::kFP8_E5M2: { fp8_e5m2_t h(v); std::memcpy(p, &h.bits, 1); break; }
    }
  }
  return page;
}

float ReadElem(const std::vector<std::byte>& page, DType dtype, size_t i) {
  const std::byte* p = page.data() + i * DTypeBytes(dtype);
  switch (dtype) {
    case DType::kF32: { float v; std::memcpy(&v, p, 4); return v; }
    case DType::kF16: { uint16_t b; std::memcpy(&b, p, 2); return float(half_t::FromBits(b)); }
    case DType::kBF16: { uint16_t b; std::memcpy(&b, p, 2); return float(bf16_t::FromBits(b)); }
    case DType::kFP8_E4M3: { return float(fp8_e4m3_t::FromBits(uint8_t(p[0]))); }
    case DType::kFP8_E5M2: { return float(fp8_e5m2_t::FromBits(uint8_t(p[0]))); }
  }
  return 0.0f;
}

std::vector<float> SmoothVals() {
  std::vector<float> v(kElems);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(static_cast<float>(i) * 0.01f) * 3.0f;
  }
  return v;
}

TEST(PageCodec, LosslessCompressIsBitExactForEveryDtype) {
  const KvCodecConfig cfg{KvQuantFormat::kNone, /*compress=*/true};
  for (const DType dt : {DType::kF32, DType::kF16, DType::kBF16,
                         DType::kFP8_E4M3, DType::kFP8_E5M2}) {
    const auto page = MakePage(dt, kElems, SmoothVals());
    PageCodecStats st;
    const auto blob = EncodePage(page.data(), kElems, dt, cfg, &st);
    EXPECT_EQ(st.logical_bytes, static_cast<int64_t>(page.size()));
    EXPECT_EQ(st.stored_bytes, static_cast<int64_t>(blob.size()));
    EXPECT_LE(blob.size(), EncodedPageBound(kElems, dt, cfg));
    EXPECT_DOUBLE_EQ(st.mse, 0.0);
    std::vector<std::byte> out(page.size());
    DecodePage(blob.data(), blob.size(), out.data(), kElems, dt);
    EXPECT_EQ(std::memcmp(out.data(), page.data(), page.size()), 0)
        << "dtype=" << static_cast<int>(dt);
  }
}

TEST(PageCodec, Int8ErrorBoundedByHalfStep) {
  const KvCodecConfig cfg{KvQuantFormat::kInt8, /*compress=*/false};
  const auto vals = SmoothVals();
  const auto page = MakePage(DType::kF32, kElems, vals);
  PageCodecStats st;
  const auto blob = EncodePage(page.data(), kElems, DType::kF32, cfg, &st);
  EXPECT_LE(blob.size(), EncodedPageBound(kElems, DType::kF32, cfg));
  std::vector<std::byte> out(page.size());
  DecodePage(blob.data(), blob.size(), out.data(), kElems, DType::kF32);
  float lo = vals[0], hi = vals[0];
  for (float v : vals) { lo = std::min(lo, v); hi = std::max(hi, v); }
  const float step = (hi - lo) / 255.0f;
  double mse = 0.0;
  for (size_t i = 0; i < kElems; ++i) {
    const float orig = ReadElem(page, DType::kF32, i);
    const float back = ReadElem(out, DType::kF32, i);
    EXPECT_LE(std::abs(orig - back), step * 0.5f + 1e-6f) << "i=" << i;
    mse += double(orig - back) * double(orig - back);
  }
  mse /= kElems;
  EXPECT_LE(st.mse, double(step) * double(step) * 0.25 + 1e-12);
  EXPECT_NEAR(st.mse, mse, 1e-9);  // Reported proxy matches the realized error.
  EXPECT_GT(st.mse, 0.0);
}

TEST(PageCodec, Fp8RelativeErrorBounded) {
  for (const auto fmt : {KvQuantFormat::kFp8E4M3, KvQuantFormat::kFp8E5M2}) {
    const KvCodecConfig cfg{fmt, /*compress=*/false};
    const auto page = MakePage(DType::kF16, kElems, SmoothVals());
    PageCodecStats st;
    const auto blob = EncodePage(page.data(), kElems, DType::kF16, cfg, &st);
    std::vector<std::byte> out(page.size());
    DecodePage(blob.data(), blob.size(), out.data(), kElems, DType::kF16);
    // fp8 keeps >= 2 mantissa bits: relative error under amax scaling stays
    // within ~12.5% (e5m2: 2 bits -> 1/8 ulp relative bound) of amax.
    for (size_t i = 0; i < kElems; ++i) {
      const float orig = ReadElem(page, DType::kF16, i);
      const float back = ReadElem(out, DType::kF16, i);
      EXPECT_LE(std::abs(orig - back), 3.0f * 0.15f) << "i=" << i;
    }
    EXPECT_GE(st.mse, 0.0);
  }
}

TEST(PageCodec, Bf16EdgeValuesSanitizeAndStayFinite) {
  // Denormals, infinities, NaN, negative zero: the codec contract is NaN -> 0
  // and +/-inf -> +/-65504 *before* scale computation, so a poisoned page
  // cannot produce a non-finite scale or MSE.
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> edge = {0.0f,
                                   -0.0f,
                                   denorm,
                                   -denorm,
                                   std::numeric_limits<float>::infinity(),
                                   -std::numeric_limits<float>::infinity(),
                                   std::numeric_limits<float>::quiet_NaN(),
                                   1.5f,
                                   -2.25f,
                                   65504.0f};
  for (const auto fmt : {KvQuantFormat::kInt8, KvQuantFormat::kFp8E4M3,
                         KvQuantFormat::kFp8E5M2}) {
    const KvCodecConfig cfg{fmt, /*compress=*/true};
    const auto page = MakePage(DType::kBF16, kElems, edge);
    PageCodecStats st;
    const auto blob = EncodePage(page.data(), kElems, DType::kBF16, cfg, &st);
    EXPECT_LE(blob.size(), EncodedPageBound(kElems, DType::kBF16, cfg));
    EXPECT_TRUE(std::isfinite(st.mse)) << "fmt=" << static_cast<int>(fmt);
    std::vector<std::byte> out(page.size());
    DecodePage(blob.data(), blob.size(), out.data(), kElems, DType::kBF16);
    for (size_t i = 0; i < kElems; ++i) {
      const float back = ReadElem(out, DType::kBF16, i);
      EXPECT_TRUE(std::isfinite(back)) << "i=" << i;
      EXPECT_LE(std::abs(back), 65504.0f * 1.01f);
    }
  }
}

TEST(PageCodec, RandomizedRoundTripsStayWithinBound) {
  std::mt19937 rng(0xC0DEC);
  std::uniform_real_distribution<float> dist(-4.0f, 4.0f);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> vals(kElems);
    for (auto& v : vals) v = dist(rng);
    const auto cfg = KvCodecConfig{
        static_cast<KvQuantFormat>(trial % 4),
        /*compress=*/(trial / 4) % 2 == 0};
    if (!cfg.enabled()) continue;
    const auto page = MakePage(DType::kF16, kElems, vals);
    PageCodecStats st;
    const auto blob = EncodePage(page.data(), kElems, DType::kF16, cfg, &st);
    ASSERT_LE(blob.size(), EncodedPageBound(kElems, DType::kF16, cfg));
    std::vector<std::byte> out(page.size());
    DecodePage(blob.data(), blob.size(), out.data(), kElems, DType::kF16);
    if (cfg.quant == KvQuantFormat::kNone) {
      EXPECT_EQ(std::memcmp(out.data(), page.data(), page.size()), 0);
    } else {
      for (size_t i = 0; i < kElems; i += 97) {
        EXPECT_LE(std::abs(ReadElem(page, DType::kF16, i) -
                           ReadElem(out, DType::kF16, i)),
                  1.0f)
            << "trial=" << trial << " i=" << i;
      }
    }
  }
}

// --- PagedKVCache codec tier -------------------------------------------------

constexpr int kPage = 16;

PagedKVCache MakeCodecCache(int64_t pages, int64_t host_pages, KvCodecConfig codec,
                            bool synthetic = false) {
  return PagedKVCache(DType::kF16, /*num_kv_heads=*/2, /*head_dim=*/8, kPage, pages,
                      host_pages, codec, synthetic);
}

std::vector<float> Rows(int64_t tokens, float base) {
  std::vector<float> v(static_cast<size_t>(tokens) * 2 * 8);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = base + 0.125f * static_cast<float>(i % 64);
  }
  return v;
}

TEST(CodecTier, QuantizedEvictRestoreApproximatesValues) {
  const KvCodecConfig codec{KvQuantFormat::kInt8, /*compress=*/true};
  auto kv = MakeCodecCache(8, 8, codec);
  const int seq = kv.CreateSequence();
  const auto k = Rows(2 * kPage, 1.0f);
  const auto v = Rows(2 * kPage, -3.0f);
  kv.AppendTokens(seq, k.data(), v.data(), 2 * kPage);

  const auto est = kv.EvictSequenceEx(seq);
  EXPECT_EQ(est.pages, 2);
  EXPECT_GT(est.stored_bytes, 0);
  EXPECT_EQ(est.logical_bytes, 2 * kv.PageBytes());
  EXPECT_LT(est.stored_bytes, est.logical_bytes);  // int8 halves f16 at worst.
  EXPECT_GT(est.mse_pages, 0);
  EXPECT_EQ(kv.host_bytes_in_use(), est.stored_bytes);
  EXPECT_TRUE(kv.IsEvicted(seq));

  const auto rst = kv.RestoreSequenceEx(seq);
  EXPECT_EQ(rst.pages, 2);
  EXPECT_EQ(rst.stored_bytes, est.stored_bytes);
  EXPECT_EQ(kv.host_bytes_in_use(), 0);
  EXPECT_FALSE(kv.IsEvicted(seq));
  // Values come back within the int8 step of the page range.
  const auto& pages = kv.SequencePages(seq);
  for (int slot = 0; slot < kPage; ++slot) {
    for (int h = 0; h < 2; ++h) {
      for (int d = 0; d < 8; ++d) {
        const size_t idx =
            (static_cast<size_t>(slot) * 2 + static_cast<size_t>(h)) * 8 +
            static_cast<size_t>(d);
        EXPECT_NEAR(kv.KAt(pages[0], h, slot, d), k[idx], 0.05f);
        EXPECT_NEAR(kv.VAt(pages[0], h, slot, d), v[idx], 0.05f);
      }
    }
  }
}

TEST(CodecTier, EffectiveCapacityExceedsNominalPageCount) {
  // 2 nominal host pages. Admission gates on the *worst-case* encoded size
  // (int8 bound ~0.52x of f16), but realized int8+lz4 blobs are far smaller,
  // so sequential evictions pack 4 pages into a tier sized for 2 raw ones.
  const KvCodecConfig codec{KvQuantFormat::kInt8, /*compress=*/true};
  auto kv = MakeCodecCache(8, 2, codec);
  const int a = kv.CreateSequence();
  const int b = kv.CreateSequence();
  const auto k = Rows(2 * kPage, 0.5f);
  const auto v = Rows(2 * kPage, -1.5f);
  kv.AppendTokens(a, k.data(), v.data(), 2 * kPage);
  kv.AppendTokens(b, k.data(), v.data(), 2 * kPage);

  ASSERT_TRUE(kv.HostCanHold(2));
  const auto sa = kv.EvictSequenceEx(a);
  EXPECT_EQ(sa.pages, 2);
  EXPECT_LT(kv.ObservedStoredRatio(), 0.52);
  // The first eviction's realized bytes leave room the raw tier lacks: the
  // worst-case gate still admits the second 2-page sequence.
  ASSERT_TRUE(kv.HostCanHold(2));
  const auto sb = kv.EvictSequenceEx(b);
  EXPECT_EQ(sb.pages, 2);
  EXPECT_EQ(kv.num_live_host_pages(), 4);  // 2x the nominal page count.
  EXPECT_GT(kv.num_live_host_pages(), kv.max_host_pages());
  EXPECT_LE(kv.host_bytes_in_use(), kv.host_byte_capacity());

  EXPECT_EQ(kv.RestoreSequence(a), 2);
  EXPECT_EQ(kv.RestoreSequence(b), 2);
  EXPECT_EQ(kv.host_bytes_in_use(), 0);
  EXPECT_EQ(kv.num_live_host_pages(), 0);
}

TEST(CodecTier, RestoreShortfallIsTransactional) {
  const KvCodecConfig codec{KvQuantFormat::kInt8, /*compress=*/false};
  auto kv = MakeCodecCache(4, 8, codec);
  const int seq = kv.CreateSequence();
  const auto k = Rows(3 * kPage, 2.0f);
  const auto v = Rows(3 * kPage, 4.0f);
  kv.AppendTokens(seq, k.data(), v.data(), 3 * kPage);
  ASSERT_EQ(kv.EvictSequence(seq), 3);
  const int64_t host_bytes = kv.host_bytes_in_use();
  const int64_t host_pages = kv.num_live_host_pages();

  // Exhaust the device pool so only 2 of the 3 needed pages are free.
  const int hog = kv.CreateSequence();
  kv.ExtendSequence(hog, 2 * kPage);
  ASSERT_EQ(kv.num_free_pages(), 2);

  const auto st = kv.RestoreSequenceEx(seq);
  EXPECT_EQ(st.pages, -1);  // Refused...
  EXPECT_TRUE(kv.IsEvicted(seq));  // ...and nothing moved:
  EXPECT_EQ(kv.host_bytes_in_use(), host_bytes);
  EXPECT_EQ(kv.num_live_host_pages(), host_pages);
  EXPECT_EQ(kv.num_free_pages(), 2);

  // Free device pages; the retry succeeds and drains the host bytes.
  kv.DropSequence(hog);
  const auto ok = kv.RestoreSequenceEx(seq);
  EXPECT_EQ(ok.pages, 3);
  EXPECT_EQ(kv.host_bytes_in_use(), 0);
  EXPECT_FALSE(kv.IsEvicted(seq));
  kv.DropSequence(seq);
  EXPECT_EQ(kv.num_free_pages(), 4);
}

TEST(CodecTier, DropWhileEvictedFreesHostBytes) {
  const KvCodecConfig codec{KvQuantFormat::kFp8E4M3, /*compress=*/true};
  auto kv = MakeCodecCache(4, 4, codec);
  const int seq = kv.CreateSequence();
  const auto k = Rows(2 * kPage, 1.0f);
  const auto v = Rows(2 * kPage, 2.0f);
  kv.AppendTokens(seq, k.data(), v.data(), 2 * kPage);
  ASSERT_EQ(kv.EvictSequence(seq), 2);
  EXPECT_GT(kv.host_bytes_in_use(), 0);
  kv.DropSequence(seq);
  EXPECT_EQ(kv.host_bytes_in_use(), 0);
  EXPECT_EQ(kv.num_live_host_pages(), 0);
  EXPECT_EQ(kv.num_free_pages(), 4);
}

TEST(CodecTier, CodecOffRestoreIsBitExact) {
  // The codec-off tier must remain byte-for-byte the raw page pool: evict +
  // restore round-trips exact f16 bits (no encode in the path).
  auto kv = MakeCodecCache(4, 4, KvCodecConfig{});
  const int seq = kv.CreateSequence();
  const auto k = Rows(kPage, 0.333f);
  const auto v = Rows(kPage, -0.777f);
  kv.AppendTokens(seq, k.data(), v.data(), kPage);
  const int64_t page_before = kv.SequencePages(seq)[0];
  std::vector<uint16_t> bits_before;
  for (int slot = 0; slot < kPage; ++slot) {
    for (int h = 0; h < 2; ++h) {
      for (int d = 0; d < 8; ++d) {
        bits_before.push_back(
            half_t(kv.KAt(page_before, h, slot, d)).bits);
        bits_before.push_back(
            half_t(kv.VAt(page_before, h, slot, d)).bits);
      }
    }
  }
  ASSERT_EQ(kv.EvictSequence(seq), 1);
  ASSERT_EQ(kv.RestoreSequence(seq), 1);
  const int64_t page_after = kv.SequencePages(seq)[0];
  size_t i = 0;
  for (int slot = 0; slot < kPage; ++slot) {
    for (int h = 0; h < 2; ++h) {
      for (int d = 0; d < 8; ++d) {
        EXPECT_EQ(half_t(kv.KAt(page_after, h, slot, d)).bits, bits_before[i++]);
        EXPECT_EQ(half_t(kv.VAt(page_after, h, slot, d)).bits, bits_before[i++]);
      }
    }
  }
}

TEST(CodecTier, SyntheticFillGivesCompressiblePages) {
  // Structural engine caches enable synthetic_fill so encoded ratios reflect
  // data-like payloads; the fill must be deterministic and compressible.
  const KvCodecConfig codec{KvQuantFormat::kInt8, /*compress=*/true};
  auto a = MakeCodecCache(4, 4, codec, /*synthetic=*/true);
  auto b = MakeCodecCache(4, 4, codec, /*synthetic=*/true);
  const int sa = a.CreateSequence();
  const int sb = b.CreateSequence();
  a.ExtendSequence(sa, 2 * kPage);
  b.ExtendSequence(sb, 2 * kPage);
  const auto ea = a.EvictSequenceEx(sa);
  const auto eb = b.EvictSequenceEx(sb);
  EXPECT_EQ(ea.stored_bytes, eb.stored_bytes);  // Deterministic fill.
  EXPECT_LT(ea.stored_bytes, ea.logical_bytes);
}

}  // namespace
}  // namespace flashinfer

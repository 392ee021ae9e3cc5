// Software implementations of the reduced-precision storage types used by the
// attention engine: IEEE binary16 (`half_t`), bfloat16 (`bf16_t`) and the two
// OCP FP8 formats (`fp8_e4m3_t`, `fp8_e5m2_t`, per Micikevicius et al. 2022).
//
// All types are pure storage formats: arithmetic always happens in float
// (mirroring fp32 accumulation on tensor cores); conversion to the storage
// type rounds to nearest-even and saturates to the largest finite value
// (matching the CUDA __nv_fp8 saturating conversions used for KV-caches).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace flashinfer {

namespace detail {

// Conversion implementations are inline so JIT-compiled kernels need
// no library linkage (and so they inline into hot loops).


inline uint32_t FloatBits(float f) noexcept {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

inline float BitsToFloat(uint32_t u) noexcept {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}


inline uint16_t FloatToHalfBits(float f) noexcept {
  const uint32_t x = FloatBits(f);
  const uint32_t sign = (x >> 16) & 0x8000u;
  const int32_t exp = static_cast<int32_t>((x >> 23) & 0xFF) - 127 + 15;
  uint32_t man = x & 0x7FFFFFu;

  if (((x >> 23) & 0xFF) == 0xFF) {
    // Inf / NaN: preserve NaN-ness.
    return static_cast<uint16_t>(sign | 0x7C00u | (man ? 0x200u : 0u));
  }
  if (exp >= 0x1F) {
    // Overflow -> inf (binary16 has inf, unlike e4m3).
    return static_cast<uint16_t>(sign | 0x7C00u);
  }
  if (exp <= 0) {
    if (exp < -10) return static_cast<uint16_t>(sign);  // Underflow to zero.
    // Subnormal: shift mantissa (with implicit bit) right, round-nearest-even.
    man |= 0x800000u;
    const int shift = 14 - exp;
    uint32_t half_man = man >> shift;
    const uint32_t rem = man & ((1u << shift) - 1);
    const uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_man & 1))) half_man++;
    return static_cast<uint16_t>(sign | half_man);
  }
  // Normal: round mantissa from 23 to 10 bits, round-nearest-even.
  uint32_t half_man = man >> 13;
  const uint32_t rem = man & 0x1FFFu;
  uint16_t out = static_cast<uint16_t>(sign | (static_cast<uint32_t>(exp) << 10) | half_man);
  if (rem > 0x1000u || (rem == 0x1000u && (half_man & 1))) out++;  // May carry into exp: correct.
  return out;
}

// Branchless so that gathers of half_t rows vectorize. The magnitude bits
// shifted into float position read as the value scaled by 2^-112 (the
// exponent rebias 127 - 15), for subnormal halves too; the 2^112 multiply
// undoes that exactly. Exponent-all-ones patterns (inf/NaN) are selected
// with the float exponent forced to all ones, keeping the NaN payload.
// Exact unless the FPU flushes denormal inputs to zero (DAZ).
inline float HalfBitsToFloat(uint16_t bits) noexcept {
  const uint32_t mag = static_cast<uint32_t>(bits & 0x7FFFu) << 13;
  const uint32_t finite = FloatBits(BitsToFloat(mag) * 0x1p112f);
  const uint32_t out = (bits & 0x7C00u) == 0x7C00u ? (mag | 0x7F800000u) : finite;
  return BitsToFloat(out | (static_cast<uint32_t>(bits & 0x8000u) << 16));
}

inline uint16_t FloatToBf16Bits(float f) noexcept {
  uint32_t x = FloatBits(f);
  if (((x >> 23) & 0xFF) == 0xFF && (x & 0x7FFFFFu)) {
    return static_cast<uint16_t>((x >> 16) | 0x40u);  // Quiet the NaN.
  }
  // Round-to-nearest-even on the low 16 bits.
  const uint32_t rounding = 0x7FFFu + ((x >> 16) & 1);
  return static_cast<uint16_t>((x + rounding) >> 16);
}

inline float Bf16BitsToFloat(uint16_t bits) noexcept {
  return BitsToFloat(static_cast<uint32_t>(bits) << 16);
}

inline uint8_t FloatToFp8Bits(float f, int exp_bits, int man_bits) noexcept {
  const int bias = (1 << (exp_bits - 1)) - 1;
  const bool e4m3 = (exp_bits == 4);
  // Max finite value: e4m3 reserves only mantissa-all-ones of the top exponent
  // for NaN (no inf); e5m2 is IEEE-like with inf.
  const float max_finite =
      e4m3 ? 448.0f : 57344.0f;

  const uint32_t x = FloatBits(f);
  const uint8_t sign = static_cast<uint8_t>((x >> 24) & 0x80u);
  if (std::isnan(f)) {
    return static_cast<uint8_t>(sign | ((1u << (exp_bits + man_bits)) - 1));  // All ones = NaN.
  }
  float af = std::fabs(f);
  if (af > max_finite) {
    if (!e4m3 && std::isinf(f)) {
      return static_cast<uint8_t>(sign | (0x1Fu << man_bits));  // e5m2 inf.
    }
    // Saturate to max finite (CUDA __NV_SATFINITE behaviour).
    const uint8_t max_bits =
        e4m3 ? 0x7Eu : 0x7Bu;  // e4m3: S.1111.110 = 448; e5m2: S.11110.11 = 57344.
    return static_cast<uint8_t>(sign | max_bits);
  }
  if (af == 0.0f) return sign;

  int e;
  float m = std::frexp(af, &e);  // af = m * 2^e, m in [0.5, 1).
  // Normalize to 1.xxx * 2^(e-1).
  e -= 1;
  m *= 2.0f;
  int biased = e + bias;
  int shift = man_bits;
  if (biased <= 0) {
    // Subnormal: scale mantissa down.
    shift = man_bits + biased - 1;
    biased = 0;
    if (shift < -1) return sign;  // Underflow to zero (beyond rounding reach).
  }
  // Quantize mantissa with round-nearest-even using integer math.
  // value = m * 2^shift (for normals m in [1,2), giving [2^man, 2^(man+1))).
  const float scaled = std::ldexp(m, shift);
  float rounded = std::nearbyint(scaled);
  if (std::fabs(scaled - std::floor(scaled) - 0.5f) < 1e-7f) {
    // Tie: round to even.
    const float lo = std::floor(scaled);
    rounded = (static_cast<int64_t>(lo) % 2 == 0) ? lo : lo + 1.0f;
  }
  uint32_t q = static_cast<uint32_t>(rounded);
  if (biased == 0) {
    // Subnormal result; mantissa may round up into the normal range.
    if (q >= (1u << man_bits)) {
      biased = 1;
      q -= (1u << man_bits);
    }
    return static_cast<uint8_t>(sign | (static_cast<uint32_t>(biased) << man_bits) | q);
  }
  // Normal: remove implicit leading bit, handle carry.
  if (q >= (2u << man_bits)) {
    q >>= 1;
    biased += 1;
  }
  q -= (1u << man_bits);
  const uint32_t max_exp = e4m3 ? 0xFu : 0x1Eu;
  if (static_cast<uint32_t>(biased) > max_exp ||
      (e4m3 && static_cast<uint32_t>(biased) == max_exp && q == 0x7u)) {
    const uint8_t max_bits = e4m3 ? 0x7Eu : 0x7Bu;
    return static_cast<uint8_t>(sign | max_bits);
  }
  return static_cast<uint8_t>(sign | (static_cast<uint32_t>(biased) << man_bits) | q);
}

/// Decodes one fp8 pattern exactly: (implicit bit + mantissa) * 2^k, built
/// from exact power-of-two products so it can run at compile time.
constexpr float Fp8Decode(uint8_t bits, int exp_bits, int man_bits) noexcept {
  const int bias = (1 << (exp_bits - 1)) - 1;
  const uint32_t exp = (bits >> man_bits) & ((1u << exp_bits) - 1);
  const uint32_t man = bits & ((1u << man_bits) - 1);
  const float s = (bits & 0x80u) ? -1.0f : 1.0f;
  if (exp_bits == 4) {
    if (exp == 0xFu && man == 0x7u) return std::numeric_limits<float>::quiet_NaN();
  } else if (exp == 0x1Fu) {
    return man == 0 ? s * std::numeric_limits<float>::infinity()
                    : std::numeric_limits<float>::quiet_NaN();
  }
  // Normal: (2^m + man) * 2^(exp - bias - m); subnormal: man * 2^(1 - bias - m).
  const float sig = static_cast<float>(exp == 0 ? man : (1u << man_bits) + man);
  int e2 = (exp == 0 ? 1 : static_cast<int>(exp)) - bias - man_bits;
  float scale = 1.0f;
  for (; e2 > 0; --e2) scale *= 2.0f;
  for (; e2 < 0; ++e2) scale *= 0.5f;
  return s * (sig * scale);
}

template <int kExpBits, int kManBits>
constexpr std::array<float, 256> MakeFp8Table() noexcept {
  std::array<float, 256> t{};
  for (int b = 0; b < 256; ++b) {
    t[static_cast<size_t>(b)] = Fp8Decode(static_cast<uint8_t>(b), kExpBits, kManBits);
  }
  return t;
}

/// 256-entry decode tables: an fp8 load is one (vectorizable) table lookup.
inline constexpr std::array<float, 256> kFp8E4M3Table = MakeFp8Table<4, 3>();
inline constexpr std::array<float, 256> kFp8E5M2Table = MakeFp8Table<5, 2>();

}  // namespace detail

/// IEEE 754 binary16 storage type.
struct half_t {
  uint16_t bits = 0;

  half_t() = default;
  explicit half_t(float f) noexcept : bits(detail::FloatToHalfBits(f)) {}
  explicit operator float() const noexcept { return detail::HalfBitsToFloat(bits); }
  static half_t FromBits(uint16_t b) noexcept {
    half_t h;
    h.bits = b;
    return h;
  }
};

/// bfloat16 storage type (truncated-exponent-range float32).
struct bf16_t {
  uint16_t bits = 0;

  bf16_t() = default;
  explicit bf16_t(float f) noexcept : bits(detail::FloatToBf16Bits(f)) {}
  explicit operator float() const noexcept { return detail::Bf16BitsToFloat(bits); }
  static bf16_t FromBits(uint16_t b) noexcept {
    bf16_t h;
    h.bits = b;
    return h;
  }
};

/// OCP FP8 E4M3 storage type (no inf, max finite 448).
struct fp8_e4m3_t {
  uint8_t bits = 0;

  fp8_e4m3_t() = default;
  explicit fp8_e4m3_t(float f) noexcept : bits(detail::FloatToFp8Bits(f, 4, 3)) {}
  explicit operator float() const noexcept { return detail::kFp8E4M3Table[bits]; }
  static fp8_e4m3_t FromBits(uint8_t b) noexcept {
    fp8_e4m3_t h;
    h.bits = b;
    return h;
  }
};

/// OCP FP8 E5M2 storage type (IEEE-like, max finite 57344).
struct fp8_e5m2_t {
  uint8_t bits = 0;

  fp8_e5m2_t() = default;
  explicit fp8_e5m2_t(float f) noexcept : bits(detail::FloatToFp8Bits(f, 5, 2)) {}
  explicit operator float() const noexcept { return detail::kFp8E5M2Table[bits]; }
  static fp8_e5m2_t FromBits(uint8_t b) noexcept {
    fp8_e5m2_t h;
    h.bits = b;
    return h;
  }
};

/// Runtime tag for the storage precision of a tensor.
enum class DType : uint8_t {
  kF32,
  kF16,
  kBF16,
  kFP8_E4M3,
  kFP8_E5M2,
};

/// Size in bytes of one element of `dt`.
constexpr int DTypeBytes(DType dt) noexcept {
  switch (dt) {
    case DType::kF32:
      return 4;
    case DType::kF16:
    case DType::kBF16:
      return 2;
    case DType::kFP8_E4M3:
    case DType::kFP8_E5M2:
      return 1;
  }
  return 0;
}

/// Short name ("f16", "e4m3", ...). A C string, not std::string_view: every
/// JIT-compiled kernel parses this header, and <string_view> slows that parse.
const char* DTypeName(DType dt) noexcept;

/// Maps a storage type to its DType tag.
template <typename T>
struct DTypeOf;
template <>
struct DTypeOf<float> {
  static constexpr DType value = DType::kF32;
};
template <>
struct DTypeOf<half_t> {
  static constexpr DType value = DType::kF16;
};
template <>
struct DTypeOf<bf16_t> {
  static constexpr DType value = DType::kBF16;
};
template <>
struct DTypeOf<fp8_e4m3_t> {
  static constexpr DType value = DType::kFP8_E4M3;
};
template <>
struct DTypeOf<fp8_e5m2_t> {
  static constexpr DType value = DType::kFP8_E5M2;
};

/// Lossless-from-storage load: converts any storage type to float.
template <typename T>
inline float ToFloat(T v) noexcept {
  return static_cast<float>(v);
}
/// Rounding store: converts float to the storage type.
template <typename T>
inline T FromFloat(float f) noexcept {
  return T(f);
}
template <>
inline float FromFloat<float>(float f) noexcept {
  return f;
}

}  // namespace flashinfer

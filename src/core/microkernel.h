// The FlashAttention-2-style tiled micro-kernel (Sec. 3.2), templated on the
// KV storage type and the attention variant — the C++ analog of FlashInfer's
// CUDA kernel template. One invocation executes one work item: a query tile
// (Br fused rows) against one KV chunk, maintaining the online-softmax
// running state (m, d, acc) across KV tiles and emitting either a normalized
// final output (writethrough) or a partial (O, LSE) state for the
// contraction kernel. Kernels only compute: the simulated cost of a launch is
// a function of its plan alone and is priced by PricePlan
// (runtime/scheduler.h).
//
// Each KV tile runs as two register-blocked micro-GEMMs with the online
// softmax between them, the CPU analog of the template's tensor-core tile
// step: S = Q·Kᵀ over blocks of rows x tokens, then a per-row phase (mask,
// logits transform, tile max, exp, denominator), then O = diag(scale)·O + P·V
// over blocks of rows x head dims. The row and head-dim extents of the
// scratch tiles are zero-padded to the block sizes, so every head_dim takes
// the same blocked path.
//
// Sparse KV tiles are staged through a contiguous scratch buffer exactly as
// Fig. 4 describes (gather rows via BSR indices, then run the dense inner
// loop); dense-path callers use the same code with trivial index math, so
// post-transfer the implementations converge as in the paper.
// The header avoids <algorithm>: every JIT-compiled kernel parses it, and
// <algorithm> alone adds about 0.1 s to each cold compile.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/params.h"
#include "util/check.h"

namespace flashinfer {

namespace detail {

/// Per-row metadata under head-group fusion (Appendix A): fused local index
/// i maps to query token i/g and group head i%g.
struct RowMeta {
  int64_t token_row;
  int qo_head;
  int64_t q_pos;
};

/// Per-tile scratch; reused across work items of one CTA (thread-local in
/// the simulator, shared memory on a real GPU). Row strides are the padded
/// head dim (PaddedHeadDim); tails past head_dim stay zero.
struct KernelScratch {
  std::vector<float> q;        // [padded rows, Dp] transformed query tile.
  std::vector<float> k;        // [padded tile_kv, Dp] gathered key tile.
  std::vector<float> v;        // [tile_kv, Dp] gathered value tile.
  std::vector<int64_t> kv_pos;  // [tile_kv] logical position per gathered token.
  std::vector<float> p;        // [padded rows, padded tile_kv] scores, then weights.
  std::vector<float> scale;    // [padded rows] per-tile rescale of acc.
  std::vector<float> acc;      // [padded rows, Dp] output accumulator.
  std::vector<float> m;         // [tile_rows] running max.
  std::vector<float> d;         // [tile_rows] running denominator.
  std::vector<RowMeta> meta;    // [tile_rows] row -> (token, head, position).
};

inline KernelScratch& TlsScratch() {
  thread_local KernelScratch scratch;
  return scratch;
}

// --- Register blocks ------------------------------------------------------
// The vector width follows the ISA the translation unit is compiled for
// (the library's baseline build or the host-native JIT build), so a vector
// is always one machine register and never crosses a call ABI it lacks.
#if defined(__AVX512F__)
inline constexpr int kSimdWidth = 16;
#elif defined(__AVX__)
inline constexpr int kSimdWidth = 8;
#else
inline constexpr int kSimdWidth = 4;
#endif
using VecF = float __attribute__((vector_size(kSimdWidth * sizeof(float))));

/// Rows per block of both micro-GEMMs: 4 with 32 vector registers, 2 with 16.
inline constexpr int kRowBlock = kSimdWidth == 16 ? 4 : 2;
/// Tokens per Q·Kᵀ block.
inline constexpr int kTokBlock = 4;
/// Head dims per P·V block: four vectors per row.
inline constexpr int kDimVecs = 4;
inline constexpr int kDimBlock = kDimVecs * kSimdWidth;

constexpr int RoundUp(int x, int m) { return (x + m - 1) / m * m; }
/// Row stride of the q/k/v/acc scratch tiles.
constexpr int PaddedHeadDim(int head_dim) { return RoundUp(head_dim, kDimBlock); }

inline VecF LoadVec(const float* p) {
  VecF v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreVec(float* p, VecF v) { __builtin_memcpy(p, &v, sizeof(v)); }

/// Source lane of output lane `j` when folding a pair of vectors whose sums
/// span `lanes` lanes each: the low half of the result folds `a`, the high
/// half folds `b`, every sum shrinking to lanes/2 lanes in order.
constexpr int FoldLane(int j, int lanes, bool upper) {
  const int half = kSimdWidth / 2;
  const int out_lanes = lanes / 2;
  const int jj = j % half;
  return (j < half ? 0 : kSimdWidth) + jj / out_lanes * lanes + jj % out_lanes +
         (upper ? out_lanes : 0);
}

template <int Lanes, size_t... J>
inline VecF FoldPair(VecF a, VecF b, std::index_sequence<J...>) {
  return __builtin_shufflevector(a, b, FoldLane(static_cast<int>(J), Lanes, false)...) +
         __builtin_shufflevector(a, b, FoldLane(static_cast<int>(J), Lanes, true)...);
}

/// Horizontal sums of N accumulators, written to out[0..N) in order: a
/// transposing shuffle tree (N-1 folds per kSimdWidth sums) instead of one
/// full reduction per accumulator.
template <int N, int Lanes = kSimdWidth>
inline void TreeSum(const VecF* v, float* out) {
  if constexpr (Lanes == 1) {
    __builtin_memcpy(out, v, N * sizeof(VecF));
  } else {
    static_assert(N % 2 == 0, "TreeSum needs at least kSimdWidth accumulators");
    VecF folded[N / 2];
#pragma GCC unroll 16
    for (int i = 0; i < N / 2; ++i) {
      folded[i] = FoldPair<Lanes>(v[2 * i], v[2 * i + 1],
                                  std::make_index_sequence<kSimdWidth>{});
    }
    TreeSum<N / 2, Lanes / 2>(folded, out);
  }
}

/// s[r * lds + t] = q_r · k_t for a kRowBlock x kTokBlock block, with one
/// independent accumulator per (row, token). `dp` is the row stride and dot
/// length of q and k (a multiple of kSimdWidth).
inline void QkBlock(const float* q, const float* k, int dp, float* s, int lds) {
  constexpr int kAcc = kRowBlock * kTokBlock;
  VecF acc[kAcc] = {};
  for (int dd = 0; dd < dp; dd += kSimdWidth) {
    VecF qv[kRowBlock];
#pragma GCC unroll 4
    for (int r = 0; r < kRowBlock; ++r) qv[r] = LoadVec(q + r * dp + dd);
#pragma GCC unroll 4
    for (int t = 0; t < kTokBlock; ++t) {
      const VecF kv = LoadVec(k + t * dp + dd);
#pragma GCC unroll 4
      for (int r = 0; r < kRowBlock; ++r) acc[r * kTokBlock + t] += qv[r] * kv;
    }
  }
  float sums[kAcc];
  TreeSum<kAcc>(acc, sums);
#pragma GCC unroll 4
  for (int r = 0; r < kRowBlock; ++r) {
#pragma GCC unroll 4
    for (int t = 0; t < kTokBlock; ++t) s[r * lds + t] = sums[r * kTokBlock + t];
  }
}

/// acc[r][0..kDimBlock) = scale[r] * acc[r] + sum_t p[r][t] * v[t] for a block
/// of kRowBlock rows, holding the block's kRowBlock x kDimVecs accumulators
/// in registers across the token loop. `acc` and `v` have row stride `dp`.
inline void PvBlock(const float* p, int ldp, const float* scale, const float* v, int dp,
                    int count, float* acc) {
  VecF o[kRowBlock][kDimVecs];
#pragma GCC unroll 4
  for (int r = 0; r < kRowBlock; ++r) {
#pragma GCC unroll 4
    for (int j = 0; j < kDimVecs; ++j) o[r][j] = scale[r] * LoadVec(acc + r * dp + j * kSimdWidth);
  }
  for (int t = 0; t < count; ++t) {
    VecF vv[kDimVecs];
#pragma GCC unroll 4
    for (int j = 0; j < kDimVecs; ++j) vv[j] = LoadVec(v + t * dp + j * kSimdWidth);
#pragma GCC unroll 4
    for (int r = 0; r < kRowBlock; ++r) {
      const float w = p[r * ldp + t];
#pragma GCC unroll 4
      for (int j = 0; j < kDimVecs; ++j) o[r][j] += w * vv[j];
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kRowBlock; ++r) {
#pragma GCC unroll 4
    for (int j = 0; j < kDimVecs; ++j) StoreVec(acc + r * dp + j * kSimdWidth, o[r][j]);
  }
}

/// Lower end of FastExp's domain; smaller inputs return 0.
inline constexpr float kFastExpMin = -87.0f;

/// exp(x) for x <= 0, branchless so that the softmax weight loop vectorizes:
/// Cody-Waite reduction x = n ln2 + r, |r| <= ln2/2, e^r = 1 + r + r^2 P(r)
/// with the Cephes expf coefficients, and 2^n assembled in the exponent
/// bits. Within 1 ulp of e^x on [kFastExpMin, 0] (exhaustively tested in
/// fast_exp_test); inputs below kFastExpMin, -inf included, give 0. Inputs
/// above -2^-30 are evaluated at 0: e^x rounds to 1 there, and r * r would
/// otherwise be subnormal (a microcode assist on every such lane).
inline float FastExp(float x) noexcept {
  const float xc = x > -0x1p-30f ? 0.0f : x < kFastExpMin ? kFastExpMin : x;
  // Round-to-nearest n = x / ln2 by the 1.5 * 2^23 shifter.
  const float shifted = xc * 1.44269504088896341f + 12582912.0f;
  const float n = shifted - 12582912.0f;
  const float r = (xc - n * 0.693359375f) + n * 2.12194440e-4f;
  float poly = 1.9875691500e-4f;
  poly = poly * r + 1.3981999507e-3f;
  poly = poly * r + 8.3334519073e-3f;
  poly = poly * r + 4.1665795894e-2f;
  poly = poly * r + 1.6666665459e-1f;
  poly = poly * r + 5.0000001201e-1f;
  const float er = poly * r * r + r + 1.0f;
  const int32_t ni = static_cast<int32_t>(FloatBits(shifted) - FloatBits(12582912.0f));
  const float two_n = BitsToFloat(static_cast<uint32_t>(ni + 127) << 23);
  return x < kFastExpMin ? 0.0f : er * two_n;
}

}  // namespace detail

template <typename KVT, typename Variant>
void RunWorkItem(const AttentionParams& p, const KernelConfig& cfg, const WorkItem& item,
                 const PartialSink& sink) {
  using detail::kDimBlock;
  using detail::kRowBlock;
  using detail::kTokBlock;
  const Variant variant;
  const auto& bsr = *p.bsr;
  const auto& kvc = *p.kv;
  const int d_dim = p.head_dim;
  const int dp = detail::PaddedHeadDim(d_dim);
  const int g = p.head_fusion ? p.GroupSize() : 1;
  const int64_t row0 = bsr.row_start[static_cast<size_t>(item.block_row)];
  const int rows = bsr.RowsInBlock(item.block_row);
  const int rows_pad = detail::RoundUp(rows, kRowBlock);
  const int64_t fused_begin = p.FusedBegin(item.request);
  const int64_t qo_len = p.QoLen(item.request);
  const int64_t kv_len = p.kv_len[static_cast<size_t>(item.request)];
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();

  auto& s = detail::TlsScratch();
  s.q.assign(static_cast<size_t>(rows_pad) * dp, 0.0f);
  s.acc.assign(static_cast<size_t>(rows_pad) * dp, 0.0f);
  s.scale.assign(static_cast<size_t>(rows_pad), 1.0f);
  s.m.assign(static_cast<size_t>(rows), kNegInf);
  s.d.assign(static_cast<size_t>(rows), 0.0f);

  // --- Load + transform the query tile (once per work item). -------------
  s.meta.resize(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    const int64_t local = row0 + i - fused_begin;
    FI_CHECK_GE(local, 0);
    const int64_t token_local = p.head_fusion ? local / g : local;
    const int head_in_group = p.head_fusion ? static_cast<int>(local % g) : 0;
    const int qo_head = p.head_fusion ? item.kv_head * g + head_in_group
                                      : static_cast<int>(item.qo_head);
    const int64_t token_row = p.qo_indptr[static_cast<size_t>(item.request)] + token_local;
    const int64_t q_pos = kv_len - qo_len + token_local;
    s.meta[static_cast<size_t>(i)] = {token_row, qo_head, q_pos};
    const float* src = p.q->Row(token_row).data() + static_cast<int64_t>(qo_head) * d_dim;
    float* dst = s.q.data() + static_cast<size_t>(i) * dp;
    for (int dd = 0; dd < d_dim; ++dd) dst[dd] = src[dd];
    if constexpr (Variant::kHasQKTransform) {
      variant.QueryTransform(p.variant, {dst, static_cast<size_t>(d_dim)}, q_pos, qo_head);
    }
  }

  // --- Iterate KV tiles of the chunk. -------------------------------------
  const int tile_kv = cfg.tile_kv > 1 ? cfg.tile_kv : 1;
  const int ldp = detail::RoundUp(tile_kv, kTokBlock);
  if (dp != d_dim) {
    // Zero the head-dim tails once; staging writes only [0, head_dim).
    s.k.assign(static_cast<size_t>(ldp) * dp, 0.0f);
    s.v.assign(static_cast<size_t>(tile_kv) * dp, 0.0f);
  } else {
    s.k.resize(static_cast<size_t>(ldp) * dp);
    s.v.resize(static_cast<size_t>(tile_kv) * dp);
  }
  s.kv_pos.resize(static_cast<size_t>(tile_kv));
  s.p.resize(static_cast<size_t>(rows_pad) * ldp);

  int64_t cursor = 0;  // Valid-KV coordinate of the current block's start.
  int filled = 0;  // Tokens staged in the current tile.

  // One FA2 tile step for all rows of the item. Masked tokens take weight 0
  // and take no part in the tile max. Scores of the padding tokens are
  // computed and never read. Padding rows have zero queries, scale 1 and
  // raw scores as weights; their accumulators are never emitted.
  auto flush_tile = [&](int count) {
    if (count == 0) return;
    float* pm = s.p.data();
    float* scale = s.scale.data();
    // S = Q·Kᵀ.
    const int count_pad = detail::RoundUp(count, kTokBlock);
    for (int r0 = 0; r0 < rows_pad; r0 += kRowBlock) {
      for (int t0 = 0; t0 < count_pad; t0 += kTokBlock) {
        detail::QkBlock(s.q.data() + static_cast<size_t>(r0) * dp,
                        s.k.data() + static_cast<size_t>(t0) * dp, dp,
                        pm + static_cast<size_t>(r0) * ldp + t0, ldp);
      }
    }
    // Per-row phase: scores -> weights, and each row's acc rescale.
    for (int i = 0; i < rows; ++i) {
      const auto& rm = s.meta[static_cast<size_t>(i)];
      LogitsCtx ctx;
      ctx.q_pos = rm.q_pos;
      ctx.qo_head = rm.qo_head;
      ctx.kv_head = item.kv_head;
      ctx.qo_len = qo_len;
      ctx.kv_len = kv_len;
      ctx.request = item.request;
      float* prow = pm + static_cast<size_t>(i) * ldp;
      // Masked logits read as -inf (weight exp(-inf) = 0) under softmax and
      // as weight 0 without it.
      constexpr float kMasked = Variant::kUseSoftmax ? kNegInf : 0.0f;
      for (int t = 0; t < count; ++t) {
        ctx.kv_pos = s.kv_pos[static_cast<size_t>(t)];
        prow[t] = variant.LogitsMask(p.variant, ctx)
                      ? variant.LogitsTransform(p.variant, prow[t], ctx)
                      : kMasked;
      }
      if constexpr (Variant::kUseSoftmax) {
        // Online softmax at tile granularity (Milakov & Gimelshein 2018; FA2).
        float tile_max = kNegInf;
#pragma omp simd reduction(max : tile_max)
        for (int t = 0; t < count; ++t) tile_max = prow[t] > tile_max ? prow[t] : tile_max;
        if (tile_max == kNegInf) {
          // Fully masked tile: the row's state is unchanged.
          scale[i] = 1.0f;
          for (int t = 0; t < count; ++t) prow[t] = 0.0f;
          continue;
        }
        float& m = s.m[static_cast<size_t>(i)];
        const float m_new = tile_max > m ? tile_max : m;
        scale[i] = m_new == m ? 1.0f : (m == kNegInf ? 0.0f : std::exp(m - m_new));
        m = m_new;
        float sum = 0.0f;
#pragma omp simd reduction(+ : sum)
        for (int t = 0; t < count; ++t) {
          prow[t] = detail::FastExp(prow[t] - m_new);
          sum += prow[t];
        }
        float& den = s.d[static_cast<size_t>(i)];
        den = den * scale[i] + sum;
      }
      // No-softmax variants (FlashSigmoid): plain weighted accumulation with
      // scale 1; partials compose by summation.
    }
    // O = diag(scale)·O + P·V.
    for (int r0 = 0; r0 < rows_pad; r0 += kRowBlock) {
      for (int d0 = 0; d0 < dp; d0 += kDimBlock) {
        detail::PvBlock(pm + static_cast<size_t>(r0) * ldp, ldp, scale + r0, s.v.data() + d0,
                        dp, count, s.acc.data() + static_cast<size_t>(r0) * dp + d0);
      }
    }
  };

  const int64_t e_begin = bsr.indptr[static_cast<size_t>(item.block_row)];
  const int64_t e_end = bsr.indptr[static_cast<size_t>(item.block_row) + 1];
  for (int64_t e = e_begin; e < e_end && cursor < item.kv_end; ++e) {
    const int valid = bsr.block_valid[static_cast<size_t>(e)];
    const int64_t blk_lo = cursor;
    const int64_t blk_hi = cursor + valid;
    cursor = blk_hi;
    if (blk_hi <= item.kv_begin) continue;
    const int64_t lo = blk_lo > item.kv_begin ? blk_lo : item.kv_begin;
    const int64_t hi = blk_hi < item.kv_end ? blk_hi : item.kv_end;
    const int64_t page = bsr.indices[static_cast<size_t>(e)];
    for (int64_t t = lo; t < hi; ++t) {
      const int slot = static_cast<int>(t - blk_lo);
      const int64_t kv_pos = bsr.block_pos[static_cast<size_t>(e)] + slot;
      // Stage (gather) one token's K/V rows into the contiguous tile.
      const KVT* ksrc = kvc.KRow<KVT>(page, item.kv_head, slot);
      const KVT* vsrc = kvc.VRow<KVT>(page, item.kv_head, slot);
      float* kdst = s.k.data() + static_cast<size_t>(filled) * dp;
      float* vdst = s.v.data() + static_cast<size_t>(filled) * dp;
#pragma omp simd
      for (int dd = 0; dd < d_dim; ++dd) {
        kdst[dd] = ToFloat(ksrc[dd]);
        vdst[dd] = ToFloat(vsrc[dd]);
      }
      if constexpr (Variant::kHasQKTransform) {
        variant.KeyTransform(p.variant, {kdst, static_cast<size_t>(d_dim)}, kv_pos,
                             item.kv_head);
      }
      s.kv_pos[static_cast<size_t>(filled)] = kv_pos;
      ++filled;
      if (filled == tile_kv) {
        flush_tile(filled);
        filled = 0;
      }
    }
  }
  flush_tile(filled);

  // --- Emit output. --------------------------------------------------------
  const bool partial = item.dest >= 0;
  for (int i = 0; i < rows; ++i) {
    const auto& rm = s.meta[static_cast<size_t>(i)];
    const float den = s.d[static_cast<size_t>(i)];
    const float m = s.m[static_cast<size_t>(i)];
    const float inv = (Variant::kUseSoftmax && den > 0.0f) ? 1.0f / den : 1.0f;
    const float lse = Variant::kUseSoftmax
                          ? (den > 0.0f ? m + std::log(den) : kNegInf)
                          : 0.0f;
    const float* acc = s.acc.data() + static_cast<size_t>(i) * dp;
    if (partial) {
      float* orow = sink.o + (static_cast<int64_t>(item.dest) + i) * d_dim;
      for (int dd = 0; dd < d_dim; ++dd) orow[dd] = acc[dd] * inv;
      sink.lse[item.dest + i] = lse;
    } else {
      float* orow =
          p.o->Row(rm.token_row).data() + static_cast<int64_t>(rm.qo_head) * d_dim;
      for (int dd = 0; dd < d_dim; ++dd) orow[dd] = acc[dd] * inv;
      variant.OutputTransform(p.variant, {orow, static_cast<size_t>(d_dim)}, rm.q_pos,
                              rm.qo_head);
      if (p.lse != nullptr) {
        (*p.lse)[static_cast<size_t>(rm.token_row) * p.num_qo_heads + rm.qo_head] = lse;
      }
    }
  }
}

}  // namespace flashinfer

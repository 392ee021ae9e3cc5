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
// Sparse KV tiles are staged through a contiguous scratch buffer exactly as
// Fig. 4 describes (gather rows via BSR indices, then run the dense inner
// loop); dense-path callers use the same code with trivial index math, so
// post-transfer the implementations converge as in the paper.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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
/// the simulator, shared memory on a real GPU).
struct KernelScratch {
  std::vector<float> q;        // [tile_rows, D] transformed query tile.
  std::vector<float> k;        // [tile_kv, D] gathered key tile.
  std::vector<float> v;        // [tile_kv, D] gathered value tile.
  std::vector<int64_t> kv_pos;  // [tile_kv] logical position per gathered token.
  std::vector<float> score;    // [tile_kv] one row's scores (softmax weights after).
  std::vector<uint8_t> keep;   // [tile_kv] one row's mask flags.
  std::vector<float> acc;      // [tile_rows, D] output accumulator.
  std::vector<float> m;         // [tile_rows] running max.
  std::vector<float> d;         // [tile_rows] running denominator.
  std::vector<RowMeta> meta;    // [tile_rows] row -> (token, head, position).
};

inline KernelScratch& TlsScratch() {
  thread_local KernelScratch scratch;
  return scratch;
}

}  // namespace detail

template <typename KVT, typename Variant>
void RunWorkItem(const AttentionParams& p, const KernelConfig& cfg, const WorkItem& item,
                 const PartialSink& sink) {
  const Variant variant;
  const auto& bsr = *p.bsr;
  const auto& kvc = *p.kv;
  const int d_dim = p.head_dim;
  const int g = p.head_fusion ? p.GroupSize() : 1;
  const int64_t row0 = bsr.row_start[static_cast<size_t>(item.block_row)];
  const int rows = bsr.RowsInBlock(item.block_row);
  const int64_t fused_begin = p.FusedBegin(item.request);
  const int64_t qo_len = p.QoLen(item.request);
  const int64_t kv_len = p.kv_len[static_cast<size_t>(item.request)];

  auto& s = detail::TlsScratch();
  s.q.resize(static_cast<size_t>(rows) * d_dim);
  s.acc.assign(static_cast<size_t>(rows) * d_dim, 0.0f);
  s.m.assign(static_cast<size_t>(rows), -std::numeric_limits<float>::infinity());
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
    float* dst = s.q.data() + static_cast<size_t>(i) * d_dim;
    std::copy(src, src + d_dim, dst);
    if constexpr (Variant::kHasQKTransform) {
      variant.QueryTransform(p.variant, {dst, static_cast<size_t>(d_dim)}, q_pos, qo_head);
    }
  }

  // --- Iterate KV tiles of the chunk. -------------------------------------
  const int tile_kv = std::max(1, cfg.tile_kv);
  s.k.resize(static_cast<size_t>(tile_kv) * d_dim);
  s.v.resize(static_cast<size_t>(tile_kv) * d_dim);
  s.kv_pos.resize(static_cast<size_t>(tile_kv));
  s.score.resize(static_cast<size_t>(tile_kv));
  s.keep.resize(static_cast<size_t>(tile_kv));

  int64_t cursor = 0;  // Valid-KV coordinate of the current block's start.
  int filled = 0;  // Tokens staged in the current tile.

  // One FA2 tile step per query row: score the whole tile into `score`,
  // flagging masked tokens in `keep`; then one tile max, one (acc, den)
  // rescale, and P.V as contiguous axpys over head_dim. Flagged tokens take
  // no part in the max, the weights or P.V.
  auto flush_tile = [&](int count) {
    if (count == 0) return;
    float* score = s.score.data();
    uint8_t* keep = s.keep.data();
    for (int i = 0; i < rows; ++i) {
      const auto& rm = s.meta[static_cast<size_t>(i)];
      LogitsCtx ctx;
      ctx.q_pos = rm.q_pos;
      ctx.qo_head = rm.qo_head;
      ctx.kv_head = item.kv_head;
      ctx.qo_len = qo_len;
      ctx.kv_len = kv_len;
      ctx.request = item.request;
      const float* qrow = s.q.data() + static_cast<size_t>(i) * d_dim;
      float* acc = s.acc.data() + static_cast<size_t>(i) * d_dim;
      int kept = 0;
      float tile_max = -std::numeric_limits<float>::infinity();
      for (int t = 0; t < count; ++t) {
        ctx.kv_pos = s.kv_pos[static_cast<size_t>(t)];
        keep[t] = variant.LogitsMask(p.variant, ctx) ? 1 : 0;
        if (keep[t] == 0) continue;
        const float* krow = s.k.data() + static_cast<size_t>(t) * d_dim;
        float logit = 0.0f;
#pragma omp simd reduction(+ : logit)
        for (int dd = 0; dd < d_dim; ++dd) logit += qrow[dd] * krow[dd];
        score[t] = variant.LogitsTransform(p.variant, logit, ctx);
        tile_max = std::max(tile_max, score[t]);
        ++kept;
      }
      if (kept == 0) continue;  // Fully masked tile: the row's state is unchanged.
      if constexpr (Variant::kUseSoftmax) {
        // Online softmax at tile granularity (Milakov & Gimelshein 2018; FA2).
        float& m = s.m[static_cast<size_t>(i)];
        float& den = s.d[static_cast<size_t>(i)];
        if (tile_max > m) {
          const float scale = std::isinf(m) ? 0.0f : std::exp(m - tile_max);
#pragma omp simd
          for (int dd = 0; dd < d_dim; ++dd) acc[dd] *= scale;
          den *= scale;
          m = tile_max;
        }
        for (int t = 0; t < count; ++t) {
          if (keep[t] == 0) continue;
          score[t] = std::exp(score[t] - m);
          den += score[t];
        }
      } else {
        // No-softmax variants (FlashSigmoid): plain weighted accumulation;
        // partials compose by summation.
        s.d[static_cast<size_t>(i)] = 1.0f;
      }
      for (int t = 0; t < count; ++t) {
        if (keep[t] == 0) continue;
        const float w = score[t];
        const float* vrow = s.v.data() + static_cast<size_t>(t) * d_dim;
#pragma omp simd
        for (int dd = 0; dd < d_dim; ++dd) acc[dd] += w * vrow[dd];
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
    const int64_t lo = std::max<int64_t>(blk_lo, item.kv_begin);
    const int64_t hi = std::min<int64_t>(blk_hi, item.kv_end);
    const int64_t page = bsr.indices[static_cast<size_t>(e)];
    for (int64_t t = lo; t < hi; ++t) {
      const int slot = static_cast<int>(t - blk_lo);
      const int64_t kv_pos = bsr.block_pos[static_cast<size_t>(e)] + slot;
      // Stage (gather) one token's K/V rows into the contiguous tile.
      const KVT* ksrc = kvc.KRow<KVT>(page, item.kv_head, slot);
      const KVT* vsrc = kvc.VRow<KVT>(page, item.kv_head, slot);
      float* kdst = s.k.data() + static_cast<size_t>(filled) * d_dim;
      float* vdst = s.v.data() + static_cast<size_t>(filled) * d_dim;
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
                          ? (den > 0.0f ? m + std::log(den)
                                        : -std::numeric_limits<float>::infinity())
                          : 0.0f;
    float* acc = s.acc.data() + static_cast<size_t>(i) * d_dim;
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

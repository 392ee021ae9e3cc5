// Shared fixtures: random attention problems over the paged cache, and a
// serial (scheduler-free) kernel driver used to isolate kernel math.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/kernel_dispatch.h"
#include "core/reference.h"
#include "kvcache/paged.h"
#include "kvcache/ragged.h"
#include "runtime/scheduler.h"
#include "sparse/bsr.h"
#include "util/rng.h"

namespace flashinfer::test {

struct ProblemSpec {
  std::vector<int64_t> qo_lens;
  std::vector<int64_t> kv_lens;  // kv_lens[i] >= qo_lens[i] (incremental prefill).
  int num_qo_heads = 4;
  int num_kv_heads = 2;
  int head_dim = 16;
  int page_size = 4;
  DType kv_dtype = DType::kF32;
  int tile_q = 16;
  bool head_fusion = true;
  uint64_t seed = 42;
};

struct Problem {
  ProblemSpec spec;
  std::unique_ptr<PagedKVCache> kv;
  std::vector<int> seq_ids;
  RaggedTensor q;
  RaggedTensor o;
  std::vector<float> lse;
  sparse::BsrMatrix bsr;
  std::vector<int64_t> qo_indptr;

  AttentionParams Params() {
    AttentionParams p;
    p.q = &q;
    p.o = &o;
    p.lse = &lse;
    p.kv = kv.get();
    p.bsr = &bsr;
    p.qo_indptr = qo_indptr;
    p.kv_len = spec.kv_lens;
    p.num_qo_heads = spec.num_qo_heads;
    p.num_kv_heads = spec.num_kv_heads;
    p.head_dim = spec.head_dim;
    p.head_fusion = spec.head_fusion;
    p.variant.sm_scale = 1.0f / std::sqrt(static_cast<float>(spec.head_dim));
    p.variant.num_qo_heads = spec.num_qo_heads;
    return p;
  }
};

inline Problem MakeProblem(ProblemSpec spec) {
  Problem prob;
  prob.spec = spec;
  Rng rng(spec.seed);
  const int num_reqs = static_cast<int>(spec.qo_lens.size());
  FI_CHECK_EQ(spec.qo_lens.size(), spec.kv_lens.size());

  int64_t total_pages = 8;
  for (int64_t len : spec.kv_lens) total_pages += (len + spec.page_size - 1) / spec.page_size;
  prob.kv = std::make_unique<PagedKVCache>(spec.kv_dtype, spec.num_kv_heads, spec.head_dim,
                                           spec.page_size, total_pages);

  const int hd = spec.num_kv_heads * spec.head_dim;
  std::vector<sparse::RequestKv> req_kv;
  for (int r = 0; r < num_reqs; ++r) {
    const int seq = prob.kv->CreateSequence();
    prob.seq_ids.push_back(seq);
    std::vector<float> k(static_cast<size_t>(spec.kv_lens[r]) * hd);
    std::vector<float> v(k.size());
    for (auto& x : k) x = static_cast<float>(rng.Normal(0.0, 1.0));
    for (auto& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
    prob.kv->AppendTokens(seq, k.data(), v.data(), spec.kv_lens[r]);
    req_kv.push_back(prob.kv->ExportKv(seq));
  }

  prob.qo_indptr = BuildIndptr(spec.qo_lens);
  prob.q = RaggedTensor::Zeros(prob.qo_indptr,
                               static_cast<int64_t>(spec.num_qo_heads) * spec.head_dim);
  for (auto& x : prob.q.data) x = static_cast<float>(rng.Normal(0.0, 1.0));
  prob.o = RaggedTensor::Zeros(prob.qo_indptr, prob.q.inner);
  prob.lse.assign(static_cast<size_t>(prob.q.NumRows() * spec.num_qo_heads), 0.0f);

  const int g = spec.head_fusion ? spec.num_qo_heads / spec.num_kv_heads : 1;
  std::vector<int64_t> fused_lens(spec.qo_lens);
  for (auto& l : fused_lens) l *= g;
  prob.bsr =
      sparse::BuildBatchBsr(BuildIndptr(fused_lens), req_kv, spec.page_size, spec.tile_q);
  return prob;
}

/// Runs attention serially: every work unit executes in full (no KV split),
/// writing the final output directly.
inline void RunSerial(AttentionParams& p, const KernelConfig& cfg, WorkItemFn fn) {
  const auto units = EnumerateWorkUnits(p);
  PartialSink sink;
  for (const auto& u : units) {
    WorkItem item{u.block_row, u.request, u.kv_head, u.qo_head, 0, u.kv_len, -1};
    fn(p, cfg, item, sink);
  }
}

/// Max absolute difference between two equally-shaped float vectors.
inline float MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  FI_CHECK_EQ(a.size(), b.size());
  float m = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

struct RefErr {
  float o;
  float lse;
};

/// Runs `fn` serially and returns its max error against the double-precision
/// reference of the built-in variant `kind`.
inline RefErr ErrorVsReference(Problem& prob, AttentionParams& p, VariantKind kind,
                               const KernelConfig& cfg, WorkItemFn fn) {
  RunSerial(p, cfg, fn);
  auto ref_o = RaggedTensor::Zeros(prob.qo_indptr, prob.q.inner);
  std::vector<float> ref_lse(prob.lse.size(), 0.0f);
  ReferenceAttentionKind(kind, p, &ref_o, &ref_lse);
  return {MaxAbsDiff(prob.o.data, ref_o.data), MaxAbsDiff(prob.lse, ref_lse)};
}

/// One causal request through one kernel: the shapes that drive the tile
/// step's register blocks (fused rows, tile fill, head_dim) and its masks.
struct TileCase {
  int64_t qo_len = 1;
  int64_t kv_len = 40;
  int head_dim = 64;
  int tile_kv = 64;
  int num_qo_heads = 2;  // Equal head counts: fused rows == qo_len.
  int num_kv_heads = 2;
  DType dtype = DType::kF32;
  VariantKind kind = VariantKind::kVanilla;
  int64_t window_left = -1;
  int64_t num_sink_tokens = 0;

  std::string Describe() const {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "qo=%lld kv=%lld d=%d tile_kv=%d heads=%d/%d %s %s window=%lld sinks=%lld",
                  static_cast<long long>(qo_len), static_cast<long long>(kv_len), head_dim,
                  tile_kv, num_qo_heads, num_kv_heads, DTypeName(dtype),
                  VariantKindName(kind), static_cast<long long>(window_left),
                  static_cast<long long>(num_sink_tokens));
    return buf;
  }
};

/// Error of `fn` (a kernel for c.kind and c.dtype) on `c`, at tile_q 16.
inline RefErr TileCaseError(const TileCase& c, WorkItemFn fn) {
  ProblemSpec spec;
  spec.qo_lens = {c.qo_len};
  spec.kv_lens = {c.kv_len};
  spec.num_qo_heads = c.num_qo_heads;
  spec.num_kv_heads = c.num_kv_heads;
  spec.head_dim = c.head_dim;
  spec.kv_dtype = c.dtype;
  spec.tile_q = 16;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  p.variant.window_left = c.window_left;
  p.variant.num_sink_tokens = c.num_sink_tokens;
  p.variant.logits_soft_cap = 2.0f;
  p.variant.sigmoid_scale = 1.5f;
  p.variant.sigmoid_bias = -0.5f;
  KernelConfig cfg;
  cfg.tile_q = 16;
  cfg.tile_kv = c.tile_kv;
  return ErrorVsReference(prob, p, c.kind, cfg, fn);
}

}  // namespace flashinfer::test

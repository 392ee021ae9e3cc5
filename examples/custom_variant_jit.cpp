// Custom attention variants through the JIT pipeline (Sec. 3.2.3, Fig. 5).
//
// Defines FlashSigmoid — the paper's running example — as a spec of C++
// functor bodies plus two extra scalars, generates the kernel source,
// compiles it with the host compiler, loads it with dlopen, and runs it
// through the standard BatchAttentionHandle. Also shows a custom banded
// mask variant that no built-in provides.
#include <cstdio>

#include "jit/codegen.h"
#include "jit/compiler.h"
#include "kvcache/ragged.h"
#include "runtime/batch_handle.h"
#include "util/rng.h"

using namespace flashinfer;

namespace {

void RunVariant(const char* title, const std::shared_ptr<jit::CompiledKernel>& kernel,
                const float* extras, int num_extras) {
  const int heads = 4, head_dim = 32, page_size = 8;
  PagedKVCache cache(DType::kF16, heads, head_dim, page_size, 64);
  Rng rng(11);
  const int seq = cache.CreateSequence();
  const int64_t kv_len = 100;
  std::vector<float> k(static_cast<size_t>(kv_len) * heads * head_dim);
  std::vector<float> v(k.size());
  for (auto& x : k) x = static_cast<float>(rng.Normal(0, 1));
  for (auto& x : v) x = static_cast<float>(rng.Normal(0, 1));
  cache.AppendTokens(seq, k.data(), v.data(), kv_len);

  auto qo_indptr = BuildIndptr({1});
  auto q = RaggedTensor::Zeros(qo_indptr, static_cast<int64_t>(heads) * head_dim);
  for (auto& x : q.data) x = static_cast<float>(rng.Normal(0, 1));
  auto o = RaggedTensor::Zeros(qo_indptr, q.inner);

  Workspace ws(Workspace::EstimateBytes(528, 16, head_dim));
  BatchAttentionHandle::TaskInfo info;
  info.kv_dtype = DType::kF16;
  info.num_qo_heads = heads;
  info.num_kv_heads = heads;
  info.head_dim = head_dim;
  BatchAttentionHandle handle(gpusim::H100Sxm80GB(), info, &ws);
  // Swap in the JIT-compiled kernel (overrides the built-in dispatch).
  handle.SetKernel(kernel->fn(), kernel->use_softmax(), kernel->has_qk_transform());
  auto& vp = handle.MutableVariantParams();
  vp.sm_scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  vp.causal = true;
  vp.extra = extras;
  vp.num_extra = num_extras;

  auto bsr = sparse::BuildBatchBsr(qo_indptr, {cache.ExportKv(seq)}, page_size,
                                   handle.config().tile_q);
  handle.Plan(&bsr, qo_indptr, {kv_len});
  handle.Run(q, cache, &o);
  std::printf("%-24s o[0..3] = %+.4f %+.4f %+.4f %+.4f\n", title, o.Row(0)[0], o.Row(0)[1],
              o.Row(0)[2], o.Row(0)[3]);
}

}  // namespace

int main() {
  if (!jit::CompilerAvailable()) {
    std::printf("host compiler unavailable; JIT demo skipped\n");
    return 0;
  }

  // --- FlashSigmoid: ~the 20 lines the paper advertises. -------------------
  jit::AttentionSpecDesc sigmoid;
  sigmoid.name = "FlashSigmoid";
  sigmoid.kv_dtype = DType::kF16;
  sigmoid.use_softmax = false;
  sigmoid.extra_params = {{"scale", 1.0f}, {"bias", 0.0f}};
  sigmoid.logits_transform_body =
      "return 1.f / (1.f + std::exp(-(logit * p.sm_scale * scale + bias)));";

  std::printf("--- generated source (first 25 lines) ---\n");
  const auto source = jit::GenerateSource(sigmoid);
  int lines = 0;
  for (size_t i = 0; i < source.size() && lines < 25; ++i) {
    std::putchar(source[i]);
    if (source[i] == '\n') ++lines;
  }
  std::printf("... (%zu bytes total)\n\n", source.size());

  auto sig_kernel = jit::CompileVariant(sigmoid);
  std::printf("compiled: %s (use_softmax=%d)\n", sig_kernel->so_path().c_str(),
              sig_kernel->use_softmax());
  const float sig_extras[2] = {1.0f, 0.0f};
  RunVariant("FlashSigmoid", sig_kernel, sig_extras, 2);

  // --- A banded-attention variant with a tunable bandwidth. ----------------
  jit::AttentionSpecDesc banded;
  banded.name = "BandedAttention";
  banded.kv_dtype = DType::kF16;
  banded.extra_params = {{"band", 16.0f}};
  banded.logits_mask_body =
      "return ctx.kv_pos <= ctx.q_pos && ctx.q_pos - ctx.kv_pos < "
      "static_cast<int64_t>(band);";
  auto band_kernel = jit::CompileVariant(banded);
  const float band_extras[1] = {16.0f};
  RunVariant("BandedAttention(16)", band_kernel, band_extras, 1);

  // Compiling the same spec again is free (in-process registry); a new
  // process would hit the on-disk .so cache instead.
  jit::CompileVariant(sigmoid);
  const auto stats = jit::GetJitCacheStats();
  std::printf("jit cache: %lld compilations, %lld memory hits, %lld disk hits\n",
              static_cast<long long>(stats.compilations),
              static_cast<long long>(stats.memory_hits),
              static_cast<long long>(stats.disk_hits));
  return 0;
}

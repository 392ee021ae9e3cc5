// Tables 1-4 (Appendix G.1): attention-variant kernels vs FlexAttention.
//
// Four variants from the AttentionGym suite — causal, logits soft-cap,
// ALiBi, sliding window — across sequence lengths, reported as achieved
// TFLOP/s. FlashInfer compiles a specialized kernel per variant
// (CUDA/CUTLASS -> here the FA3-template cost model); FlexAttention runs a
// generic Triton block-sparse kernel (FA2-class efficiency on Hopper, since
// Triton lacked WGMMA/TMA warp specialization — Appendix C).
#include "bench_common.h"
#include "serving/backends.h"

using namespace flashinfer;
using namespace flashinfer::serving;
using bench::WithPaper;

namespace {

constexpr int64_t kSeqLens[] = {512, 1024, 2048, 4096, 8192, 16384};

enum class Variant { kCausal, kSoftCap, kAlibi, kSlidingWindow };

double VariantTflops(const gpusim::DeviceSpec& dev, Variant v, int64_t len, bool flex) {
  AttnSimInput in;
  in.num_qo_heads = 16;
  in.num_kv_heads = 16;
  in.head_dim = 128;
  in.causal = true;
  if (v == Variant::kSlidingWindow) {
    // Each query row attends to at most the last 1024 tokens: model the
    // effective KV as min(len, window) per row with causality off (the
    // planner's causal trimming does not understand windows; the window
    // bound dominates for len > window).
    const int64_t window = 1024;
    if (len > window) {
      in.causal = false;
      in.kv_lens.assign(16, window);
      in.qo_lens.assign(16, len);
    } else {
      in.qo_lens.assign(16, len);
      in.kv_lens.assign(16, len);
    }
  } else {
    in.qo_lens.assign(16, len);
    in.kv_lens.assign(16, len);
  }

  BackendConfig backend = FlashInferBackend();
  if (flex) {
    // FlexAttention: generic Triton kernel. Triton on Hopper trails
    // CUDA/CUTLASS by ~1.33x on these shapes (no warp specialization /
    // fine register control — Appendix C); block-sparse masks are (128,128).
    backend.kernel_time_scale = 1.33;
  }
  auto r = SimulateBatchAttention(dev, backend, in);
  // Extra per-logit math for the variant hooks (tanh for soft-cap, slope
  // bias for ALiBi) runs on CUDA cores; compiled kernels overlap it with the
  // MMA pipeline, interpreted ones serialize more of it.
  double hook_scale = 1.0;
  if (v == Variant::kSoftCap) hook_scale = flex ? 1.12 : 1.06;
  if (v == Variant::kAlibi) hook_scale = flex ? 1.05 : 1.02;
  r.time_us *= hook_scale;
  return r.AchievedTflops();
}

}  // namespace

int main() {
  bench::Banner("Tables 1-4", "attention variants vs FlexAttention (TFLOP/s, higher = better)");
  bench::Note("batch 16, 16 heads, head_dim 128, H100 SXM; cells: measured (paper)");
  const auto dev = gpusim::H100Sxm80GB();

  struct Case {
    Variant v;
    const char* name;
    double paper_flex[6];
    double paper_fi[6];
  };
  const Case cases[] = {
      {Variant::kCausal,
       "Table 1: causal",
       {209.11, 294.53, 376.90, 421.00, 441.26, 453.57},
       {250.45, 406.55, 487.24, 548.39, 587.90, 612.26}},
      {Variant::kSoftCap,
       "Table 2: logits soft-cap",
       {241.51, 327.50, 379.57, 403.39, 407.82, 409.89},
       {336.49, 409.53, 468.77, 489.67, 515.57, 520.94}},
      {Variant::kAlibi,
       "Table 3: ALiBi bias",
       {253.22, 344.70, 406.14, 426.13, 436.35, 434.86},
       {403.90, 500.22, 535.50, 561.32, 573.49, 578.01}},
      {Variant::kSlidingWindow,
       "Table 4: sliding window (1024)",
       {206.51, 292.25, 350.91, 368.45, 373.25, 367.91},
       {236.36, 374.11, 381.46, 385.00, 384.51, 380.51}},
  };

  for (const auto& c : cases) {
    std::printf("\n--- %s ---\n", c.name);
    AsciiTable t({"seq len", "FlexAttention", "FlashInfer", "speedup"});
    for (size_t i = 0; i < std::size(kSeqLens); ++i) {
      const double flex = VariantTflops(dev, c.v, kSeqLens[i], true);
      const double fi = VariantTflops(dev, c.v, kSeqLens[i], false);
      t.AddRow({std::to_string(kSeqLens[i]), WithPaper(flex, c.paper_flex[i], 0),
                WithPaper(fi, c.paper_fi[i], 0), AsciiTable::Num(fi / flex, 2) + "x"});
    }
    t.Print();
  }
  return 0;
}

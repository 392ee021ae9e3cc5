// Figure 9 (Sec. 4.3): StreamingLLM with fused-RoPE attention.
//
// Top: end-to-end inter-token latency of Vicuna-13B StreamingLLM decoding
// with (a) FlashInfer's fused RoPE+attention kernel, (b) FlashAttention with
// a separate RoPE rewrite pass over the rolling cache, (c) the original
// reference implementation with its extra cache copies and host overheads.
// Bottom: kernel-level bandwidth utilization of the fused kernel vs the
// unfused pair, for MHA and GQA-8 at short/long sequence lengths.
#include "bench_common.h"
#include "serving/backends.h"
#include "serving/streaming_llm.h"

using namespace flashinfer;
using namespace flashinfer::serving;
using bench::WithPaper;

namespace {

struct KernelUtil {
  double fused;    // FlashInfer fused RoPE+attention.
  double unfused;  // FA attention + separate RoPE pass over Q and K cache.
};

KernelUtil DecodeRopeUtil(const gpusim::DeviceSpec& dev, int64_t kv_len, int kv_heads) {
  AttnSimInput in;
  in.qo_lens = {1};
  in.kv_lens = {kv_len};
  in.num_qo_heads = 32;
  in.num_kv_heads = kv_heads;
  in.head_dim = 128;

  KernelUtil u;
  const auto fused = SimulateBatchAttention(dev, FlashInferBackend(), in);
  u.fused = fused.BandwidthUtil(dev);

  auto fa = FlashAttentionBackend();
  auto attn = SimulateBatchAttention(dev, fa, in);
  // Unfused RoPE: rewrite every cached key with new cache positions
  // (read+write) plus rotate Q; elementwise kernels at ~45% of HBM peak.
  const double rope_bytes =
      2.0 * (static_cast<double>(kv_len) * kv_heads + 32.0) * 128.0 * 2.0;
  const double rope_us = rope_bytes / (dev.hbm_gbps * 0.45 * 1e3) + dev.kernel_launch_us;
  // Utilization counts useful attention bytes over the combined time.
  u.unfused = attn.total_hbm_bytes / ((attn.time_us + rope_us) * dev.hbm_gbps * 1e3);
  return u;
}

}  // namespace

int main() {
  bench::Banner("Figure 9", "StreamingLLM: fused RoPE vs unfused (ITL and kernel bandwidth)");
  bench::Note("Vicuna-13B, attention sinks + recent window; cells: measured (paper)");

  struct DeviceCase {
    gpusim::DeviceSpec dev;
    double paper_itl[3][3];  // [mode][recent size] for 1000/2000/4000.
    double paper_util[2][4];  // [seq 255|2000][FI-MHA, FA-MHA, FI-GQA, FA-GQA].
  };
  const DeviceCase cases[] = {
      {gpusim::H100Sxm80GB(),
       {{13.2, 13.3, 13.4}, {18.2, 19.1, 20.0}, {26.4, 26.7, 29.7}},
       {{50, 21, 12, 3}, {83, 35, 42, 19}}},
      {gpusim::A100Sxm40GB(),
       {{24.2, 24.3, 24.5}, {33.5, 33.7, 34.7}, {43.1, 42.1, 43.5}},
       {{50, 24, 18, 3}, {80, 51, 43, 22}}},
  };
  const char* mode_names[] = {"FlashInfer (fused RoPE)", "FA (unfused RoPE)",
                              "Original implementation"};
  const StreamingRopeMode modes[] = {StreamingRopeMode::kFusedFlashInfer,
                                     StreamingRopeMode::kUnfusedFlashAttention,
                                     StreamingRopeMode::kOriginalImpl};

  for (const auto& dc : cases) {
    std::printf("\n--- %s: inter-token latency (ms) ---\n", dc.dev.name);
    AsciiTable t({"implementation", "recent 1000", "recent 2000", "recent 4000"});
    for (int m = 0; m < 3; ++m) {
      std::vector<std::string> row{mode_names[m]};
      int r = 0;
      for (int recent : {1000, 2000, 4000}) {
        StreamingLlmConfig cfg;
        cfg.model = Vicuna13B();
        cfg.device = dc.dev;
        cfg.recent_window = recent;
        row.push_back(WithPaper(StreamingLlmItlMs(cfg, modes[m]), dc.paper_itl[m][r++]));
      }
      t.AddRow(row);
    }
    t.Print();

    std::printf("--- %s: decode kernel bandwidth utilization (%%) ---\n",
                dc.dev.name);
    AsciiTable k({"seq len", "FlashInfer MHA", "FA MHA", "FlashInfer GQA-8", "FA GQA-8"});
    int s = 0;
    for (int64_t len : {int64_t{255}, int64_t{2000}}) {
      const auto mha = DecodeRopeUtil(dc.dev, len, 32);
      const auto gqa = DecodeRopeUtil(dc.dev, len, 4);
      k.AddRow({std::to_string(len), bench::PctWithPaper(mha.fused, dc.paper_util[s][0]),
                bench::PctWithPaper(mha.unfused, dc.paper_util[s][1]),
                bench::PctWithPaper(gqa.fused, dc.paper_util[s][2]),
                bench::PctWithPaper(gqa.unfused, dc.paper_util[s][3])});
      ++s;
    }
    k.Print();
  }
  return 0;
}

// Figure 8: kernel performance under input dynamism.
//
// Decode bandwidth utilization (top) and causal-prefill FLOPs utilization
// (bottom) for FlashInfer vs FlashAttention across sequence-length
// distributions {constant, uniform, skewed} (batch 16, mean length 1024) on
// H100 and A100. FlashInfer = balanced scheduler + workload-matched tile
// sizes (+ head-group fusion for GQA); FlashAttention = per-request CTA
// mapping with its fixed large tile and per-qo-head scheduling.
#include "bench_common.h"
#include "serving/backends.h"
#include "serving/workload.h"
#include "util/rng.h"

using namespace flashinfer;
using namespace flashinfer::serving;
using bench::PctWithPaper;

namespace {

struct HeadCfg {
  const char* name;
  int qo_heads;
  int kv_heads;
};

// Fixed per-invocation cost a standalone kernel benchmark pays on top of the
// kernel itself (plan upload, synchronization, CUDA events). Serving paths
// amortize this across layers via the plan cache; kernel-level utilization
// numbers in the paper include it, so this bench does too.
constexpr double kHarnessOverheadUs = 18.0;

double DecodeUtil(const gpusim::DeviceSpec& dev, const BackendConfig& backend,
                  const std::vector<int64_t>& lens, const HeadCfg& heads,
                  int tile_override) {
  AttnSimInput in;
  in.qo_lens.assign(lens.size(), 1);
  in.kv_lens = lens;
  in.num_qo_heads = heads.qo_heads;
  in.num_kv_heads = heads.kv_heads;
  in.head_dim = 128;
  in.tile_q_override = tile_override;
  auto report = SimulateBatchAttention(dev, backend, in);
  report.time_us += kHarnessOverheadUs;
  return report.BandwidthUtil(dev);
}

double PrefillUtil(const gpusim::DeviceSpec& dev, const BackendConfig& backend,
                   const std::vector<int64_t>& lens, bool dense) {
  AttnSimInput in;
  in.qo_lens = lens;  // Self-attention over the prompt, causal.
  in.kv_lens = lens;
  in.num_qo_heads = 32;
  in.num_kv_heads = 32;
  in.head_dim = 128;
  in.causal = true;
  in.force_dense = dense;
  const auto report = SimulateBatchAttention(dev, backend, in);
  return report.FlopsUtil(dev);
}

// Paper values (Fig. 8), for side-by-side printing.
struct PaperRow {
  double constant, uniform, skewed;
};

}  // namespace

int main() {
  bench::Banner("Figure 8", "decode bandwidth & prefill FLOPs utilization vs FlashAttention");
  bench::Note("batch 16, mean length 1024, head_dim 128; cells: measured% (paper%)");

  const HeadCfg head_cfgs[] = {{"MHA", 32, 32}, {"GQA-4", 32, 8}, {"GQA-8", 32, 4}};
  auto fi = FlashInferBackend();
  // FlashAttention decode = FlashDecoding: fixed split count, oversized row
  // tile (occupancy-limited), no head-group fusion.
  auto fa = FlashAttentionBackend();
  fa.scheduler = SchedulerKind::kFixedSplit;

  struct DeviceCase {
    gpusim::DeviceSpec dev;
    // Paper decode rows: {FI, FA} x {MHA, GQA-4, GQA-8}.
    PaperRow decode[2][3];
    PaperRow prefill[2];  // {FI, FA} MHA.
  };
  const DeviceCase cases[] = {
      {gpusim::H100Sxm80GB(),
       {{{73, 65, 73}, {43, 43, 52}, {32, 29, 39}},
        {{70, 58, 53}, {43, 36, 35}, {32, 28, 29}}},
       {{40, 39, 48}, {37, 34, 44}}},
      {gpusim::A100Sxm40GB(),
       {{{73, 71, 70}, {44, 44, 54}, {33, 32, 42}},
        {{66, 62, 59}, {44, 41, 46}, {34, 28, 28}}},
       {{48, 49, 59}, {50, 47, 58}}},
  };

  for (const auto& dc : cases) {
    std::printf("\n--- %s: decode bandwidth utilization (%%) ---\n", dc.dev.name);
    AsciiTable t({"config", "backend", "constant", "uniform", "skewed"});
    for (int h = 0; h < 3; ++h) {
      for (int b = 0; b < 2; ++b) {
        const auto& backend = b == 0 ? fi : fa;
        // FlashAttention's decode path runs an oversized 64-row tile;
        // FlashInfer picks the tile from the fused query length.
        const int tile_override = b == 0 ? 0 : 64;
        const PaperRow& paper = dc.decode[b][h];
        double util[3];
        int d = 0;
        for (auto dist : {LengthDist::kConstant, LengthDist::kUniform, LengthDist::kSkewed}) {
          Rng rng(2024 + d);
          const auto lens = SampleLengths(rng, dist, 16, 1024);
          util[d++] = DecodeUtil(dc.dev, backend, lens, head_cfgs[h], tile_override);
        }
        t.AddRow({head_cfgs[h].name, backend.name, PctWithPaper(util[0], paper.constant),
                  PctWithPaper(util[1], paper.uniform), PctWithPaper(util[2], paper.skewed)});
      }
    }
    t.Print();

    std::printf("--- %s: causal prefill FLOPs utilization (%%), MHA ---\n",
                dc.dev.name);
    AsciiTable p({"backend", "constant", "uniform", "skewed"});
    // FA prefill never splits KV (splitting 128-row prefill tiles would
    // explode partial-output traffic): plain per-(tile, head) grid.
    const auto fa_prefill = FlashAttentionBackend();
    for (int b = 0; b < 2; ++b) {
      const auto& backend = b == 0 ? fi : fa_prefill;
      const PaperRow& paper = dc.prefill[b];
      double util[3];
      int d = 0;
      for (auto dist : {LengthDist::kConstant, LengthDist::kUniform, LengthDist::kSkewed}) {
        Rng rng(4048 + d);
        const auto lens = SampleLengths(rng, dist, 16, 1024);
        // FlashAttention's varlen prefill uses contiguous (dense) KV.
        util[d++] = PrefillUtil(dc.dev, backend, lens, /*dense=*/b == 1);
      }
      p.AddRow({backend.name, PctWithPaper(util[0], paper.constant),
                PctWithPaper(util[1], paper.uniform), PctWithPaper(util[2], paper.skewed)});
    }
    p.Print();
  }
  return 0;
}

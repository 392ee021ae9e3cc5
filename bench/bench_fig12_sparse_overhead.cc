// Figure 12 (Appendix B): overhead of sparse gathering.
//
// Top: causal prefill achieved TFLOP/s on the FA2 and FA3 templates with
// vector-sparse (page size 1) vs dense (contiguous) KV. Bottom: decode
// bandwidth utilization for both paths. Sparse gathering cannot use TMA on
// Hopper (non-affine addresses) and pays register pressure, giving ~10% on
// FA3 prefill and a negligible decode gap — the calibration targets of the
// kernel efficiency model.
#include "bench_common.h"
#include "serving/backends.h"

using namespace flashinfer;
using namespace flashinfer::serving;
using bench::WithPaper;

namespace {

struct Shape {
  int batch;
  int64_t len;
};
constexpr Shape kShapes[] = {{32, 1024}, {16, 2048}, {8, 4096},
                             {4, 8192},  {2, 16384}, {1, 32768}};

/// "(batch, seqlen)" row label.
std::string ShapeLabel(const Shape& s) {
  std::string out = "(";
  out += std::to_string(s.batch);
  out += ", ";
  out += std::to_string(s.len);
  out += ")";
  return out;
}

double PrefillTflops(const gpusim::DeviceSpec& dev, const Shape& s, int tmpl, bool dense) {
  AttnSimInput in;
  in.qo_lens.assign(static_cast<size_t>(s.batch), s.len);
  in.kv_lens = in.qo_lens;
  in.num_qo_heads = 32;
  in.num_kv_heads = 32;
  in.head_dim = 128;
  in.causal = true;
  in.force_template = tmpl;
  in.force_dense = dense;
  const auto r = SimulateBatchAttention(dev, FlashInferBackend(), in);
  return r.AchievedTflops();
}

double DecodeBwUtil(const gpusim::DeviceSpec& dev, const Shape& s, bool dense) {
  AttnSimInput in;
  in.qo_lens.assign(static_cast<size_t>(s.batch), 1);
  in.kv_lens.assign(static_cast<size_t>(s.batch), s.len);
  in.num_qo_heads = 32;
  in.num_kv_heads = 32;
  in.head_dim = 128;
  in.force_dense = dense;
  const auto r = SimulateBatchAttention(dev, FlashInferBackend(), in);
  return r.BandwidthUtil(dev);
}

}  // namespace

int main() {
  bench::Banner("Figure 12", "sparse-gather overhead: prefill TFLOP/s and decode bandwidth");
  bench::Note("32 qo/kv heads, head_dim 128, H100 SXM; cells: measured (paper)");
  const auto dev = gpusim::H100Sxm80GB();

  // Paper values, FA2 template: {sparse, dense} per shape.
  const double paper_fa2[6][2] = {{265, 277}, {301, 318}, {324, 342},
                                  {337, 358}, {344, 366}, {347, 370}};
  const double paper_fa3[6][2] = {{343, 406}, {418, 491}, {469, 549},
                                  {502, 587}, {523, 613}, {532, 627}};
  const double paper_decode[6][2] = {{84, 85}, {85, 84}, {83, 85},
                                     {83, 84}, {83, 84}, {83, 84}};

  for (int tmpl : {2, 3}) {
    std::printf("\n--- (causal) prefill, FA%d template: achieved TFLOP/s ---\n", tmpl);
    AsciiTable t({"(batch, seqlen)", "vector-sparse", "dense", "dense/sparse"});
    for (size_t i = 0; i < std::size(kShapes); ++i) {
      const auto& s = kShapes[i];
      const double sp = PrefillTflops(dev, s, tmpl, false);
      const double de = PrefillTflops(dev, s, tmpl, true);
      const auto& paper = tmpl == 2 ? paper_fa2[i] : paper_fa3[i];
      t.AddRow({ShapeLabel(s), WithPaper(sp, paper[0], 0), WithPaper(de, paper[1], 0),
                AsciiTable::Num(de / sp, 2) + "x"});
    }
    t.Print();
  }

  std::printf("\n--- decode: bandwidth utilization (%%) ---\n");
  AsciiTable t({"(batch, seqlen)", "vector-sparse", "dense"});
  for (size_t i = 0; i < std::size(kShapes); ++i) {
    const auto& s = kShapes[i];
    t.AddRow({ShapeLabel(s), bench::PctWithPaper(DecodeBwUtil(dev, s, false), paper_decode[i][0]),
              bench::PctWithPaper(DecodeBwUtil(dev, s, true), paper_decode[i][1])});
  }
  t.Print();
  return 0;
}

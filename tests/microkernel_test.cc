#include <gtest/gtest.h>

#include "core/contraction.h"
#include "core/microkernel.h"
#include "test_util.h"

namespace flashinfer {
namespace {

using test::MakeProblem;
using test::MaxAbsDiff;
using test::ProblemSpec;
using test::RunSerial;

// ------------------------------------------------------------------ sweeps
struct SweepParam {
  int tile_q;
  int page_size;
  DType dtype;
  int qo_heads;
  int kv_heads;
  bool fusion;
  bool causal;
};

class KernelVsReference : public ::testing::TestWithParam<SweepParam> {};

TEST_P(KernelVsReference, MatchesDoublePrecisionReference) {
  const auto sp = GetParam();
  ProblemSpec spec;
  spec.qo_lens = {3, 1, 7, 1};
  spec.kv_lens = {19, 6, 33, 1};
  spec.num_qo_heads = sp.qo_heads;
  spec.num_kv_heads = sp.kv_heads;
  spec.head_dim = 16;
  spec.page_size = sp.page_size;
  spec.kv_dtype = sp.dtype;
  spec.tile_q = sp.tile_q;
  spec.head_fusion = sp.fusion;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = sp.causal;

  KernelConfig cfg;
  cfg.tile_q = sp.tile_q;
  cfg.tile_kv = 8;
  cfg.head_fusion = sp.fusion;
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, sp.dtype));

  auto ref_o = RaggedTensor::Zeros(prob.qo_indptr, prob.q.inner);
  std::vector<float> ref_lse(prob.lse.size(), 0.0f);
  ReferenceAttention<VanillaVariant>(p, &ref_o, &ref_lse);

  EXPECT_LT(MaxAbsDiff(prob.o.data, ref_o.data), 2e-3f);
  EXPECT_LT(MaxAbsDiff(prob.lse, ref_lse), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    TileAndFormat, KernelVsReference,
    ::testing::Values(
        SweepParam{1, 1, DType::kF32, 4, 4, true, true},
        SweepParam{1, 4, DType::kF32, 4, 2, true, true},
        SweepParam{16, 4, DType::kF32, 4, 2, true, true},
        SweepParam{16, 16, DType::kF32, 4, 1, true, false},
        SweepParam{128, 2, DType::kF32, 2, 2, true, true},
        SweepParam{16, 4, DType::kF16, 4, 2, true, true},
        SweepParam{16, 4, DType::kBF16, 4, 2, true, true},
        SweepParam{16, 4, DType::kFP8_E4M3, 4, 2, true, true},
        SweepParam{16, 4, DType::kFP8_E5M2, 4, 2, true, false},
        SweepParam{16, 4, DType::kF32, 8, 2, false, true},   // Fusion off.
        SweepParam{1, 1, DType::kF16, 8, 1, false, false}),  // MQA, no fusion.
    [](const auto& info) {
      const auto& s = info.param;
      return "tq" + std::to_string(s.tile_q) + "_pg" + std::to_string(s.page_size) + "_" +
             std::string(DTypeName(s.dtype)) + "_h" + std::to_string(s.qo_heads) + "x" +
             std::to_string(s.kv_heads) + (s.fusion ? "_fused" : "_unfused") +
             (s.causal ? "_causal" : "_full");
    });

// ------------------------------------------------------- kv tile invariance
class KvTileSweep : public ::testing::TestWithParam<int> {};

TEST_P(KvTileSweep, ResultIndependentOfKvTileSize) {
  ProblemSpec spec;
  spec.qo_lens = {5};
  spec.kv_lens = {41};
  spec.page_size = 4;
  spec.tile_q = 4;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;

  KernelConfig cfg;
  cfg.tile_q = 4;
  cfg.tile_kv = GetParam();
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF32));
  const auto baseline = prob.o.data;

  cfg.tile_kv = 64;
  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF32));
  EXPECT_LT(MaxAbsDiff(prob.o.data, baseline), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Tiles, KvTileSweep, ::testing::Values(1, 3, 8, 32, 128));

// ----------------------------------------------------------- split + merge
// Splits every work unit's KV range into `parts` chunks, runs each chunk into
// the partial sink and merges them with the contraction kernel into p.o/p.lse.
void RunSplitAndContract(AttentionParams& p, const KernelConfig& cfg, WorkItemFn fn,
                         int64_t parts) {
  const auto units = EnumerateWorkUnits(p);
  std::vector<float> partial_o(1 << 18, 0.0f);
  std::vector<float> partial_lse(1 << 12, 0.0f);
  PartialSink sink{partial_o.data(), partial_lse.data()};
  ReductionMap rmap;
  int32_t next = 0;
  for (const auto& u : units) {
    const int64_t step = (u.kv_len + parts - 1) / parts;
    std::vector<int32_t> bases;
    for (int64_t lo = 0; lo < u.kv_len; lo += step) {
      const int64_t hi = std::min(u.kv_len, lo + step);
      WorkItem item{u.block_row, u.request, u.kv_head, u.qo_head, lo, hi, next};
      fn(p, cfg, item, sink);
      bases.push_back(next);
      next += u.rows;
    }
    FI_CHECK_LE(static_cast<size_t>(next) * p.head_dim, partial_o.size());
    // Reduction map rows mirror the scheduler's mapping.
    const auto& bsr = *p.bsr;
    const int g = p.GroupSize();
    const int64_t row0 = bsr.row_start[static_cast<size_t>(u.block_row)];
    for (int i = 0; i < u.rows; ++i) {
      const int64_t local = row0 + i - p.FusedBegin(u.request);
      ReductionMap::Task task;
      task.token_row =
          p.qo_indptr[static_cast<size_t>(u.request)] + (p.head_fusion ? local / g : local);
      task.qo_head = p.head_fusion ? u.kv_head * g + static_cast<int>(local % g) : u.qo_head;
      task.begin = static_cast<int32_t>(rmap.slots.size());
      task.count = static_cast<int32_t>(bases.size());
      for (int32_t b : bases) rmap.slots.push_back(b + i);
      rmap.tasks.push_back(task);
    }
  }
  RunContraction(p, rmap, sink, /*use_softmax=*/true);
}

TEST(SplitKv, PartialChunksMergeToWritethroughResult) {
  ProblemSpec spec;
  spec.qo_lens = {2, 1};
  spec.kv_lens = {37, 23};
  spec.num_qo_heads = 4;
  spec.num_kv_heads = 2;
  spec.page_size = 4;
  spec.tile_q = 4;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 4;
  cfg.tile_kv = 8;
  auto fn = GetBuiltinKernel(VariantKind::kVanilla, DType::kF32);

  // Baseline: writethrough.
  RunSerial(p, cfg, fn);
  const auto baseline = prob.o.data;
  const auto baseline_lse = prob.lse;

  // Split every unit into 3 chunks, run through partial sink + contraction.
  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  std::fill(prob.lse.begin(), prob.lse.end(), 0.0f);
  RunSplitAndContract(p, cfg, fn, 3);

  EXPECT_LT(MaxAbsDiff(prob.o.data, baseline), 1e-4f);
  EXPECT_LT(MaxAbsDiff(prob.lse, baseline_lse), 1e-4f);
}

TEST(SplitKv, F16GqaPartialsComposeToUnsplitResult) {
  // Split points (every 37 / 4 -> 10 tokens) fall inside KV tiles and pages.
  ProblemSpec spec;
  spec.qo_lens = {1, 5, 1};
  spec.kv_lens = {37, 61, 9};
  spec.num_qo_heads = 8;
  spec.num_kv_heads = 2;
  spec.head_dim = 72;
  spec.page_size = 16;
  spec.kv_dtype = DType::kF16;
  spec.tile_q = 16;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 16;
  cfg.tile_kv = 8;
  auto fn = GetBuiltinKernel(VariantKind::kVanilla, DType::kF16);

  RunSerial(p, cfg, fn);
  const auto baseline = prob.o.data;
  const auto baseline_lse = prob.lse;
  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  std::fill(prob.lse.begin(), prob.lse.end(), 0.0f);
  RunSplitAndContract(p, cfg, fn, 4);

  EXPECT_LT(MaxAbsDiff(prob.o.data, baseline), 1e-5f);
  EXPECT_LT(MaxAbsDiff(prob.lse, baseline_lse), 1e-5f);
}

// ------------------------------------------------------ FA2 tile edge cases
using test::RefErr;

/// Runs builtin `kind` serially and returns its max error against the
/// double-precision reference.
RefErr ErrorVsReference(test::Problem& prob, AttentionParams& p, VariantKind kind,
                        const KernelConfig& cfg) {
  return test::ErrorVsReference(prob, p, kind, cfg, GetBuiltinKernel(kind, prob.spec.kv_dtype));
}

class HeadDimSweep : public ::testing::TestWithParam<DType> {};

TEST_P(HeadDimSweep, HeadDimNotAMultipleOfTheVectorWidth) {
  ProblemSpec spec;
  spec.qo_lens = {3, 1, 7};
  spec.kv_lens = {19, 6, 33};
  spec.head_dim = 72;
  spec.kv_dtype = GetParam();
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 16;
  cfg.tile_kv = 8;
  const auto err = ErrorVsReference(prob, p, VariantKind::kVanilla, cfg);
  EXPECT_LT(err.o, 2e-3f);
  EXPECT_LT(err.lse, 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(Dtypes, HeadDimSweep,
                         ::testing::Values(DType::kF32, DType::kF16, DType::kFP8_E4M3),
                         [](const auto& info) { return std::string(DTypeName(info.param)); });

TEST(KernelEdge, FinalTileShorterThanTileKv) {
  // 45 = 2 x 16 + 13 and 17 = 16 + 1: each chunk ends in a short tile.
  ProblemSpec spec;
  spec.qo_lens = {1, 4};
  spec.kv_lens = {45, 17};
  spec.kv_dtype = DType::kF16;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 16;
  cfg.tile_kv = 16;
  const auto err = ErrorVsReference(prob, p, VariantKind::kVanilla, cfg);
  EXPECT_LT(err.o, 2e-3f);
  EXPECT_LT(err.lse, 2e-3f);
}

TEST(KernelEdge, SlidingWindowWithSinksMasksWholeTilesMidChunk) {
  // The decode row at position 79 sees sinks 0..3 and window 71..79: KV
  // tiles 1..7 of 8 tokens are fully masked between two visible ones.
  ProblemSpec spec;
  spec.qo_lens = {1, 3};
  spec.kv_lens = {80, 70};
  spec.kv_dtype = DType::kF16;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  p.variant.window_left = 8;
  p.variant.num_sink_tokens = 4;
  KernelConfig cfg;
  cfg.tile_q = 16;
  cfg.tile_kv = 8;
  const auto err = ErrorVsReference(prob, p, VariantKind::kStreamingLlm, cfg);
  EXPECT_LT(err.o, 2e-3f);
  EXPECT_LT(err.lse, 2e-3f);
}

TEST(KernelEdge, SigmoidWithMaskedTileMatchesReference) {
  // No softmax: masked tiles must add nothing to the plain weighted sum.
  ProblemSpec spec;
  spec.qo_lens = {1, 2};
  spec.kv_lens = {40, 33};
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  p.variant.window_left = 6;
  p.variant.num_sink_tokens = 2;
  p.variant.sigmoid_scale = 1.5f;
  p.variant.sigmoid_bias = -0.5f;
  KernelConfig cfg;
  cfg.tile_q = 16;
  cfg.tile_kv = 8;
  const auto err = ErrorVsReference(prob, p, VariantKind::kSigmoid, cfg);
  EXPECT_LT(err.o, 2e-3f);
  EXPECT_LT(err.lse, 2e-3f);
}

TEST(KernelEdge, RowMaskedAcrossWholeItemEmitsZeroAndNegInfLse) {
  // A 4-token causal prefill at positions 16..19, run over KV [18, 20) only:
  // the rows at positions 16 and 17 see no token of the item.
  ProblemSpec spec;
  spec.qo_lens = {4};
  spec.kv_lens = {20};
  spec.num_qo_heads = 4;
  spec.num_kv_heads = 2;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 16;
  cfg.tile_kv = 8;
  auto fn = GetBuiltinKernel(VariantKind::kVanilla, DType::kF32);
  const int g = p.GroupSize();
  const int d = spec.head_dim;
  const auto u = EnumerateWorkUnits(p).front();
  ASSERT_EQ(u.rows, 4 * g);
  const auto masked = [&](int row) { return 16 + row / g < 18; };

  // Partial (split-KV) output.
  std::vector<float> partial_o(static_cast<size_t>(u.rows) * d, 42.0f);
  std::vector<float> partial_lse(static_cast<size_t>(u.rows), 42.0f);
  PartialSink sink{partial_o.data(), partial_lse.data()};
  fn(p, cfg, WorkItem{u.block_row, u.request, u.kv_head, u.qo_head, 18, 20, 0}, sink);
  for (int i = 0; i < u.rows; ++i) {
    const float* o = partial_o.data() + static_cast<size_t>(i) * d;
    if (masked(i)) {
      for (int dd = 0; dd < d; ++dd) EXPECT_EQ(o[dd], 0.0f) << "row " << i;
      EXPECT_EQ(partial_lse[static_cast<size_t>(i)], -std::numeric_limits<float>::infinity());
    } else {
      EXPECT_TRUE(std::isfinite(partial_lse[static_cast<size_t>(i)])) << "row " << i;
    }
  }

  // Writethrough output of the same item.
  std::fill(prob.o.data.begin(), prob.o.data.end(), 42.0f);
  fn(p, cfg, WorkItem{u.block_row, u.request, u.kv_head, u.qo_head, 18, 20, -1}, PartialSink{});
  for (int i = 0; i < u.rows; ++i) {
    const int token = i / g;
    const int qo_head = u.kv_head * g + i % g;
    const float* o = prob.o.Row(token).data() + static_cast<int64_t>(qo_head) * d;
    const float lse = prob.lse[static_cast<size_t>(token) * spec.num_qo_heads + qo_head];
    if (masked(i)) {
      for (int dd = 0; dd < d; ++dd) EXPECT_EQ(o[dd], 0.0f) << "row " << i;
      EXPECT_EQ(lse, -std::numeric_limits<float>::infinity());
    } else {
      EXPECT_TRUE(std::isfinite(lse)) << "row " << i;
    }
  }
}

// ------------------------------------------------------ blocked tile step
// The tile step runs Q·Kᵀ in blocks of kRowBlock rows x kTokBlock tokens and
// P·V in blocks of kRowBlock rows x kDimBlock head dims, over scratch tiles
// zero-padded to those sizes. Each sweep drives one kind of remainder.

void ExpectBuiltinMatchesReference(const test::TileCase& c) {
  SCOPED_TRACE(c.Describe());
  const auto err = test::TileCaseError(c, GetBuiltinKernel(c.kind, c.dtype));
  EXPECT_LT(err.o, 2e-3f);
  EXPECT_LT(err.lse, 2e-3f);
}

TEST(TileStep, RowCountsOneToNine) {
  for (int64_t rows = 1; rows <= 9; ++rows) {
    ExpectBuiltinMatchesReference({.qo_len = rows, .kv_len = rows + 37, .tile_kv = 16});
  }
  // GQA-fused rows: 4 heads per KV head, so 4, 12 and 20 rows.
  for (int64_t qo : {1, 3, 5}) {
    ExpectBuiltinMatchesReference(
        {.qo_len = qo, .kv_len = 50, .num_qo_heads = 8, .num_kv_heads = 2});
  }
}

TEST(TileStep, TileFillsNotAMultipleOfTheTokenBlock) {
  // 45 tokens leave a short last tile at every tile size here.
  for (int tile_kv : {1, 2, 3, 5, 6, 7, 9, 13, 32}) {
    ExpectBuiltinMatchesReference({.qo_len = 3, .kv_len = 45, .tile_kv = tile_kv});
  }
}

TEST(TileStep, HeadDims) {
  // 64, 128 and 256 are multiples of every ISA's kDimBlock; 72 and 80 are
  // padded (80 only where kDimBlock exceeds 16).
  for (int d : {64, 128, 256, 72, 80}) {
    for (DType dt : {DType::kF32, DType::kF16}) {
      ExpectBuiltinMatchesReference(
          {.qo_len = 5, .kv_len = 70, .head_dim = d, .tile_kv = 16, .dtype = dt});
    }
  }
}

TEST(TileStep, MasksInsideOneRegisterBlock) {
  // A 9-row causal prefill ends 6 tokens past a 4-token block boundary, so
  // the diagonal cuts through blocks; windows of 2 and 5 and a single sink
  // leave a few visible tokens inside an otherwise masked block.
  ExpectBuiltinMatchesReference({.qo_len = 9, .kv_len = 22, .tile_kv = 8});
  for (int64_t window : {2, 5}) {
    ExpectBuiltinMatchesReference({.qo_len = 6,
                                   .kv_len = 31,
                                   .tile_kv = 8,
                                   .kind = VariantKind::kSlidingWindow,
                                   .window_left = window});
    ExpectBuiltinMatchesReference({.qo_len = 6,
                                   .kv_len = 31,
                                   .tile_kv = 8,
                                   .kind = VariantKind::kStreamingLlm,
                                   .window_left = window,
                                   .num_sink_tokens = 1});
  }
}

TEST(TileStep, VariantHooks) {
  for (VariantKind kind : {VariantKind::kSigmoid, VariantKind::kFusedRope, VariantKind::kSoftCap,
                           VariantKind::kAlibi}) {
    ExpectBuiltinMatchesReference({.qo_len = 7, .kv_len = 29, .tile_kv = 8, .kind = kind});
    ExpectBuiltinMatchesReference(
        {.qo_len = 2, .kv_len = 29, .tile_kv = 8, .kind = kind, .window_left = 5});
  }
}

TEST(TileStep, KvDtypes) {
  for (DType dt : {DType::kF32, DType::kF16, DType::kBF16, DType::kFP8_E4M3, DType::kFP8_E5M2}) {
    ExpectBuiltinMatchesReference({.qo_len = 5, .kv_len = 45, .tile_kv = 16, .dtype = dt});
  }
}

// ------------------------------------------------------------- empty ranges
TEST(Kernel, EmptyKvProducesZeros) {
  ProblemSpec spec;
  spec.qo_lens = {1};
  spec.kv_lens = {5};
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 16;
  auto fn = GetBuiltinKernel(VariantKind::kVanilla, DType::kF32);
  PartialSink sink;
  // Zero-width chunk: output must be written (zeros), not left stale.
  std::fill(prob.o.data.begin(), prob.o.data.end(), 42.0f);
  WorkItem item{0, 0, 0, -1, 0, 0, -1};
  fn(p, cfg, item, sink);
  for (float x : prob.o.Row(0)) {
    if (&x - prob.o.Row(0).data() < spec.head_dim) {
      EXPECT_EQ(x, 0.0f);
    }
  }
}

}  // namespace
}  // namespace flashinfer

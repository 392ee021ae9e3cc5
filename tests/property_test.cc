// Parameterized property sweeps across the scheduler and mixed-precision
// kernels: coverage/balance invariants for arbitrary CTA counts and cost
// hyperparameters, and Appendix-F quality bounds for fp8 KV-caches.
#include <gtest/gtest.h>

#include <map>

#include "core/reference.h"
#include "runtime/scheduler.h"
#include "test_util.h"

namespace flashinfer {
namespace {

using test::MakeProblem;
using test::MaxAbsDiff;
using test::ProblemSpec;
using test::RunSerial;

// ------------------------------------------------- scheduler property sweep
struct SchedParam {
  int num_ctas;
  double alpha;
  double beta;
  uint64_t seed;
};

class BalancedPlanSweep : public ::testing::TestWithParam<SchedParam> {};

TEST_P(BalancedPlanSweep, CoverageAndBoundsHoldForAnyConfiguration) {
  const auto sp = GetParam();
  Rng rng(sp.seed);
  ProblemSpec spec;
  const int n = static_cast<int>(rng.UniformInt(1, 12));
  for (int i = 0; i < n; ++i) {
    spec.qo_lens.push_back(rng.UniformInt(1, 6));
    spec.kv_lens.push_back(spec.qo_lens.back() + rng.UniformInt(0, 500));
  }
  spec.num_qo_heads = 4;
  spec.num_kv_heads = 2;
  spec.tile_q = 2;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 2;
  cfg.tile_kv = 16;
  const auto plan =
      MakeBalancedPlan(p, cfg, sp.num_ctas, int64_t{1} << 40, sp.alpha, sp.beta);

  // 1. Exactly-once coverage of every (unit, kv token).
  std::map<std::tuple<int, int, int>, int64_t> covered;
  for (int c = 0; c < plan.NumCtas(); ++c) {
    for (const auto& item : plan.Queue(c)) {
      covered[{item.block_row, item.kv_head, item.qo_head}] += item.kv_end - item.kv_begin;
    }
  }
  const auto units = EnumerateWorkUnits(p);
  ASSERT_EQ(covered.size(), units.size());
  for (const auto& u : units) {
    EXPECT_EQ(covered.at({u.block_row, u.kv_head, u.qo_head}), u.kv_len);
  }

  // 2. Chunk cap respected; partial rows within the Appendix D.3 bound.
  for (int c = 0; c < plan.NumCtas(); ++c) {
    for (const auto& item : plan.Queue(c)) {
      EXPECT_LE(item.kv_end - item.kv_begin, plan.lkv_chunk);
    }
  }
  EXPECT_LE(plan.num_partial_rows, 2LL * sp.num_ctas * cfg.tile_q);

  // 3. LPT balance: max CTA cost within one chunk of the average.
  double total = 0.0;
  for (int c = 0; c < plan.NumCtas(); ++c) {
    for (const auto& item : plan.Queue(c)) {
      total += sp.alpha * cfg.tile_q + sp.beta * static_cast<double>(item.kv_end - item.kv_begin);
    }
  }
  const double avg = total / sp.num_ctas;
  const double chunk_cost = sp.alpha * cfg.tile_q + sp.beta * static_cast<double>(plan.lkv_chunk);
  EXPECT_LE(plan.MaxCtaCost(cfg.tile_q), avg + chunk_cost + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, BalancedPlanSweep,
    ::testing::Values(SchedParam{1, 1.0, 1.0, 1}, SchedParam{2, 1.0, 1.0, 2},
                      SchedParam{7, 1.0, 1.0, 3}, SchedParam{132, 1.0, 1.0, 4},
                      SchedParam{132, 0.0, 1.0, 5}, SchedParam{132, 8.0, 1.0, 6},
                      SchedParam{132, 1.0, 0.25, 7}, SchedParam{396, 1.0, 1.0, 8},
                      SchedParam{396, 2.0, 0.5, 9}, SchedParam{1024, 1.0, 1.0, 10}));

// ----------------------------------------------- fp8 quality (Appendix F)
class Fp8QualitySweep : public ::testing::TestWithParam<DType> {};

TEST_P(Fp8QualitySweep, MixedPrecisionStaysCloseToF32GroundTruth) {
  // Build identical problems in fp32 and the quantized dtype (same seed,
  // same float inputs); attention outputs over the quantized cache must
  // stay within the quantization-noise bound of the exact outputs.
  ProblemSpec exact_spec;
  exact_spec.qo_lens = {2, 1};
  exact_spec.kv_lens = {64, 30};
  exact_spec.num_qo_heads = 4;
  exact_spec.num_kv_heads = 2;
  exact_spec.head_dim = 32;
  exact_spec.page_size = 8;
  exact_spec.tile_q = 4;
  exact_spec.kv_dtype = DType::kF32;
  auto exact = MakeProblem(exact_spec);
  auto pe = exact.Params();
  pe.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 4;
  RunSerial(pe, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF32));

  auto quant_spec = exact_spec;
  quant_spec.kv_dtype = GetParam();
  auto quant = MakeProblem(quant_spec);
  auto pq = quant.Params();
  pq.variant.causal = true;
  RunSerial(pq, cfg, GetBuiltinKernel(VariantKind::kVanilla, GetParam()));

  // Softmax-weighted averages of ~N(0,1) values: quantization noise of the
  // KV entries is averaged down; bound by a few quantization steps.
  double tol = 0.0;
  switch (GetParam()) {
    case DType::kF16:
      tol = 5e-3;
      break;
    case DType::kBF16:
      tol = 4e-2;
      break;
    default:
      tol = 0.35;  // fp8: ~6% relative steps on N(0,1) data.
  }
  EXPECT_LT(MaxAbsDiff(exact.o.data, quant.o.data), tol);
  // And the quantized run must still match ITS OWN reference exactly
  // (quantization error lives in the data, not the kernel).
  auto ref = RaggedTensor::Zeros(quant.qo_indptr, quant.q.inner);
  ReferenceAttention<VanillaVariant>(pq, &ref);
  EXPECT_LT(MaxAbsDiff(quant.o.data, ref.data), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(Dtypes, Fp8QualitySweep,
                         ::testing::Values(DType::kF16, DType::kBF16, DType::kFP8_E4M3,
                                           DType::kFP8_E5M2),
                         [](const auto& info) {
                           return std::string(DTypeName(info.param));
                         });

// ------------------------------------------ GQA group-size kernel sweep
class GroupSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(GroupSizeSweep, FusionInvariantToGroupSize) {
  const int g = GetParam();
  ProblemSpec spec;
  spec.qo_lens = {3};
  spec.kv_lens = {40};
  spec.num_qo_heads = 8;
  spec.num_kv_heads = 8 / g;
  spec.head_dim = 16;
  spec.tile_q = 4;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 4;
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF32));
  auto ref = RaggedTensor::Zeros(prob.qo_indptr, prob.q.inner);
  ReferenceAttention<VanillaVariant>(p, &ref);
  EXPECT_LT(MaxAbsDiff(prob.o.data, ref.data), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Groups, GroupSizeSweep, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace flashinfer

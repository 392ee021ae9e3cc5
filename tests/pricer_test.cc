// Differential test for the single attention pricer.
//
// `PricePlan` prices a plan without executing it, and `BatchAttentionHandle::Run`
// returns exactly that price after the math runs. The reference below is the
// charge the executing kernels used to make from inside every work item and
// merge task: the attention kernel counted the KV tokens it actually staged
// by walking the BSR, the contraction kernel charged each merge row on the
// CTA that ran it, and the launch folded per-CTA costs into a report. The one
// deliberate difference from the kernel-side charge is the merge rows' rate
// share: the executing contraction divided device rates over its grid
// (min(tasks, #SM)), the pricer divides them over #SM, like attention
// launches whose slots are #SM x resident whatever the grid size.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/kernel_dispatch.h"
#include "core/tile_heuristics.h"
#include "gpusim/executor.h"
#include "runtime/batch_handle.h"
#include "test_util.h"

namespace flashinfer {
namespace {

using test::MakeProblem;
using test::ProblemSpec;

/// KV tokens the attention kernel stages for `item`: its chunk clipped to
/// the row's valid KV, walked block by block as the kernel's gather loop does.
int64_t StagedTokens(const sparse::BsrMatrix& bsr, const WorkItem& item) {
  int64_t cursor = 0, tokens = 0;
  const int64_t e_end = bsr.indptr[static_cast<size_t>(item.block_row) + 1];
  for (int64_t e = bsr.indptr[static_cast<size_t>(item.block_row)];
       e < e_end && cursor < item.kv_end; ++e) {
    const int64_t lo = cursor;
    cursor += bsr.block_valid[static_cast<size_t>(e)];
    tokens += std::max<int64_t>(0, std::min(cursor, item.kv_end) - std::max(lo, item.kv_begin));
  }
  return tokens;
}

/// The kernel-side charge of one launch (attention + contraction), kept as
/// the reference the single pricer must reproduce bit for bit.
gpusim::SimReport KernelChargeReference(const gpusim::DeviceSpec& dev, const AttentionParams& p,
                                        const KernelConfig& cfg, const Plan& plan,
                                        DType kv_dtype, bool has_qk_transform,
                                        double kv_l2_fraction) {
  const int kvb = DTypeBytes(kv_dtype);
  auto eff = EfficiencyModel(dev, cfg, p.head_dim, kvb);
  const auto occ = OccupancyModel(dev, cfg, p.head_dim, kvb);
  const auto shape = ResidencyModel(dev, occ, plan.NumCtas());
  eff.mem *= shape.mem_scale;

  gpusim::SimReport report;
  report.num_ctas = plan.NumCtas();
  std::vector<gpusim::CtaCost> ctas(static_cast<size_t>(plan.NumCtas()));
  for (int cta = 0; cta < plan.NumCtas(); ++cta) {
    for (const auto& item : plan.Queue(cta)) {
      const int64_t tokens = StagedTokens(*p.bsr, item);
      gpusim::WorkCost wc = AttentionWorkItemCost(p.bsr->RowsInBlock(item.block_row), tokens,
                                                  p.head_dim, kvb, has_qk_transform,
                                                  item.dest >= 0);
      if (kv_l2_fraction > 0.0) {
        const double to_l2 =
            static_cast<double>(tokens) * 2.0 * p.head_dim * kvb * kv_l2_fraction;
        wc.hbm_bytes -= to_l2;
        wc.l2_bytes += to_l2;
      }
      ctas[static_cast<size_t>(cta)].Charge(dev, eff, wc, kvb, shape.slots);
    }
  }
  for (const auto& c : ctas) {
    report.cta_time_us.push_back(c.time_us);
    report.total_hbm_bytes += c.total.hbm_bytes;
    report.total_l2_bytes += c.total.l2_bytes;
    report.total_tensor_flops += c.total.tensor_flops;
    report.total_cuda_flops += c.total.cuda_flops;
  }
  report.time_us = gpusim::SimExecutor::Makespan(report.cta_time_us,
                                                 dev.num_sms * shape.resident) +
                   dev.kernel_launch_us;
  if (plan.rmap.Empty()) return report;

  // Persistent contraction: tasks strided over min(tasks, #SM) CTAs.
  const int num_tasks = static_cast<int>(plan.rmap.tasks.size());
  const int grid = std::min(num_tasks, dev.num_sms);
  std::vector<gpusim::CtaCost> merge(static_cast<size_t>(grid));
  for (int cta = 0; cta < grid; ++cta) {
    for (int t = cta; t < num_tasks; t += grid) {
      const auto& task = plan.rmap.tasks[static_cast<size_t>(t)];
      gpusim::WorkCost wc;
      wc.hbm_bytes = static_cast<double>(task.count) * (p.head_dim + 1) * 4.0 +
                     static_cast<double>(p.head_dim) * 2.0;
      wc.cuda_flops = static_cast<double>(task.count) * (2.0 * p.head_dim + 8.0);
      merge[static_cast<size_t>(cta)].Charge(dev, eff, wc, kvb, dev.num_sms,
                                             gpusim::kMergeRowOverheadUs);
    }
  }
  std::vector<double> merge_times;
  for (const auto& c : merge) {
    merge_times.push_back(c.time_us);
    report.total_hbm_bytes += c.total.hbm_bytes;
    report.total_l2_bytes += c.total.l2_bytes;
    report.total_tensor_flops += c.total.tensor_flops;
    report.total_cuda_flops += c.total.cuda_flops;
  }
  report.time_us += gpusim::SimExecutor::Makespan(merge_times, dev.num_sms) +
                    dev.kernel_launch_us;
  return report;
}

void ExpectSameReport(const gpusim::SimReport& a, const gpusim::SimReport& b,
                      const std::string& what) {
  EXPECT_EQ(a.time_us, b.time_us) << what;
  EXPECT_EQ(a.total_hbm_bytes, b.total_hbm_bytes) << what;
  EXPECT_EQ(a.total_l2_bytes, b.total_l2_bytes) << what;
  EXPECT_EQ(a.total_tensor_flops, b.total_tensor_flops) << what;
  EXPECT_EQ(a.total_cuda_flops, b.total_cuda_flops) << what;
  EXPECT_EQ(a.num_ctas, b.num_ctas) << what;
  EXPECT_EQ(a.cta_time_us, b.cta_time_us) << what;
}

TEST(PricerDifferential, RunAndPricePlanMatchKernelChargeReference) {
  constexpr int kBatches = 240;
  const SchedulerKind kSchedulers[] = {SchedulerKind::kBalanced, SchedulerKind::kNaive,
                                       SchedulerKind::kFixedSplit};
  const int kHeads[][2] = {{4, 2}, {8, 2}, {8, 1}, {4, 4}};
  const DType kDtypes[] = {DType::kF16, DType::kF32, DType::kFP8_E4M3};
  const double kHints[] = {0.5, 1.0, 4.0, 12.0, 40.0};
  Rng rng(20250117);
  Workspace ws(Workspace::EstimateBytes(2048, 128, /*head_dim=*/16));
  int below = 0, above = 0, split = 0, unsplit = 0, causal = 0, unfused_gqa = 0;
  for (int i = 0; i < kBatches; ++i) {
    const auto dev = i % 2 == 0 ? gpusim::H100Sxm80GB() : gpusim::A100Sxm40GB();
    BatchAttentionHandle::TaskInfo info;
    info.scheduler = kSchedulers[(i / 2) % 3];
    info.variant = (i / 6) % 2 == 0 ? VariantKind::kVanilla : VariantKind::kFusedRope;
    info.head_fusion = (i / 12) % 2 == 0;
    const auto& heads = kHeads[rng.UniformInt(0, 3)];
    info.num_qo_heads = heads[0];
    info.num_kv_heads = heads[1];
    info.head_dim = 16;
    info.kv_dtype = kDtypes[rng.UniformInt(0, 2)];
    info.avg_qlen_hint = kHints[rng.UniformInt(0, 4)];
    info.fixed_splits = static_cast<int>(rng.UniformInt(2, 4));

    // Ragged decode + prefill-chunk mix; a few long contexts force splits.
    ProblemSpec spec;
    const int n = static_cast<int>(rng.UniformInt(1, 10));
    for (int r = 0; r < n; ++r) {
      const int64_t qo = rng.NextDouble() < 0.6 ? 1 : rng.UniformInt(2, 40);
      const int64_t ctx =
          rng.NextDouble() < 0.2 ? rng.UniformInt(300, 1200) : rng.UniformInt(0, 160);
      spec.qo_lens.push_back(qo);
      spec.kv_lens.push_back(qo + ctx);
    }
    spec.num_qo_heads = info.num_qo_heads;
    spec.num_kv_heads = info.num_kv_heads;
    spec.head_dim = info.head_dim;
    spec.page_size = static_cast<int>(rng.UniformInt(1, 16));
    spec.kv_dtype = info.kv_dtype;
    spec.head_fusion = info.head_fusion;
    spec.seed = static_cast<uint64_t>(i) + 1;

    BatchAttentionHandle handle(dev, info, &ws);
    spec.tile_q = handle.config().tile_q;
    auto prob = MakeProblem(spec);
    auto p = prob.Params();
    p.variant.causal = rng.NextDouble() < 0.5;
    handle.MutableVariantParams() = p.variant;
    const double knob = rng.NextDouble() < 0.3 ? 0.25 : 0.0;
    handle.SetKvL2Fraction(knob);
    handle.Plan(&prob.bsr, prob.qo_indptr, spec.kv_lens);
    const auto run = handle.Run(prob.q, *prob.kv, &prob.o, &prob.lse);

    const Plan& plan = handle.plan();
    const bool qk = info.variant == VariantKind::kFusedRope;
    const double auto_l2 = IntraBatchKvReuseFraction(p, EnumerateWorkUnits(p));
    const double l2 = 1.0 - (1.0 - knob) * (1.0 - auto_l2);
    const auto ref = KernelChargeReference(dev, p, handle.config(), plan, info.kv_dtype, qk, l2);
    const auto priced = PricePlan(dev, p, handle.config(), plan, info.kv_dtype, qk, l2);
    const std::string what = "batch " + std::to_string(i);
    ExpectSameReport(priced, ref, what);
    ExpectSameReport(run, priced, what);

    const auto tasks = static_cast<int>(plan.rmap.tasks.size());
    if (tasks > 0) (tasks < dev.num_sms ? below : above)++;
    (plan.num_partial_rows > 0 ? split : unsplit)++;
    causal += p.variant.causal ? 1 : 0;
    unfused_gqa += !info.head_fusion && info.num_qo_heads > info.num_kv_heads ? 1 : 0;
  }
  // The sweep must reach every regime the pricer distinguishes.
  EXPECT_GT(below, 10);
  EXPECT_GT(above, 10);
  EXPECT_GT(split, 20);
  EXPECT_GT(unsplit, 20);
  EXPECT_GT(causal, 20);
  EXPECT_GT(unfused_gqa, 20);
}

// ------------------------------------------------ ported kernel-charge cases
TEST(PricePlan, ChargesSimulatedCost) {
  ProblemSpec spec;
  spec.qo_lens = {4};
  spec.kv_lens = {32};
  spec.kv_dtype = DType::kF16;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 16;
  const auto dev = gpusim::A100Sxm40GB();
  const auto report = PricePlan(dev, p, cfg, MakeNaivePlan(EnumerateWorkUnits(p)),
                                DType::kF16, /*has_qk_transform=*/false);
  EXPECT_GT(report.time_us, 0.0);
  // KV bytes: 32 tokens x 2(K,V) x 16 dim x 2B per kv head x 2 units (2 kv heads).
  const double expected_kv = 2.0 * 32 * 2 * 16 * 2;
  EXPECT_GE(report.total_hbm_bytes, expected_kv);
  EXPECT_GT(report.total_tensor_flops, 0.0);
}

TEST(PricePlan, L2FractionRedirectsTraffic) {
  ProblemSpec spec;
  spec.qo_lens = {1};
  spec.kv_lens = {64};
  spec.kv_dtype = DType::kF16;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  Plan plan;
  plan.items = {WorkItem{0, 0, 0, -1, 0, 64, -1}};
  plan.cta_begin = {0, 1};
  const auto report = PricePlan(gpusim::A100Sxm40GB(), p, cfg, plan, DType::kF16,
                                /*has_qk_transform=*/false, /*kv_l2_fraction=*/0.5);
  EXPECT_GT(report.total_l2_bytes, 0.0);
  const double kv_bytes = 64.0 * 2 * spec.head_dim * 2;
  EXPECT_NEAR(report.total_l2_bytes, kv_bytes * 0.5, 1.0);
}

TEST(PricePlan, QkTransformChargesExtraCudaFlopsOnly) {
  ProblemSpec spec;
  spec.qo_lens = {3, 1};
  spec.kv_lens = {40, 17};
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 16;
  const auto dev = gpusim::H100Sxm80GB();
  const auto plan = MakeNaivePlan(EnumerateWorkUnits(p));
  const auto plain = PricePlan(dev, p, cfg, plan, DType::kF32, false);
  const auto rope = PricePlan(dev, p, cfg, plan, DType::kF32, true);
  EXPECT_EQ(rope.total_hbm_bytes, plain.total_hbm_bytes);
  EXPECT_EQ(rope.total_tensor_flops, plain.total_tensor_flops);
  EXPECT_GT(rope.total_cuda_flops, plain.total_cuda_flops);
}

}  // namespace
}  // namespace flashinfer

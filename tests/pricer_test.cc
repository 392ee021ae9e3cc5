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
#include <numeric>
#include <optional>

#include "core/kernel_dispatch.h"
#include "core/tile_heuristics.h"
#include "gpusim/executor.h"
#include "runtime/batch_handle.h"
#include "serving/backends.h"
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

// ----------------------------------------------- serving pricer references
// SimulateBatchAttention plans from lengths alone. It used to build iota page
// tables and a batch BSR for every priced launch and plan over that BSR; the
// composable path also threaded level-1 position offsets into it. That path
// is kept below as the reference the length-only pricer must reproduce.

std::vector<sparse::RequestKv> RefFakePages(const std::vector<int64_t>& kv_lens, int page_size,
                                            const std::vector<int64_t>& pos_offsets) {
  std::vector<sparse::RequestKv> kv(kv_lens.size());
  int64_t next_page = 0;
  for (size_t r = 0; r < kv_lens.size(); ++r) {
    const int64_t len = kv_lens[r];
    const int64_t pages = (len + page_size - 1) / page_size;
    kv[r].pages.resize(static_cast<size_t>(pages));
    std::iota(kv[r].pages.begin(), kv[r].pages.end(), next_page);
    next_page += pages;
    kv[r].last_page_len = len == 0 ? 0 : static_cast<int>(len - (pages - 1) * page_size);
    kv[r].pos_offset = pos_offsets.empty() ? 0 : pos_offsets[r];
  }
  return kv;
}

gpusim::SimReport RefPriceSingleFormat(const gpusim::DeviceSpec& dev,
                                       const serving::BackendConfig& backend,
                                       const serving::AttnSimInput& in,
                                       const std::vector<int64_t>& qo_lens,
                                       const std::vector<int64_t>& kv_lens,
                                       const std::vector<int64_t>& pos_offsets,
                                       int tile_q_override = 0) {
  const int g = in.num_qo_heads / in.num_kv_heads;
  const int64_t total_q = std::accumulate(qo_lens.begin(), qo_lens.end(), int64_t{0});
  const double avg_fused =
      qo_lens.empty() ? 1.0
                      : static_cast<double>(total_q) / static_cast<double>(qo_lens.size()) *
                            (backend.head_fusion ? g : 1);
  KernelConfig cfg = SelectKernelConfig(dev, avg_fused, in.head_dim,
                                        DTypeBytes(backend.kv_dtype), !in.force_dense);
  cfg.head_fusion = backend.head_fusion;
  if (tile_q_override > 0) cfg.tile_q = tile_q_override;
  if (in.tile_q_override > 0) cfg.tile_q = in.tile_q_override;
  if (in.force_template == 2) cfg.tmpl = gpusim::TemplateGen::kFA2;
  if (in.force_template == 3) cfg.tmpl = gpusim::TemplateGen::kFA3;

  std::vector<int64_t> fused_lens(qo_lens.size());
  for (size_t i = 0; i < qo_lens.size(); ++i) {
    fused_lens[i] = qo_lens[i] * (backend.head_fusion ? g : 1);
  }
  const auto kv = RefFakePages(kv_lens, in.page_size, pos_offsets);
  const auto bsr = sparse::BuildBatchBsr(BuildIndptr(fused_lens), kv, in.page_size, cfg.tile_q);

  AttentionParams p;
  p.bsr = &bsr;
  p.qo_indptr = BuildIndptr(qo_lens);
  p.kv_len = kv_lens;
  p.num_qo_heads = in.num_qo_heads;
  p.num_kv_heads = in.num_kv_heads;
  p.head_dim = in.head_dim;
  p.head_fusion = backend.head_fusion;
  p.variant.causal = in.causal;

  const auto units = EnumerateWorkUnits(p);
  Plan plan;
  switch (backend.scheduler) {
    case SchedulerKind::kBalanced:
      plan = MakeBalancedPlan(p, units, cfg, dev.num_sms, int64_t{1} << 40);
      break;
    case SchedulerKind::kNaive:
      plan = MakeNaivePlan(units);
      break;
    case SchedulerKind::kFixedSplit:
      plan = MakeFixedSplitPlan(p, units, cfg, dev.num_sms, 4, int64_t{1} << 40);
      break;
  }
  const double auto_l2 = IntraBatchKvReuseFraction(p, units);
  const double l2_fraction = 1.0 - (1.0 - in.kv_l2_fraction) * (1.0 - auto_l2);
  auto report = PricePlan(dev, p, cfg, plan, backend.kv_dtype, false, l2_fraction);
  report.time_us *= backend.kernel_time_scale;
  return report;
}

std::optional<gpusim::SimReport> RefPackedTiles(const gpusim::DeviceSpec& dev,
                                                const serving::BackendConfig& backend,
                                                const serving::AttnSimInput& in) {
  const int g = backend.head_fusion ? in.num_qo_heads / in.num_kv_heads : 1;
  std::vector<int64_t> small_qo, small_kv, large_qo, large_kv;
  int64_t small_fused = 0;
  for (size_t i = 0; i < in.qo_lens.size(); ++i) {
    if (in.qo_lens[i] * g >= 64) {
      large_qo.push_back(in.qo_lens[i]);
      large_kv.push_back(in.kv_lens[i]);
    } else {
      small_qo.push_back(in.qo_lens[i]);
      small_kv.push_back(in.kv_lens[i]);
      small_fused += in.qo_lens[i] * g;
    }
  }
  if (small_qo.empty() || large_qo.empty()) return std::nullopt;
  const double small_avg =
      static_cast<double>(small_fused) / static_cast<double>(small_qo.size());
  int small_tile = 16;
  while (small_tile < 64 && small_tile < small_avg) small_tile *= 2;
  serving::AttnSimInput flat = in;
  flat.groups.clear();
  const auto small = RefPriceSingleFormat(dev, backend, flat, small_qo, small_kv, {}, small_tile);
  const auto large = RefPriceSingleFormat(dev, backend, flat, large_qo, large_kv, {});
  gpusim::SimReport out;
  out.num_ctas = std::max(small.num_ctas, large.num_ctas);
  out.cta_time_us = small.cta_time_us;
  out.cta_time_us.insert(out.cta_time_us.end(), large.cta_time_us.begin(),
                         large.cta_time_us.end());
  out.total_hbm_bytes = small.total_hbm_bytes + large.total_hbm_bytes;
  out.total_l2_bytes = small.total_l2_bytes + large.total_l2_bytes;
  out.total_tensor_flops = small.total_tensor_flops + large.total_tensor_flops;
  out.total_cuda_flops = small.total_cuda_flops + large.total_cuda_flops;
  const double hi = std::max(small.time_us, large.time_us);
  const double lo = std::min(small.time_us, large.time_us);
  out.time_us =
      std::max(hi, hi + lo * 0.35 - dev.kernel_launch_us * backend.kernel_time_scale);
  return out;
}

gpusim::SimReport RefSimulateBatchAttention(const gpusim::DeviceSpec& dev,
                                            const serving::BackendConfig& backend,
                                            const serving::AttnSimInput& in) {
  if (!backend.composable || in.groups.empty()) {
    auto report = RefPriceSingleFormat(dev, backend, in, in.qo_lens, in.kv_lens, {});
    if (backend.packed_tiles && in.groups.empty() && in.tile_q_override == 0 &&
        in.qo_lens.size() > 1) {
      if (auto packed = RefPackedTiles(dev, backend, in);
          packed.has_value() && packed->time_us < report.time_us) {
        return *packed;
      }
    }
    return report;
  }
  const int g = in.num_qo_heads / in.num_kv_heads;
  std::vector<int64_t> combined_qo, combined_kv, combined_pos;
  int max_group_rows = 1;
  for (const auto& group : in.groups) {
    int64_t rows = 0;
    for (int m : group.members) rows += in.qo_lens[static_cast<size_t>(m)];
    combined_qo.push_back(rows);
    combined_kv.push_back(group.prefix_len);
    combined_pos.push_back(0);
    max_group_rows =
        std::max<int>(max_group_rows, static_cast<int>(rows) * (backend.head_fusion ? g : 1));
  }
  std::vector<int64_t> l1_kv(in.kv_lens);
  std::vector<int64_t> l1_pos(in.kv_lens.size(), 0);
  for (const auto& group : in.groups) {
    for (int m : group.members) {
      l1_kv[static_cast<size_t>(m)] = in.kv_lens[static_cast<size_t>(m)] - group.prefix_len;
      l1_pos[static_cast<size_t>(m)] = group.prefix_len;
    }
  }
  combined_qo.insert(combined_qo.end(), in.qo_lens.begin(), in.qo_lens.end());
  combined_kv.insert(combined_kv.end(), l1_kv.begin(), l1_kv.end());
  combined_pos.insert(combined_pos.end(), l1_pos.begin(), l1_pos.end());
  serving::AttnSimInput flat = in;
  flat.groups.clear();
  auto report = RefPriceSingleFormat(dev, backend, flat, combined_qo, combined_kv, combined_pos,
                                     std::min(max_group_rows, 128));
  int64_t fused_rows = 0;
  for (const auto& group : in.groups) {
    for (int m : group.members) fused_rows += in.qo_lens[static_cast<size_t>(m)] * g;
  }
  fused_rows *= in.num_kv_heads;
  gpusim::WorkCost wc;
  wc.hbm_bytes = static_cast<double>(fused_rows) * (in.head_dim + 1) * 4.0 * 2.0 +
                 static_cast<double>(fused_rows) * in.head_dim * 2.0;
  wc.cuda_flops = static_cast<double>(fused_rows) * (2.0 * in.head_dim + 8.0);
  gpusim::KernelEfficiency eff;
  report.time_us += wc.hbm_bytes / (dev.hbm_gbps * eff.mem * 1e3);
  report.total_hbm_bytes += wc.hbm_bytes;
  report.total_cuda_flops += wc.cuda_flops;
  return report;
}

/// A random serving step: decode rows, prefill chunks (some large enough for
/// the packed compute-bound class), zero-length KV, and disjoint
/// shared-prefix groups over the decode rows.
serving::AttnSimInput RandomStep(Rng& rng) {
  serving::AttnSimInput in;
  const int n = static_cast<int>(rng.UniformInt(1, 24));
  for (int r = 0; r < n; ++r) {
    const double kind = rng.NextDouble();
    const int64_t qo = kind < 0.6 ? 1 : kind < 0.85 ? rng.UniformInt(2, 48)
                                                    : rng.UniformInt(49, 700);
    const int64_t ctx =
        rng.NextDouble() < 0.2 ? rng.UniformInt(2000, 9000) : rng.UniformInt(0, 900);
    in.qo_lens.push_back(qo);
    in.kv_lens.push_back(rng.NextDouble() < 0.05 ? 0 : qo + ctx);
  }
  const int kHeads[][2] = {{32, 8}, {32, 32}, {8, 2}, {16, 1}};
  const auto& heads = kHeads[rng.UniformInt(0, 3)];
  in.num_qo_heads = heads[0];
  in.num_kv_heads = heads[1];
  in.head_dim = rng.NextDouble() < 0.5 ? 128 : 64;
  in.page_size = static_cast<int>(rng.UniformInt(1, 16));
  in.causal = rng.NextDouble() < 0.7;
  in.kv_l2_fraction = rng.NextDouble() < 0.2 ? 0.3 : 0.0;
  if (rng.NextDouble() < 0.1) in.tile_q_override = static_cast<int>(16 << rng.UniformInt(0, 3));
  if (rng.NextDouble() < 0.1) in.force_template = static_cast<int>(rng.UniformInt(2, 3));
  in.force_dense = rng.NextDouble() < 0.1;
  if (rng.NextDouble() < 0.4) {
    int next = 0;
    while (next + 1 < n) {
      serving::AttnSimInput::Group group;
      const int size = static_cast<int>(rng.UniformInt(2, std::min(6, n - next)));
      for (int m = next; m < next + size; ++m) group.members.push_back(m);
      int64_t min_kv = in.kv_lens[static_cast<size_t>(next)];
      for (int m : group.members) min_kv = std::min(min_kv, in.kv_lens[static_cast<size_t>(m)]);
      group.prefix_len = rng.UniformInt(0, min_kv);
      in.groups.push_back(group);
      next += size + static_cast<int>(rng.UniformInt(0, 2));
    }
  }
  return in;
}

TEST(ServingPricerDifferential, LengthsPriceAsTheSyntheticBsrDid) {
  const SchedulerKind kSchedulers[] = {SchedulerKind::kBalanced, SchedulerKind::kNaive,
                                       SchedulerKind::kFixedSplit};
  const DType kDtypes[] = {DType::kF16, DType::kFP8_E4M3};
  Rng rng(1601);
  int composable = 0, packed = 0;
  for (int i = 0; i < 360; ++i) {
    const auto dev = i % 2 == 0 ? gpusim::H100Sxm80GB() : gpusim::A100Sxm40GB();
    auto backend = (i / 2) % 4 == 0 ? serving::TritonBackend() : serving::FlashInferBackend();
    backend.scheduler = kSchedulers[(i / 2) % 3];
    backend.head_fusion = (i / 6) % 2 == 0;
    backend.composable = (i / 12) % 2 == 0;
    backend.packed_tiles = (i / 24) % 2 == 0;
    backend.kv_dtype = kDtypes[rng.UniformInt(0, 1)];
    const auto in = RandomStep(rng);
    const auto ref = RefSimulateBatchAttention(dev, backend, in);
    ExpectSameReport(serving::SimulateBatchAttention(dev, backend, in), ref,
                     "step " + std::to_string(i));
    composable += backend.composable && !in.groups.empty() ? 1 : 0;
    packed += backend.packed_tiles && in.groups.empty() && in.tile_q_override == 0 &&
                      RefPackedTiles(dev, backend, in).has_value()
                  ? 1
                  : 0;
  }
  // The sweep must reach the composable and packed compositions.
  EXPECT_GT(composable, 30);
  EXPECT_GT(packed, 30);
}

// SimulateBatchAttention rejects inputs it cannot price at its boundary.
TEST(ServingPricerBoundary, RejectsMalformedInput) {
  const auto dev = gpusim::H100Sxm80GB();
  auto backend = serving::FlashInferBackend();
  backend.composable = true;
  serving::AttnSimInput ok;
  ok.qo_lens = {1, 1};
  ok.kv_lens = {40, 40};
  ok.groups = {{/*prefix_len=*/32, {0, 1}}};
  serving::SimulateBatchAttention(dev, backend, ok);  // Fine.
  const auto reject = [&](auto mutate) {
    auto in = ok;
    mutate(in);
    serving::SimulateBatchAttention(dev, backend, in);
  };
  EXPECT_DEATH(reject([](auto& in) {
                 in.qo_lens.clear();
                 in.kv_lens.clear();
               }),
               "FI_CHECK");
  EXPECT_DEATH(reject([](auto& in) { in.kv_lens.push_back(8); }), "FI_CHECK");
  EXPECT_DEATH(reject([](auto& in) { in.num_kv_heads = 0; }), "FI_CHECK");
  EXPECT_DEATH(reject([](auto& in) { in.num_kv_heads = 5; }), "FI_CHECK");
  EXPECT_DEATH(reject([](auto& in) { in.qo_lens[1] = -1; }), "FI_CHECK");
  EXPECT_DEATH(reject([](auto& in) { in.kv_lens[0] = -1; }), "FI_CHECK");
  EXPECT_DEATH(reject([](auto& in) { in.groups[0].prefix_len = -1; }), "FI_CHECK");
  EXPECT_DEATH(reject([](auto& in) { in.groups[0].members.push_back(2); }), "FI_CHECK");
  EXPECT_DEATH(reject([](auto& in) { in.groups[0].members.push_back(-1); }), "FI_CHECK");
  EXPECT_DEATH(reject([](auto& in) { in.groups[0].prefix_len = 41; }), "FI_CHECK");
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
  plan.items = {WorkItem{0, 0, 0, -1, 0, 64, -1, /*rows=*/1}};
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

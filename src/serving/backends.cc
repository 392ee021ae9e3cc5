#include "serving/backends.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "core/tile_heuristics.h"
#include "kvcache/ragged.h"
#include "runtime/scheduler.h"
#include "util/check.h"

namespace flashinfer::serving {

BackendConfig FlashInferBackend() {
  BackendConfig b;
  b.name = "FlashInfer v0.2";
  return b;
}

BackendConfig TritonBackend() {
  BackendConfig b;
  b.name = "Triton v3.0";
  // SGLang's Triton decode kernels use a static split-K heuristic: better
  // than no splitting on long sequences, but not sequence-length aware
  // (Appendix G.3 shows it between the two FlashInfer scheduler modes).
  b.scheduler = SchedulerKind::kFixedSplit;
  b.kernel_time_scale = 1.30;
  b.host_us_per_step = 220.0;
  b.fused_rope = false;
  b.composable = false;
  return b;
}

BackendConfig FlashAttentionBackend() {
  BackendConfig b;
  b.name = "FlashAttention";
  b.scheduler = SchedulerKind::kNaive;
  b.kernel_time_scale = 1.0;
  b.fused_rope = false;
  b.head_fusion = false;
  b.composable = false;
  return b;
}

BackendConfig VllmDefaultBackend() {
  BackendConfig b;
  b.name = "vLLM default";
  b.scheduler = SchedulerKind::kNaive;
  b.kernel_time_scale = 1.05;
  b.host_us_per_req = 14.0;  // Python-side array bookkeeping (Appendix G.4).
  b.host_us_per_step = 250.0;
  b.composable = false;
  return b;
}

namespace {

/// Builds sequential fake page tables for a batch of KV lengths (the
/// estimator needs structure, not data).
std::vector<sparse::RequestKv> FakePages(const std::vector<int64_t>& kv_lens, int page_size,
                                         const std::vector<int64_t>& pos_offsets) {
  std::vector<sparse::RequestKv> kv(kv_lens.size());
  int64_t next_page = 0;
  for (size_t r = 0; r < kv_lens.size(); ++r) {
    const int64_t len = kv_lens[r];
    const int64_t pages = (len + page_size - 1) / page_size;
    kv[r].pages.resize(static_cast<size_t>(pages));
    std::iota(kv[r].pages.begin(), kv[r].pages.end(), next_page);
    next_page += pages;
    kv[r].last_page_len =
        len == 0 ? 0 : static_cast<int>(len - (pages - 1) * page_size);
    kv[r].pos_offset = pos_offsets.empty() ? 0 : pos_offsets[r];
  }
  return kv;
}

/// Schedules `p` with the backend's policy and prices the plan, composing
/// the caller's cross-request L2 reuse fraction with intra-batch tile reuse.
gpusim::SimReport PlanAndPrice(const gpusim::DeviceSpec& dev, const BackendConfig& backend,
                               const AttentionParams& p, const KernelConfig& cfg,
                               double extra_l2_fraction) {
  const int num_ctas = dev.num_sms;  // Persistent grid, k = 1.
  const auto units = EnumerateWorkUnits(p);
  Plan plan;
  switch (backend.scheduler) {
    case SchedulerKind::kBalanced:
      plan = MakeBalancedPlan(p, units, cfg, num_ctas, int64_t{1} << 40);
      break;
    case SchedulerKind::kNaive:
      plan = MakeNaivePlan(units);
      break;
    case SchedulerKind::kFixedSplit:
      plan = MakeFixedSplitPlan(p, units, cfg, num_ctas, 4, int64_t{1} << 40);
      break;
  }
  const double auto_l2 = IntraBatchKvReuseFraction(p, units);
  const double l2_fraction = 1.0 - (1.0 - extra_l2_fraction) * (1.0 - auto_l2);
  // Priced as the vanilla kernel; an unfused RoPE pass is the engine's to add
  // (BackendConfig::fused_rope).
  auto report = PricePlan(dev, p, cfg, plan, backend.kv_dtype, /*has_qk_transform=*/false,
                          l2_fraction);
  report.time_us *= backend.kernel_time_scale;
  return report;
}

/// Prices one single-format attention launch over (qo_lens, kv_lens).
gpusim::SimReport PriceSingleFormat(const gpusim::DeviceSpec& dev,
                                    const BackendConfig& backend, const AttnSimInput& in,
                                    const std::vector<int64_t>& qo_lens,
                                    const std::vector<int64_t>& kv_lens,
                                    const std::vector<int64_t>& pos_offsets,
                                    int tile_q_override = 0) {
  FI_CHECK_EQ(qo_lens.size(), kv_lens.size());
  const int g = in.num_qo_heads / in.num_kv_heads;
  const int64_t total_q = std::accumulate(qo_lens.begin(), qo_lens.end(), int64_t{0});
  const double avg_fused =
      qo_lens.empty() ? 1.0
                      : static_cast<double>(total_q) / static_cast<double>(qo_lens.size()) *
                            (backend.head_fusion ? g : 1);

  KernelConfig cfg = SelectKernelConfig(dev, avg_fused, in.head_dim,
                                        DTypeBytes(backend.kv_dtype),
                                        /*sparse=*/!in.force_dense);
  cfg.head_fusion = backend.head_fusion;
  if (tile_q_override > 0) cfg.tile_q = tile_q_override;
  if (in.tile_q_override > 0) cfg.tile_q = in.tile_q_override;
  if (in.force_template == 2) cfg.tmpl = gpusim::TemplateGen::kFA2;
  if (in.force_template == 3) cfg.tmpl = gpusim::TemplateGen::kFA3;

  // Fused-row indptr and BSR.
  std::vector<int64_t> fused_lens(qo_lens.size());
  for (size_t i = 0; i < qo_lens.size(); ++i) {
    fused_lens[i] = qo_lens[i] * (backend.head_fusion ? g : 1);
  }
  const auto fused_indptr = BuildIndptr(fused_lens);
  const auto kv = FakePages(kv_lens, in.page_size, pos_offsets);
  const auto bsr = sparse::BuildBatchBsr(fused_indptr, kv, in.page_size, cfg.tile_q);

  AttentionParams p;
  p.bsr = &bsr;
  p.qo_indptr = BuildIndptr(qo_lens);
  p.kv_len = kv_lens;
  p.num_qo_heads = in.num_qo_heads;
  p.num_kv_heads = in.num_kv_heads;
  p.head_dim = in.head_dim;
  p.head_fusion = backend.head_fusion;
  p.variant.causal = in.causal;  // Enables causal work trimming in planning.

  return PlanAndPrice(dev, backend, p, cfg, in.kv_l2_fraction);
}

/// Fused-row boundary between the compute-bound ("large") and
/// bandwidth-bound ("small") tile classes: rows at or above it fill a
/// high-TileComputeFactor tile on their own; rows below it want the memory
/// parallelism of small tiles.
constexpr int64_t kPackedClassRows = 64;
/// Cross-class contention tax: the persistent packed grid co-schedules the
/// bandwidth-bound class with the compute-bound class, so the shorter class
/// mostly hides behind the longer — but they share L2, scheduler slots, and
/// the memory subsystem, so a fraction of the shorter class's time surfaces.
constexpr double kPackedContention = 0.35;

/// PackInfer-style packed-tile pricing (BackendConfig::packed_tiles).
///
/// The single-format path picks ONE query tile from the batch-average fused
/// length; on heterogeneous batches that average represents nobody, and the
/// whole launch pays the compromise. Packed mode instead:
///   1. splits requests into a compute-bound class (fused rows >=
///      kPackedClassRows) and a bandwidth-bound class (everything else);
///   2. prices each class through the real scheduler at its own tile — the
///      small class at the smallest high-occupancy tile covering its average
///      fused length (floored at 16: a degenerate 1-row tile forfeits the
///      MMA lanes entirely), the large class at its naturally selected big
///      tile;
///   3. combines the classes as one persistent launch that packs both tile
///      shapes into the same grid: they stress different rooflines, so the
///      shorter class hides behind the longer modulo kPackedContention, and
///      the launch overhead is paid once.
///
/// The cost model prices work at request granularity, so intra-tile row
/// sharing between requests is not modeled separately — its effect is
/// absorbed by the per-class tile geometry (a dense-MMA surrogate would
/// overcharge each shared tile by the full tile rows per member's KV).
///
/// Returns nullopt when the batch is homogeneous (either class empty): the
/// average heuristic already fits, and the caller keeps the baseline path.
std::optional<gpusim::SimReport> TryPricePackedTiles(const gpusim::DeviceSpec& dev,
                                                     const BackendConfig& backend,
                                                     const AttnSimInput& in) {
  const int g = backend.head_fusion ? in.num_qo_heads / in.num_kv_heads : 1;
  std::vector<int64_t> small_qo, small_kv, large_qo, large_kv;
  int64_t small_fused = 0;
  for (size_t i = 0; i < in.qo_lens.size(); ++i) {
    const int64_t qo = in.qo_lens[i];
    const int64_t fused = qo * g;
    if (fused >= kPackedClassRows) {
      large_qo.push_back(qo);
      large_kv.push_back(in.kv_lens[i]);
    } else {
      small_qo.push_back(qo);
      small_kv.push_back(in.kv_lens[i]);
      small_fused += fused;
    }
  }
  if (small_qo.empty() || large_qo.empty()) return std::nullopt;

  const double small_avg =
      static_cast<double>(small_fused) / static_cast<double>(small_qo.size());
  int small_tile = 16;
  while (small_tile < 64 && small_tile < small_avg) small_tile *= 2;

  AttnSimInput flat = in;
  flat.groups.clear();
  const auto small_report = PriceSingleFormat(dev, backend, flat, small_qo, small_kv,
                                              /*pos_offsets=*/{}, small_tile);
  const auto large_report =
      PriceSingleFormat(dev, backend, flat, large_qo, large_kv, /*pos_offsets=*/{});

  gpusim::SimReport out;
  out.num_ctas = std::max(small_report.num_ctas, large_report.num_ctas);
  out.cta_time_us = small_report.cta_time_us;
  out.cta_time_us.insert(out.cta_time_us.end(), large_report.cta_time_us.begin(),
                         large_report.cta_time_us.end());
  out.total_hbm_bytes = small_report.total_hbm_bytes + large_report.total_hbm_bytes;
  out.total_l2_bytes = small_report.total_l2_bytes + large_report.total_l2_bytes;
  out.total_tensor_flops =
      small_report.total_tensor_flops + large_report.total_tensor_flops;
  out.total_cuda_flops = small_report.total_cuda_flops + large_report.total_cuda_flops;
  const double hi = std::max(small_report.time_us, large_report.time_us);
  const double lo = std::min(small_report.time_us, large_report.time_us);
  // One persistent launch: the second class's launch overhead is not paid
  // (each sub-report charged dev.kernel_launch_us, scaled by the backend).
  out.time_us = std::max(
      hi, hi + lo * kPackedContention - dev.kernel_launch_us * backend.kernel_time_scale);
  return out;
}

}  // namespace

gpusim::SimReport SimulateMaskedAttention(const gpusim::DeviceSpec& dev,
                                          const BackendConfig& backend,
                                          const AttnSimInput& in,
                                          const sparse::BsrMatrix& bsr,
                                          const std::vector<int64_t>& qo_lens,
                                          const std::vector<int64_t>& kv_lens) {
  FI_CHECK_EQ(qo_lens.size(), kv_lens.size());
  // The mask dictates the tile geometry: Br must match how it was lowered.
  KernelConfig cfg = SelectKernelConfig(dev, /*avg_fused_rows=*/bsr.br, in.head_dim,
                                        DTypeBytes(backend.kv_dtype), /*sparse=*/true);
  cfg.head_fusion = backend.head_fusion;
  cfg.tile_q = bsr.br;
  if (in.force_template == 2) cfg.tmpl = gpusim::TemplateGen::kFA2;
  if (in.force_template == 3) cfg.tmpl = gpusim::TemplateGen::kFA3;

  AttentionParams p;
  p.bsr = &bsr;
  p.qo_indptr = BuildIndptr(qo_lens);
  p.kv_len = kv_lens;
  p.num_qo_heads = in.num_qo_heads;
  p.num_kv_heads = in.num_kv_heads;
  p.head_dim = in.head_dim;
  p.head_fusion = backend.head_fusion;
  p.variant.causal = false;  // The mask IS the structure; nothing to trim.

  return PlanAndPrice(dev, backend, p, cfg, in.kv_l2_fraction);
}

gpusim::SimReport SimulateBatchAttention(const gpusim::DeviceSpec& dev,
                                         const BackendConfig& backend,
                                         const AttnSimInput& in) {
  if (!backend.composable || in.groups.empty()) {
    // Packed tiles engage only on heterogeneous batches with no bench
    // overrides pinning the geometry; otherwise the baseline path runs
    // bit-identically. Like a real plan() heuristic, the packed layout is
    // priced against the single-tile layout and the cheaper one runs — on
    // mixes where the compromise tile happens to fit, packed mode ties the
    // baseline instead of regressing it.
    auto report = PriceSingleFormat(dev, backend, in, in.qo_lens, in.kv_lens,
                                    /*pos_offsets=*/{});
    if (backend.packed_tiles && in.groups.empty() && in.tile_q_override == 0 &&
        in.qo_lens.size() > 1) {
      if (auto packed = TryPricePackedTiles(dev, backend, in);
          packed.has_value() && packed->time_us < report.time_us) {
        return *packed;
      }
    }
    return report;
  }

  // --- Composable path (Sec. 3.1.2): both levels run as ONE persistent
  // launch — level 0 processes each shared prefix once per group at
  // Br = group rows, level 1 processes the unique suffixes at small Br, and
  // the balanced scheduler interleaves all their chunks over the same grid
  // (the paper merges attention and contraction stages into one persistent
  // kernel). We therefore price a single combined batch: one "request" per
  // group (prefix KV, concatenated member rows) plus one per real request
  // (suffix KV only).
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

  AttnSimInput flat = in;
  flat.groups.clear();
  // The prefix level's larger Br bounds the tile (and hence occupancy).
  auto report = PriceSingleFormat(dev, backend, flat, combined_qo, combined_kv, combined_pos,
                                  std::min(max_group_rows, 128));

  // --- Extra contraction: merge level-0 and level-1 states per fused row. --
  {
    int64_t fused_rows = 0;
    for (const auto& group : in.groups) {
      for (int m : group.members) {
        fused_rows += in.qo_lens[static_cast<size_t>(m)] * g;
      }
    }
    fused_rows *= in.num_kv_heads;
    gpusim::WorkCost wc;
    wc.hbm_bytes = static_cast<double>(fused_rows) * (in.head_dim + 1) * 4.0 * 2.0 +
                   static_cast<double>(fused_rows) * in.head_dim * 2.0;
    wc.cuda_flops = static_cast<double>(fused_rows) * (2.0 * in.head_dim + 8.0);
    gpusim::KernelEfficiency eff;  // Bandwidth-bound merge kernel.
    report.time_us += wc.hbm_bytes / (dev.hbm_gbps * eff.mem * 1e3);
    report.total_hbm_bytes += wc.hbm_bytes;
    report.total_cuda_flops += wc.cuda_flops;
  }
  return report;
}

}  // namespace flashinfer::serving

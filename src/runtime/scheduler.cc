#include "runtime/scheduler.h"

#include <algorithm>
#include <queue>

#include "core/tile_heuristics.h"
#include "gpusim/executor.h"
#include "util/check.h"

namespace flashinfer {

namespace {

/// Builds the reduction map rows for one work unit split into `num_chunks`
/// chunks whose partial rows start at `first_base`, `unit.rows` apart,
/// mirroring the kernel's fused-row mapping (Appendix A).
void AppendMergeTasks(const AttentionParams& p, const WorkUnit& unit, int32_t first_base,
                      int64_t num_chunks, ReductionMap* rmap) {
  const auto& bsr = *p.bsr;
  const int g = p.head_fusion ? p.GroupSize() : 1;
  const int64_t row0 = bsr.row_start[static_cast<size_t>(unit.block_row)];
  const int64_t fused_begin = p.FusedBegin(unit.request);
  for (int i = 0; i < unit.rows; ++i) {
    const int64_t local = row0 + i - fused_begin;
    const int64_t token_local = p.head_fusion ? local / g : local;
    const int qo_head = p.head_fusion
                            ? unit.kv_head * g + static_cast<int>(local % g)
                            : unit.qo_head;
    ReductionMap::Task task;
    task.token_row = p.qo_indptr[static_cast<size_t>(unit.request)] + token_local;
    task.qo_head = qo_head;
    task.begin = static_cast<int32_t>(rmap->slots.size());
    task.count = static_cast<int32_t>(num_chunks);
    for (int64_t k = 0; k < num_chunks; ++k) {
      rmap->slots.push_back(first_base + static_cast<int32_t>(k) * unit.rows + i);
    }
    rmap->tasks.push_back(task);
  }
}

/// Lays `num_items` items out CTA-major into `plan`: item k (`item_at(k)`)
/// joins CTA `owner_of(k)`'s queue, and every queue keeps its items in k
/// order.
template <typename OwnerFn, typename ItemFn>
void LayOutQueues(int num_ctas, size_t num_items, OwnerFn owner_of, ItemFn item_at,
                  Plan* plan) {
  auto& begin = plan->cta_begin;
  begin.assign(static_cast<size_t>(num_ctas) + 1, 0);
  for (size_t k = 0; k < num_items; ++k) ++begin[static_cast<size_t>(owner_of(k)) + 1];
  for (size_t c = 0; c < static_cast<size_t>(num_ctas); ++c) begin[c + 1] += begin[c];
  std::vector<int64_t> cursor(begin.begin(), begin.end() - 1);
  plan->items.resize(num_items);
  for (size_t k = 0; k < num_items; ++k) {
    plan->items[static_cast<size_t>(cursor[static_cast<size_t>(owner_of(k))]++)] = item_at(k);
  }
}

double QueueCost(std::span<const WorkItem> queue, int tile_q, double alpha,
                 double beta) noexcept {
  double c = 0.0;
  for (const auto& it : queue) {
    c += alpha * tile_q + beta * static_cast<double>(it.kv_end - it.kv_begin);
  }
  return c;
}

}  // namespace

double Plan::MaxCtaCost(int tile_q) const noexcept {
  double worst = 0.0;
  for (int c = 0; c < NumCtas(); ++c) {
    worst = std::max(worst, QueueCost(Queue(c), tile_q, alpha, beta));
  }
  return worst;
}

double Plan::MinCtaCost(int tile_q) const noexcept {
  if (NumCtas() == 0) return 0.0;
  double best = -1.0;
  for (int c = 0; c < NumCtas(); ++c) {
    const double cost = QueueCost(Queue(c), tile_q, alpha, beta);
    if (best < 0.0 || cost < best) best = cost;
  }
  return best;
}

std::vector<WorkUnit> EnumerateWorkUnits(const AttentionParams& p) {
  const auto& bsr = *p.bsr;
  std::vector<WorkUnit> units;
  const int num_heads = p.head_fusion ? p.num_kv_heads : p.num_qo_heads;
  const int g = p.head_fusion ? p.GroupSize() : 1;
  units.reserve(static_cast<size_t>(bsr.NumBlockRows() * num_heads));
  int request = 0;
  const int num_reqs = static_cast<int>(p.qo_indptr.size()) - 1;
  for (int64_t br = 0; br < bsr.NumBlockRows(); ++br) {
    const int64_t row0 = bsr.row_start[static_cast<size_t>(br)];
    // Advance to the owning request (block rows are laid out per request).
    while (request + 1 < num_reqs && p.FusedBegin(request + 1) <= row0) ++request;
    int64_t kv_len_row = bsr.RowKvLen(br);
    const int rows = bsr.RowsInBlock(br);
    if (p.variant.causal) {
      // Causal trimming: the tile's last query row attends at most
      // kv_len - qo_len + token_local + 1 tokens, so later KV is dead work
      // the kernel skips (fully-masked tiles are never scheduled).
      const int64_t last_local = bsr.row_start[static_cast<size_t>(br) + 1] - 1 -
                                 p.FusedBegin(request);
      const int64_t last_token = p.head_fusion ? last_local / g : last_local;
      const int64_t q_pos_hi = p.kv_len[static_cast<size_t>(request)] - p.QoLen(request) +
                               last_token + 1;
      kv_len_row = std::min(kv_len_row, std::max<int64_t>(q_pos_hi, 0));
    }
    for (int h = 0; h < num_heads; ++h) {
      WorkUnit u;
      u.block_row = static_cast<int32_t>(br);
      u.request = request;
      u.kv_head = p.head_fusion ? h : h / p.GroupSize();
      u.qo_head = p.head_fusion ? -1 : h;
      u.kv_len = kv_len_row;
      u.rows = rows;
      units.push_back(u);
    }
  }
  return units;
}

double IntraBatchKvReuseFraction(const AttentionParams& p, std::span<const WorkUnit> units) {
  if (units.empty()) return 0.0;
  // The underlying KV data is per (request, kv head): only its first read
  // misses to HBM. Re-reads come from (a) multiple query tiles of one
  // request (prefill) and (b) multiple qo heads sharing a kv head when
  // head-group fusion is off (unfused GQA) — both hit L2. Unique bytes per
  // (request, kv head) equal the largest tile read (the last causal tile
  // touches the whole visible KV). Indexed request-major, so the unique sum
  // runs in (request, kv head) order.
  const size_t num_reqs = p.qo_indptr.size() - 1;
  std::vector<int64_t> unique(num_reqs * static_cast<size_t>(p.num_kv_heads), 0);
  double total = 0.0;
  for (const auto& u : units) {
    auto& mx = unique[static_cast<size_t>(u.request) * static_cast<size_t>(p.num_kv_heads) +
                      static_cast<size_t>(u.kv_head)];
    mx = std::max(mx, u.kv_len);
    total += static_cast<double>(u.kv_len);
  }
  if (total <= 0.0) return 0.0;
  double unique_total = 0.0;
  for (int64_t mx : unique) unique_total += static_cast<double>(mx);
  return std::max(0.0, 1.0 - unique_total / total);
}

Plan MakeBalancedPlan(const AttentionParams& p, std::span<const WorkUnit> units,
                      const KernelConfig& cfg, int num_ctas, int64_t max_partial_rows,
                      double alpha, double beta) {
  FI_CHECK_GE(num_ctas, 1);
  Plan plan;
  plan.alpha = alpha;
  plan.beta = beta;

  // Line 3: maximum KV chunk size, rounded up to the KV tile.
  int64_t total_kv = 0;
  for (const auto& u : units) total_kv += u.kv_len;
  int64_t lkv = (total_kv + num_ctas - 1) / num_ctas;
  const int64_t tile_kv = std::max(1, cfg.tile_kv);
  lkv = std::max<int64_t>(((lkv + tile_kv - 1) / tile_kv) * tile_kv, tile_kv);
  plan.lkv_chunk = lkv;

  // Line 4: split each work unit's KV into chunks of at most lkv tokens;
  // single-chunk units write through (Appendix D.2). `order` pairs each
  // chunk's cost with its index in `chunks`.
  std::vector<WorkItem> chunks;
  std::vector<std::pair<double, int32_t>> order;
  chunks.reserve(units.size());
  order.reserve(units.size());
  const auto add_chunk = [&](const WorkUnit& u, int64_t lo, int64_t hi, int32_t dest) {
    order.emplace_back(alpha * static_cast<double>(u.rows) + beta * static_cast<double>(hi - lo),
                       static_cast<int32_t>(chunks.size()));
    chunks.push_back(WorkItem{u.block_row, u.request, u.kv_head, u.qo_head, lo, hi, dest});
  };
  int32_t next_partial_row = 0;
  for (const auto& u : units) {
    const int64_t n_chunks = u.kv_len <= lkv ? 1 : (u.kv_len + lkv - 1) / lkv;
    if (n_chunks == 1) {
      add_chunk(u, 0, u.kv_len, -1);
      continue;
    }
    AppendMergeTasks(p, u, next_partial_row, n_chunks, &plan.rmap);
    for (int64_t k = 0; k < n_chunks; ++k) {
      const int64_t lo = k * lkv;
      add_chunk(u, lo, std::min<int64_t>(u.kv_len, lo + lkv), next_partial_row);
      next_partial_row += u.rows;
    }
  }
  plan.num_partial_rows = next_partial_row;
  FI_CHECK_LE(plan.num_partial_rows, max_partial_rows);

  // Line 5: sort in descending cost order. Chunks are generated in
  // (block_row, kv_head, qo_head, kv_begin) order, so breaking ties by
  // index is that deterministic four-key tie-break.
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });

  // Lines 6-13: longest-processing-time-first onto a min-heap of CTAs.
  using HeapEntry = std::pair<double, int>;  // (accumulated cost, cta index)
  std::vector<HeapEntry> idle;
  idle.reserve(static_cast<size_t>(num_ctas));
  for (int c = 0; c < num_ctas; ++c) idle.emplace_back(0.0, c);
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap(
      std::greater<>{}, std::move(idle));
  std::vector<int32_t> owner(order.size());
  for (size_t k = 0; k < order.size(); ++k) {
    auto [cost, cta] = heap.top();
    heap.pop();
    owner[k] = cta;
    heap.emplace(cost + order[k].first, cta);
  }
  LayOutQueues(
      num_ctas, order.size(), [&](size_t k) { return owner[k]; },
      [&](size_t k) { return chunks[static_cast<size_t>(order[k].second)]; }, &plan);
  return plan;
}

Plan MakeBalancedPlan(const AttentionParams& p, const KernelConfig& cfg, int num_ctas,
                      int64_t max_partial_rows, double alpha, double beta) {
  return MakeBalancedPlan(p, EnumerateWorkUnits(p), cfg, num_ctas, max_partial_rows, alpha,
                          beta);
}

Plan MakeNaivePlan(std::span<const WorkUnit> units) {
  Plan plan;
  plan.items.reserve(units.size());
  plan.cta_begin.reserve(units.size() + 1);
  plan.cta_begin.push_back(0);
  for (const auto& u : units) {
    plan.items.push_back(WorkItem{u.block_row, u.request, u.kv_head, u.qo_head, 0, u.kv_len, -1});
    plan.cta_begin.push_back(static_cast<int64_t>(plan.items.size()));
  }
  return plan;
}

Plan MakeFixedSplitPlan(const AttentionParams& p, std::span<const WorkUnit> units,
                        const KernelConfig& cfg, int num_ctas, int num_splits,
                        int64_t max_partial_rows) {
  FI_CHECK_GE(num_ctas, 1);
  FI_CHECK_GE(num_splits, 1);
  Plan plan;
  const int64_t tile_kv = std::max(1, cfg.tile_kv);

  // Chunk k runs on CTA k % num_ctas (round-robin in generation order).
  std::vector<WorkItem> chunks;
  chunks.reserve(units.size());
  int32_t next_partial_row = 0;
  for (const auto& u : units) {
    // Split into up to num_splits tile-aligned chunks.
    int64_t chunk_len = (u.kv_len + num_splits - 1) / num_splits;
    chunk_len = std::max<int64_t>(((chunk_len + tile_kv - 1) / tile_kv) * tile_kv, tile_kv);
    const int64_t n_chunks = u.kv_len <= chunk_len ? 1 : (u.kv_len + chunk_len - 1) / chunk_len;
    if (n_chunks == 1) {
      chunks.push_back(WorkItem{u.block_row, u.request, u.kv_head, u.qo_head, 0, u.kv_len, -1});
      continue;
    }
    AppendMergeTasks(p, u, next_partial_row, n_chunks, &plan.rmap);
    for (int64_t k = 0; k < n_chunks; ++k) {
      const int64_t lo = k * chunk_len;
      const int64_t hi = std::min<int64_t>(u.kv_len, lo + chunk_len);
      chunks.push_back(
          WorkItem{u.block_row, u.request, u.kv_head, u.qo_head, lo, hi, next_partial_row});
      next_partial_row += u.rows;
    }
  }
  plan.num_partial_rows = next_partial_row;
  FI_CHECK_LE(plan.num_partial_rows, max_partial_rows);
  LayOutQueues(
      num_ctas, chunks.size(), [&](size_t k) { return static_cast<int>(k % num_ctas); },
      [&](size_t k) { return chunks[k]; }, &plan);
  return plan;
}

gpusim::WorkCost AttentionWorkItemCost(int rows, int64_t kv_tokens, int head_dim, int kv_bytes,
                                       bool has_qk_transform, bool partial_output) {
  gpusim::WorkCost wc;
  const double d = head_dim;
  // Q tile load (fp16 storage width) + K/V chunk load at KV width. The KV
  // bytes are charged once per work item regardless of `rows`: all rows of
  // the tile reuse the staged tile through shared memory — the core reuse
  // effect behind composable formats and head-group fusion.
  wc.hbm_bytes = rows * d * 2.0 + static_cast<double>(kv_tokens) * 2.0 * d * kv_bytes;
  // Output: partial states spill fp32 O + LSE to the workspace; writethrough
  // emits the final fp16 row.
  wc.hbm_bytes += partial_output ? rows * (d + 1.0) * 4.0 : rows * d * 2.0;
  // QK^T and PV matmuls.
  wc.tensor_flops = 4.0 * rows * static_cast<double>(kv_tokens) * d;
  // Online softmax: exp + max/sum updates per logit.
  wc.cuda_flops = 6.0 * rows * static_cast<double>(kv_tokens);
  if (has_qk_transform) {
    // Fused RoPE-style transforms: ~10 flops per element of Q tile and K chunk.
    wc.cuda_flops += 10.0 * d * (rows + static_cast<double>(kv_tokens));
  }
  return wc;
}

gpusim::SimReport PricePlan(const gpusim::DeviceSpec& dev, const AttentionParams& p,
                            const KernelConfig& cfg, const Plan& plan, DType kv_dtype,
                            bool has_qk_transform, double kv_l2_fraction) {
  const int kvb = DTypeBytes(kv_dtype);
  auto eff = EfficiencyModel(dev, cfg, p.head_dim, kvb);
  const auto occ = OccupancyModel(dev, cfg, p.head_dim, kvb);
  const auto shape = ResidencyModel(dev, occ, plan.NumCtas());
  eff.mem *= shape.mem_scale;

  gpusim::SimReport report;
  report.num_ctas = plan.NumCtas();
  report.cta_time_us.reserve(static_cast<size_t>(plan.NumCtas()));
  for (int cta = 0; cta < plan.NumCtas(); ++cta) {
    gpusim::CtaCost cost;
    for (const auto& item : plan.Queue(cta)) {
      const int rows = p.bsr->RowsInBlock(item.block_row);
      const int64_t kv_tokens = item.kv_end - item.kv_begin;
      auto wc = AttentionWorkItemCost(rows, kv_tokens, p.head_dim, kvb, has_qk_transform,
                                      item.dest >= 0);
      if (kv_l2_fraction > 0.0) {
        const double kv_bytes = static_cast<double>(kv_tokens) * 2.0 * p.head_dim * kvb;
        const double to_l2 = kv_bytes * kv_l2_fraction;
        wc.hbm_bytes -= to_l2;
        wc.l2_bytes += to_l2;
      }
      cost.Charge(dev, eff, wc, kvb, shape.slots);
    }
    report.cta_time_us.push_back(cost.time_us);
    report.total_hbm_bytes += cost.total.hbm_bytes;
    report.total_l2_bytes += cost.total.l2_bytes;
    report.total_tensor_flops += cost.total.tensor_flops;
    report.total_cuda_flops += cost.total.cuda_flops;
  }
  report.time_us =
      gpusim::SimExecutor::Makespan(report.cta_time_us, shape.slots) + dev.kernel_launch_us;

  if (!plan.rmap.Empty()) {
    // Contraction kernel: merge tasks strided over min(tasks, #SM) CTAs. Each
    // merge row shares device rates over #SM slots, like an attention
    // launch's #SM x resident, whatever the grid size.
    const int num_tasks = static_cast<int>(plan.rmap.tasks.size());
    const int ctas = std::min(num_tasks, dev.num_sms);
    std::vector<double> merge_times(static_cast<size_t>(ctas), 0.0);
    for (int t = 0; t < num_tasks; ++t) {
      const auto& task = plan.rmap.tasks[static_cast<size_t>(t)];
      gpusim::WorkCost wc;
      // Read `count` partial rows (fp32 O + LSE), write one fp16 row.
      wc.hbm_bytes = static_cast<double>(task.count) * (p.head_dim + 1) * 4.0 +
                     static_cast<double>(p.head_dim) * 2.0;
      wc.cuda_flops = static_cast<double>(task.count) * (2.0 * p.head_dim + 8.0);
      merge_times[static_cast<size_t>(t % ctas)] += gpusim::WorkItemTimeUs(
          dev, eff, wc, kvb, dev.num_sms, gpusim::kMergeRowOverheadUs);
      report.total_hbm_bytes += wc.hbm_bytes;
      report.total_cuda_flops += wc.cuda_flops;
    }
    report.time_us += gpusim::SimExecutor::Makespan(merge_times, dev.num_sms) +
                      dev.kernel_launch_us;
  }
  return report;
}

}  // namespace flashinfer

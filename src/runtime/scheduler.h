// Load-balanced scheduling (Sec. 3.3.1, Algorithm 1).
//
// The scheduler consumes sequence-length information (per query-tile KV
// lengths, already tiled at Tq through the BSR) and produces the plan: the
// work queue of every CTA plus the reduction map between partial and final
// outputs. Long KV rows are split into chunks of at most Lkv tokens
// (Lkv = ceil(total work / #CTA)); chunks are assigned
// longest-processing-time-first onto a min-heap of CTAs. Inspired by
// Stream-K but with deterministic aggregation order instead of atomics:
// identical sequence lengths always produce identical plans and identical
// outputs.
//
// Two baselines used by the evaluation ablations:
//   MakeNaivePlan      — one CTA per (tile, head), no splitting (the
//                        FlashAttention batch kernel's strategy).
//   MakeFixedSplitPlan — FlashDecoding-style fixed split count per tile.
//
// The plan fixes every CTA's work, so a launch's simulated cost is a function
// of the plan alone: PricePlan is the one pricer, called by the executing
// handle after its math runs and by the serving cost model without any math.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/contraction.h"
#include "core/params.h"
#include "gpusim/cost.h"

namespace flashinfer {

/// Work units before chunking: every (block_row, head) pair. Exposed for
/// tests and for the serving cost model.
struct WorkUnit {
  int32_t block_row;
  int32_t request;
  int32_t kv_head;
  int32_t qo_head;  // -1 under head fusion.
  int64_t kv_len;   // Row KV length.
  int rows;         // Fused rows in the tile.
};
std::vector<WorkUnit> EnumerateWorkUnits(const AttentionParams& p);

/// A complete execution plan for one attention launch.
struct Plan {
  /// Every CTA's work queue, stored CTA-major: CTA c runs
  /// items[cta_begin[c], cta_begin[c + 1]) in order (persistent kernel:
  /// grid size == NumCtas()).
  std::vector<WorkItem> items;
  std::vector<int64_t> cta_begin;
  /// Partial->final output mapping for the contraction kernel.
  ReductionMap rmap;
  /// Partial rows required in the workspace.
  int64_t num_partial_rows = 0;
  /// The KV chunk cap used (diagnostic; Algorithm 1 line 3).
  int64_t lkv_chunk = 0;
  /// Scheduling-cost hyperparameters actually applied.
  double alpha = 1.0;
  double beta = 1.0;

  int NumCtas() const noexcept {
    return cta_begin.empty() ? 0 : static_cast<int>(cta_begin.size() - 1);
  }
  int64_t NumWorkItems() const noexcept { return static_cast<int64_t>(items.size()); }
  /// CTA `cta`'s work queue, in execution order.
  std::span<const WorkItem> Queue(int cta) const noexcept {
    const auto c = static_cast<size_t>(cta);
    return {items.data() + cta_begin[c], static_cast<size_t>(cta_begin[c + 1] - cta_begin[c])};
  }
  /// Scheduled cost of the most/least loaded CTA (for balance assertions).
  double MaxCtaCost(int tile_q) const noexcept;
  double MinCtaCost(int tile_q) const noexcept;
};

/// Algorithm 1 over `units` (EnumerateWorkUnits(p)). `num_ctas` is the
/// persistent grid size (k x #SM). Head multiplicity comes from the params
/// (kv heads when fused, qo heads otherwise). `max_partial_rows` bounds
/// workspace usage (checked).
Plan MakeBalancedPlan(const AttentionParams& p, std::span<const WorkUnit> units,
                      const KernelConfig& cfg, int num_ctas, int64_t max_partial_rows,
                      double alpha = 1.0, double beta = 1.0);
/// Same, enumerating the work units itself.
Plan MakeBalancedPlan(const AttentionParams& p, const KernelConfig& cfg, int num_ctas,
                      int64_t max_partial_rows, double alpha = 1.0, double beta = 1.0);

/// Baseline: no KV splitting; CTA i runs work unit i (grid = #units).
Plan MakeNaivePlan(std::span<const WorkUnit> units);

/// Baseline: every work unit's KV is split into exactly `num_splits` chunks
/// (when long enough), round-robin over `num_ctas` CTAs.
Plan MakeFixedSplitPlan(const AttentionParams& p, std::span<const WorkUnit> units,
                        const KernelConfig& cfg, int num_ctas, int num_splits,
                        int64_t max_partial_rows);

/// Fraction of the launch's KV reads served by L2 rather than HBM due to
/// intra-batch reuse: every query tile of a request re-reads the request's
/// KV, but only the first read per (request, head) misses to HBM. Decode
/// (one tile per request) returns 0; long prefill approaches
/// 1 - 1/num_tiles. Fed into PricePlan's `kv_l2_fraction`. `units` is
/// EnumerateWorkUnits(p).
double IntraBatchKvReuseFraction(const AttentionParams& p, std::span<const WorkUnit> units);

/// Byte/flop charges for one attention work item: a tile of `rows` fused
/// query rows against `kv_tokens` KV tokens.
gpusim::WorkCost AttentionWorkItemCost(int rows, int64_t kv_tokens, int head_dim, int kv_bytes,
                                       bool has_qk_transform, bool partial_output);

/// Prices the launch of `plan` on `dev` without executing it: every CTA
/// queue is charged the per-item roofline cost and list-scheduled onto the
/// launch's slots, then the contraction kernel's merge rows (when the plan
/// splits KV) are charged over a persistent grid of min(tasks, #SM) CTAs.
/// `has_qk_transform` is the kernel variant's flag (in-kernel RoPE-style
/// transforms); `kv_l2_fraction` of the KV traffic is served from L2.
gpusim::SimReport PricePlan(const gpusim::DeviceSpec& dev, const AttentionParams& p,
                            const KernelConfig& cfg, const Plan& plan, DType kv_dtype,
                            bool has_qk_transform, double kv_l2_fraction = 0.0);

}  // namespace flashinfer

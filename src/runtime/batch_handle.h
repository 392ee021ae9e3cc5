// BatchAttentionHandle — the engine's user-facing wrapper, mirroring the
// paper's PyTorch AttentionWrapper (Listing 1) and its Inspector-Executor
// split:
//
//   handle.Plan(bsr, qo_indptr, kv_len);   // CPU: scheduler -> plan cache
//   handle.Run(q, kv, &o);                 // GPU: persistent attention +
//                                          //      contraction kernels
//
// Run executes the math on the thread pool and returns PricePlan's price of
// the cached plan — the same function the serving cost model calls.
//
// Kernels are resolved at construction ("init time JIT") from the built-in
// registry or injected from the JIT compiler; plans are cached by sequence-
// length signature so all layers of one generation step reuse one plan; Run
// is CUDA-graph-capturable because every launch reads its mutable state from
// fixed workspace addresses.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/kernel_dispatch.h"
#include "gpusim/graph.h"
#include "runtime/scheduler.h"
#include "runtime/workspace.h"

namespace flashinfer {

/// Scheduling policy (ablation knob for Tables 6-7).
enum class SchedulerKind : uint8_t {
  kBalanced,    // Algorithm 1.
  kNaive,       // One CTA per work unit, no splitting.
  kFixedSplit,  // FlashDecoding-style constant split count.
};

class BatchAttentionHandle {
 public:
  /// Compile-time task information (Fig. 1 "task information" input).
  struct TaskInfo {
    VariantKind variant = VariantKind::kVanilla;
    DType kv_dtype = DType::kF16;
    int num_qo_heads = 32;
    int num_kv_heads = 32;
    int head_dim = 128;
    bool head_fusion = true;
    bool sparse = true;
    /// Average fused query rows per tile, used for tile-size selection at
    /// init time (decode: group size; prefill: typical chunk length x group).
    double avg_qlen_hint = 1.0;
    SchedulerKind scheduler = SchedulerKind::kBalanced;
    int fixed_splits = 4;
  };

  BatchAttentionHandle(gpusim::DeviceSpec dev, TaskInfo info, Workspace* workspace);

  /// Injects a JIT-compiled kernel (overrides the built-in for `variant`);
  /// the flags are the kernel variant's (priced by Run).
  void SetKernel(WorkItemFn fn, bool use_softmax, bool has_qk_transform = false);

  /// Variant runtime parameters (scale, soft cap, window, ...).
  VariantParams& MutableVariantParams() noexcept { return variant_params_; }

  const KernelConfig& config() const noexcept { return cfg_; }
  const gpusim::DeviceSpec& device() const noexcept { return dev_; }
  int NumCtas() const noexcept { return num_ctas_; }

  /// Cross-CTA L2 reuse fraction for KV traffic (bench knob; composed with
  /// the plan's intra-batch reuse into PricePlan's `kv_l2_fraction`).
  void SetKvL2Fraction(double f) noexcept { kv_l2_fraction_ = f; }

  /// Inspector: runs the scheduler on this step's sequence-length
  /// information. Cached: planning with an identical signature is a no-op.
  /// The BSR must stay alive until the next Plan.
  void Plan(const sparse::BsrMatrix* bsr, std::vector<int64_t> qo_indptr,
            std::vector<int64_t> kv_len);

  /// Executor: runs the persistent attention kernel over the cached plan,
  /// then the contraction kernel. Returns PricePlan's report for the plan.
  gpusim::SimReport Run(const RaggedTensor& q, const PagedKVCache& kv, RaggedTensor* o,
                        std::vector<float>* lse = nullptr);

  /// Captures a Run call into `graph` under `slot`, freezing the argument
  /// pointers (q/kv/o/workspace). Subsequent Plan() calls only rewrite
  /// workspace contents, so Replay stays valid.
  void CaptureRun(gpusim::CudaGraph& graph, const std::string& slot, const RaggedTensor& q,
                  const PagedKVCache& kv, RaggedTensor* o, std::vector<float>* lse = nullptr);

  const ::flashinfer::Plan& plan() const {
    FI_CHECK(plan_.has_value());
    return *plan_;
  }
  int64_t plan_cache_hits() const noexcept { return plan_cache_hits_; }
  /// Planning (inspector) CPU time of the last non-cached Plan call, us.
  double last_plan_cpu_us() const noexcept { return last_plan_cpu_us_; }

 private:
  gpusim::DeviceSpec dev_;
  TaskInfo info_;
  Workspace* workspace_;
  KernelConfig cfg_;
  WorkItemFn kernel_;
  bool use_softmax_ = true;
  bool has_qk_transform_ = false;
  VariantParams variant_params_;
  int num_ctas_ = 1;
  double kv_l2_fraction_ = 0.0;
  double auto_l2_fraction_ = 0.0;  // Intra-batch tile reuse, set by Plan().

  std::optional<::flashinfer::Plan> plan_;
  const sparse::BsrMatrix* bsr_ = nullptr;
  std::vector<int64_t> qo_indptr_;
  std::vector<int64_t> kv_len_;
  uint64_t plan_signature_ = 0;
  int64_t plan_cache_hits_ = 0;
  double last_plan_cpu_us_ = 0.0;
};

}  // namespace flashinfer

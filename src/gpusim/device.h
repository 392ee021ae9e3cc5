// GPU execution model used in place of real CUDA hardware.
//
// The paper's evaluation quantities (bandwidth utilisation, FLOPs
// utilisation, kernel latency, ITL/TTFT) are all functions of (a) how work is
// distributed over SMs and (b) how many bytes/flops each work item moves.
// `DeviceSpec` captures the machine constants of the two GPUs the paper uses;
// the pricer (PricePlan, runtime/scheduler.h) charges each simulated CTA a
// roofline time per work item, and executor.h computes the kernel makespan
// with the same greedy CTA dispatch real GPUs use.
#pragma once

namespace flashinfer::gpusim {

/// Which FlashAttention template generation a kernel uses (Sec. 3.2):
/// FA2 = Ampere-style cp.async pipeline (sm80..sm89), FA3 = Hopper
/// warp-specialized + TMA (sm90a). The generation affects achievable
/// efficiency, not correctness.
enum class TemplateGen {
  kFA2,
  kFA3,
};

/// Machine constants for a simulated device.
struct DeviceSpec {
  /// Display name; must outlive the spec (the built-in specs use literals).
  const char* name = "";
  int num_sms = 108;
  /// Peak HBM bandwidth, GB/s.
  double hbm_gbps = 1555.0;
  /// Aggregate L2 bandwidth, GB/s (serves reuse hits that miss SMEM).
  double l2_gbps = 6000.0;
  /// Dense fp16 tensor-core peak, TFLOP/s.
  double fp16_tflops = 312.0;
  /// CUDA-core fp32 peak, TFLOP/s (softmax/exponential path).
  double fp32_tflops = 19.5;
  /// Shared memory per SM, KiB.
  int smem_per_sm_kb = 164;
  /// 32-bit registers per SM.
  int regs_per_sm = 65536;
  /// Fixed kernel-launch latency, microseconds.
  double kernel_launch_us = 3.0;
  /// Per-work-item scheduling/pipeline-fill overhead, microseconds.
  double work_item_overhead_us = 0.6;
  /// Whether the Tensor Memory Accelerator is available (Hopper only).
  bool has_tma = false;
  /// Highest template generation this architecture supports.
  TemplateGen max_template = TemplateGen::kFA2;

  /// Peak tensor-core throughput for a storage dtype of `bytes_per_elem`
  /// bytes (fp8 doubles fp16 throughput on Hopper, matches fp16 elsewhere).
  double TensorTflops(int bytes_per_elem) const noexcept {
    if (bytes_per_elem <= 1 && has_tma) return fp16_tflops * 2.0;
    return fp16_tflops;
  }
};

/// NVIDIA H100 SXM 80GB (sm90a): 132 SMs, 3.35 TB/s HBM3, 989 TFLOP/s fp16.
DeviceSpec H100Sxm80GB();

/// NVIDIA A100 SXM 40GB (sm80): 108 SMs, 1.555 TB/s HBM2e, 312 TFLOP/s fp16.
DeviceSpec A100Sxm40GB();

}  // namespace flashinfer::gpusim

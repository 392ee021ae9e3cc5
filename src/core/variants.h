// Built-in attention variants (Sec. 3.2.3 & Sec. 6 design-space examples).
//
// Each is a small struct of inline hooks; the micro-kernel specializes per
// variant at compile time, exactly as FlashInfer's JIT specializes its CUDA
// template per variant spec.
#pragma once

#include "core/variant.h"

namespace flashinfer {

/// Vanilla softmax attention (masking still honors VariantParams::causal).
using VanillaVariant = VariantBase;

/// Logits soft-capping (Gemma-2 / Grok-1): s -> cap * tanh(s / cap).
struct SoftCapVariant : VariantBase {
  static const char* Name() { return "SoftCap"; }
  float LogitsTransform(const VariantParams& p, float logit, const LogitsCtx& /*ctx*/) const {
    const float s = logit * p.sm_scale;
    if (p.logits_soft_cap <= 0.0f) return s;
    return p.logits_soft_cap * std::tanh(s / p.logits_soft_cap);
  }
};

/// ALiBi (Press et al. 2022): adds a per-head linear distance bias.
struct AlibiVariant : VariantBase {
  static const char* Name() { return "ALiBi"; }
  static float Slope(int head, int num_heads) noexcept {
    return std::exp2(-8.0f * static_cast<float>(head + 1) / static_cast<float>(num_heads));
  }
  float LogitsTransform(const VariantParams& p, float logit, const LogitsCtx& ctx) const {
    const float slope = Slope(ctx.qo_head, p.num_qo_heads) *
                        (p.alibi_scale > 0.0f ? p.alibi_scale : 1.0f);
    return logit * p.sm_scale +
           slope * static_cast<float>(ctx.kv_pos - ctx.q_pos);
  }
};

/// Sliding-window attention (Longformer/Mistral): only the last
/// `window_left` tokens are visible; uses DefaultMask via VariantParams.
struct SlidingWindowVariant : VariantBase {
  static const char* Name() { return "SlidingWindow"; }
};

/// StreamingLLM (Xiao et al. 2023): attention sinks + recent window. The
/// cache-position convention follows the paper: positions are assigned
/// within the rolling cache, which our kernel receives through BSR
/// block_pos, so no extra hook logic is needed beyond the mask.
struct StreamingLlmVariant : VariantBase {
  static const char* Name() { return "StreamingLLM"; }
};

/// FlashSigmoid (Ramapuram et al. 2024): sigmoid attention, no softmax.
/// Partial outputs compose by plain summation (the ⊕ degenerate case).
struct SigmoidVariant : VariantBase {
  static constexpr bool kUseSoftmax = false;
  static const char* Name() { return "FlashSigmoid"; }
  float LogitsTransform(const VariantParams& p, float logit, const LogitsCtx& /*ctx*/) const {
    const float s = logit * p.sm_scale * p.sigmoid_scale + p.sigmoid_bias;
    return 1.0f / (1.0f + std::exp(-s));
  }
};

/// Fused-RoPE attention (Sec. 4.3): rotary embedding applied to Q and K
/// inside the attention kernel, so un-roped KV can live in the cache and no
/// separate RoPE kernel pass is needed.
struct FusedRopeVariant : VariantBase {
  static constexpr bool kHasQKTransform = true;
  static const char* Name() { return "FusedRoPE"; }
  void QueryTransform(const VariantParams& p, std::span<float> q, int64_t q_pos,
                      int /*qo_head*/) const {
    ApplyRope(q, q_pos, p.rope_theta);
  }
  void KeyTransform(const VariantParams& p, std::span<float> k, int64_t kv_pos,
                    int /*kv_head*/) const {
    ApplyRope(k, kv_pos, p.rope_theta);
  }
};

/// Runtime tags for type-erased kernel dispatch (kernel_dispatch.h) and for
/// the JIT registry of precompiled built-ins.
enum class VariantKind : uint8_t {
  kVanilla,
  kSoftCap,
  kAlibi,
  kSlidingWindow,
  kStreamingLlm,
  kSigmoid,
  kFusedRope,
};

inline const char* VariantKindName(VariantKind k) noexcept {
  switch (k) {
    case VariantKind::kVanilla:
      return "Vanilla";
    case VariantKind::kSoftCap:
      return "SoftCap";
    case VariantKind::kAlibi:
      return "ALiBi";
    case VariantKind::kSlidingWindow:
      return "SlidingWindow";
    case VariantKind::kStreamingLlm:
      return "StreamingLLM";
    case VariantKind::kSigmoid:
      return "FlashSigmoid";
    case VariantKind::kFusedRope:
      return "FusedRoPE";
  }
  return "?";
}

}  // namespace flashinfer

// Attention-variant customization points (Sec. 3.2.3, Fig. 5).
//
// A variant is a struct with five functors mirroring FlashInfer's template
// hooks — QueryTransform / KeyTransform / LogitsTransform / LogitsMask /
// OutputTransform — plus a compile-time `kUseSoftmax` switch. The micro-kernel
// is templated on the variant, so the hooks inline to nothing for variants
// that don't use them (this is the "compiled" path; jit/interpreted.h
// provides the std::function-based path used as the FlexAttention-like
// baseline). The template design space is the paper's
//   f_epilogue(scan(f_logits(f_q(Q)·f_k(K))) · f_v(V)).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

namespace flashinfer {

/// Runtime parameters shared by all variants. Generated (JIT) variants read
/// additional scalars from `extra` — the analog of the paper's "additional
/// vars" copied from CUDA constant memory (Fig. 5, Part 1).
struct VariantParams {
  /// Softmax scale applied to q·k (usually 1/sqrt(head_dim)).
  float sm_scale = 1.0f;
  /// Causal masking toggle (honored by DefaultMask).
  bool causal = false;
  /// Logits soft-cap (Gemma-2/Grok style): cap*tanh(s/cap); 0 disables.
  float logits_soft_cap = 0.0f;
  /// ALiBi slope base; per-head slope is 2^(-8*(h+1)/H) scaled by this. 0 disables.
  float alibi_scale = 0.0f;
  /// Sliding-window width (tokens of left context kept); <0 disables.
  int64_t window_left = -1;
  /// StreamingLLM attention sinks: first `num_sink_tokens` always visible.
  int64_t num_sink_tokens = 0;
  /// FlashSigmoid parameters (used when the variant disables softmax).
  float sigmoid_scale = 1.0f;
  float sigmoid_bias = 0.0f;
  /// RoPE rotary base for fused-RoPE variants.
  float rope_theta = 10000.0f;
  /// Total number of query heads (for ALiBi slope computation).
  int num_qo_heads = 1;
  /// Extra scalars for JIT-generated variants.
  const float* extra = nullptr;
  int num_extra = 0;
};

/// Everything a logits hook may condition on.
struct LogitsCtx {
  int64_t q_pos = 0;   // Logical position of the query token in its sequence.
  int64_t kv_pos = 0;  // Logical position of the key/value token.
  int qo_head = 0;
  int kv_head = 0;
  int64_t qo_len = 0;  // Request's query length.
  int64_t kv_len = 0;  // Request's KV length.
  int request = 0;
};

/// Causal + sliding-window + sink masking shared by the built-in variants.
/// Variants that need a custom mask override LogitsMask entirely.
inline bool DefaultMask(const VariantParams& p, const LogitsCtx& ctx) noexcept {
  if (p.causal && ctx.kv_pos > ctx.q_pos) return false;
  if (p.window_left >= 0 && ctx.kv_pos < ctx.q_pos - p.window_left) {
    // Outside the recent window: only visible if it is a sink token.
    return ctx.kv_pos < p.num_sink_tokens;
  }
  return true;
}

/// Base variant: vanilla softmax attention with optional causal masking.
/// All built-in variants derive from this and override what they need; the
/// micro-kernel requires only that the members exist (duck typing through
/// the template), so user variants need not inherit.
struct VariantBase {
  static constexpr bool kUseSoftmax = true;
  /// Whether QueryTransform/KeyTransform are non-trivial (lets the kernel
  /// skip the transform loop and its simulated cost entirely).
  static constexpr bool kHasQKTransform = false;

  static const char* Name() { return "Vanilla"; }

  float LogitsTransform(const VariantParams& p, float logit, const LogitsCtx& /*ctx*/) const {
    return logit * p.sm_scale;
  }
  bool LogitsMask(const VariantParams& p, const LogitsCtx& ctx) const {
    return DefaultMask(p, ctx);
  }
  void QueryTransform(const VariantParams& /*p*/, std::span<float> /*q*/, int64_t /*q_pos*/,
                      int /*qo_head*/) const {}
  void KeyTransform(const VariantParams& /*p*/, std::span<float> /*k*/, int64_t /*kv_pos*/,
                    int /*kv_head*/) const {}
  void OutputTransform(const VariantParams& /*p*/, std::span<float> /*o*/, int64_t /*q_pos*/,
                       int /*qo_head*/) const {}
};

/// Applies rotary position embedding in-place (interleaved pairs layout).
inline void ApplyRope(std::span<float> vec, int64_t pos, float theta) noexcept {
  const int d = static_cast<int>(vec.size());
  const int half = d / 2;
  for (int i = 0; i < half; ++i) {
    const float freq = std::pow(theta, -2.0f * static_cast<float>(i) / static_cast<float>(d));
    const float angle = static_cast<float>(pos) * freq;
    const float c = std::cos(angle);
    const float s = std::sin(angle);
    const float x = vec[static_cast<size_t>(i)];
    const float y = vec[static_cast<size_t>(i + half)];
    vec[static_cast<size_t>(i)] = x * c - y * s;
    vec[static_cast<size_t>(i + half)] = x * s + y * c;
  }
}

}  // namespace flashinfer

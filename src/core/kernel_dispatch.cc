#include "core/kernel_dispatch.h"

#include "core/microkernel.h"

namespace flashinfer {

namespace {

template <typename Variant>
WorkItemFn SelectForDtype(DType kv_dtype) {
  switch (kv_dtype) {
    case DType::kF32:
      return &RunWorkItem<float, Variant>;
    case DType::kF16:
      return &RunWorkItem<half_t, Variant>;
    case DType::kBF16:
      return &RunWorkItem<bf16_t, Variant>;
    case DType::kFP8_E4M3:
      return &RunWorkItem<fp8_e4m3_t, Variant>;
    case DType::kFP8_E5M2:
      return &RunWorkItem<fp8_e5m2_t, Variant>;
  }
  FI_CHECK(false);
  return nullptr;
}

/// Calls `fn` with a value of the built-in variant type named by `kind`.
template <typename Fn>
auto VisitVariant(VariantKind kind, Fn&& fn) {
  switch (kind) {
    case VariantKind::kVanilla:
      return fn(VanillaVariant{});
    case VariantKind::kSoftCap:
      return fn(SoftCapVariant{});
    case VariantKind::kAlibi:
      return fn(AlibiVariant{});
    case VariantKind::kSlidingWindow:
      return fn(SlidingWindowVariant{});
    case VariantKind::kStreamingLlm:
      return fn(StreamingLlmVariant{});
    case VariantKind::kSigmoid:
      return fn(SigmoidVariant{});
    case VariantKind::kFusedRope:
      return fn(FusedRopeVariant{});
  }
  FI_CHECK(false);
  return fn(VanillaVariant{});
}

}  // namespace

WorkItemFn GetBuiltinKernel(VariantKind kind, DType kv_dtype) {
  return VisitVariant(kind, [kv_dtype](auto v) { return SelectForDtype<decltype(v)>(kv_dtype); });
}

bool BuiltinHasQKTransform(VariantKind kind) {
  return VisitVariant(kind, [](auto v) { return decltype(v)::kHasQKTransform; });
}

}  // namespace flashinfer

// C++ source generation for attention variants (the template-population step
// of Fig. 5). The emitted translation unit defines the variant struct,
// instantiates the shared micro-kernel template for the spec's KV dtype, and
// exports the type-erased `extern "C"` entry point used by the runtime.
#pragma once

#include <string>

#include "jit/spec.h"

namespace flashinfer::jit {

/// Symbol exported by every generated kernel.
inline constexpr const char* kEntrySymbol = "fi_variant_run";
/// Symbol exporting the spec flags for load-time checks: bit 0 is
/// use_softmax, bit 1 has_qk_transform.
inline constexpr const char* kFlagsSymbol = "fi_variant_flags";

/// Renders the full C++ source for `spec`.
std::string GenerateSource(const AttentionSpecDesc& spec);

}  // namespace flashinfer::jit

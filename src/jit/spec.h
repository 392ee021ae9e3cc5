// Attention variant specification (Sec. 3.2.3, Fig. 5).
//
// Users describe a variant as C++ code fragments for each functor plus a
// list of additional scalar parameters; the JIT pipeline (codegen.h +
// compiler.h) turns the spec into a compiled kernel with the standard
// type-erased entry point. This mirrors FlashInfer's Python AttentionSpec:
// the spec carries the dtypes and head_dim because the kernel is fully
// specialized per configuration.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/float_types.h"

namespace flashinfer::jit {

struct AttentionSpecDesc {
  /// Variant name (also the generated struct name; must be a C++ identifier).
  std::string name = "Custom";
  DType kv_dtype = DType::kF16;
  bool use_softmax = true;
  bool has_qk_transform = false;

  /// Functor bodies. Empty string = inherit the VariantBase behaviour.
  /// Available symbols in each body:
  ///   logits_transform: `p` (VariantParams), `logit`, `ctx` -> return float;
  ///   logits_mask:      `p`, `ctx`                          -> return bool;
  ///   query_transform:  `p`, `q` (std::span<float>), `q_pos`, `qo_head`;
  ///   key_transform:    `p`, `k`, `kv_pos`, `kv_head`;
  ///   output_transform: `p`, `o`, `q_pos`, `qo_head`.
  /// Additional params are bound as `const float <name>` locals.
  std::string logits_transform_body;
  std::string logits_mask_body;
  std::string query_transform_body;
  std::string key_transform_body;
  std::string output_transform_body;

  /// Additional scalar parameters: (name, default). At run time their values
  /// come from VariantParams::extra in declaration order (the analog of
  /// Fig. 5's generated Params fields).
  std::vector<std::pair<std::string, float>> extra_params;

  /// Extra code pasted before the variant struct (helpers, constants).
  std::string preamble;
};

/// Validates identifier rules and body sanity; aborts with a message on
/// invalid specs (compile errors should name the spec, not g++ internals).
void ValidateSpec(const AttentionSpecDesc& spec);

}  // namespace flashinfer::jit

// Type-erased kernel entry points.
//
// Both the precompiled built-in variants and JIT-generated variants expose
// the same calling convention, so the runtime (plan/run wrappers, CUDA-graph
// capture) treats them interchangeably — the analog of FlashInfer registering
// every generated kernel as a torch custom op with a fixed signature.
#pragma once

#include "core/params.h"
#include "core/variants.h"
#include "util/float_types.h"

namespace flashinfer {

/// Executes one attention work item (math only; PricePlan prices the launch).
using WorkItemFn = void (*)(const AttentionParams&, const KernelConfig&, const WorkItem&,
                            const PartialSink&);

/// Returns the precompiled kernel for (variant, kv dtype). Aborts on an
/// unsupported dtype (mirrors FlashInfer's dispatch-time checks).
WorkItemFn GetBuiltinKernel(VariantKind kind, DType kv_dtype);

/// The built-in variant's `kHasQKTransform`: whether its kernel transforms Q
/// and K in place (priced as extra CUDA-core work).
bool BuiltinHasQKTransform(VariantKind kind);

}  // namespace flashinfer

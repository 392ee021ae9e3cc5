// Kernel parameter block (the analog of Fig. 5's generated Params struct)
// plus the work-item and partial-output plumbing shared by the attention and
// contraction kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "core/variant.h"
#include "gpusim/device.h"
#include "kvcache/paged.h"
#include "kvcache/ragged.h"
#include "sparse/bsr.h"

namespace flashinfer {

/// Compile-time-resolved kernel configuration (Sec. 3.2.2): tile sizes,
/// template generation and storage path. Br of the BSR must equal tile_q.
struct KernelConfig {
  /// Query tile size Tq, in fused rows. One of {1, 16, 32, 64, 128}.
  int tile_q = 16;
  /// KV tile size. One of {32, 64, 128}.
  int tile_kv = 64;
  /// FA2 (Turing..Ada) or FA3 (Hopper) template generation.
  gpusim::TemplateGen tmpl = gpusim::TemplateGen::kFA2;
  /// Sparse-gather path (paged/BSR KV) vs contiguous dense KV.
  bool sparse = true;
  /// GQA head-group fusion (Appendix A). When off, each qo head is scheduled
  /// separately and reloads its KV head's data.
  bool head_fusion = true;
};

/// Batch attention parameters. Queries/outputs are ragged fp32 tensors (fp32
/// holds the math; memory traffic is charged at fp16 width, the paper's
/// storage precision); KV lives in the paged cache at its own dtype.
struct AttentionParams {
  const RaggedTensor* q = nullptr;  // [tokens, H_qo*D]
  RaggedTensor* o = nullptr;        // [tokens, H_qo*D]
  std::vector<float>* lse = nullptr;  // Optional, [tokens*H_qo].
  const PagedKVCache* kv = nullptr;
  const sparse::BsrMatrix* bsr = nullptr;  // Fused-row space.
  /// Token-row extents per request.
  std::vector<int64_t> qo_indptr;
  /// Per-request total KV length (defines causal alignment: the last query
  /// token attends to the full KV).
  std::vector<int64_t> kv_len;
  int num_qo_heads = 1;
  int num_kv_heads = 1;
  int head_dim = 64;
  /// Matches KernelConfig::head_fusion; affects the fused-row mapping.
  bool head_fusion = true;
  VariantParams variant;

  int GroupSize() const noexcept { return num_qo_heads / num_kv_heads; }
  /// Fused rows ahead of request r's first row.
  int64_t FusedBegin(int request) const noexcept {
    const int64_t g = head_fusion ? GroupSize() : 1;
    return qo_indptr[static_cast<size_t>(request)] * g;
  }
  int64_t QoLen(int request) const noexcept {
    return qo_indptr[static_cast<size_t>(request) + 1] -
           qo_indptr[static_cast<size_t>(request)];
  }
};

/// One unit of kernel work: a (query tile, KV chunk) pair (Sec. 3.3.1).
struct WorkItem {
  int32_t block_row = 0;  // BSR block row (query tile).
  int32_t request = 0;    // Request owning the tile.
  int32_t kv_head = 0;
  /// Target qo head when head fusion is off; -1 when fused.
  int32_t qo_head = -1;
  /// Chunk bounds in the row's valid-KV coordinate [0, RowKvLen(block_row)).
  int64_t kv_begin = 0;
  int64_t kv_end = 0;
  /// Partial-output base row in the workspace, or -1 for writethrough
  /// (Appendix D.2: unsplit requests write the final output directly).
  int32_t dest = -1;
};

/// Destination buffers for split-KV partial states.
struct PartialSink {
  float* o = nullptr;    // [num_partial_rows, head_dim]
  float* lse = nullptr;  // [num_partial_rows]
};

}  // namespace flashinfer

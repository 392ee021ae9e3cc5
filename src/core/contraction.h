// Contraction kernel (Sec. 3.3): merges split-KV partial attention states
// into final outputs with the ⊕ operator, in the deterministic order recorded
// by the scheduler's reduction map. LLM serving requires deterministic
// outputs, so unlike Stream-K there is no atomic aggregation — the merge
// order is a pure function of the sequence-length information.
#pragma once

#include <cstdint>
#include <vector>

#include "core/params.h"

namespace flashinfer {

/// Mapping from partial rows to final output rows, produced by the runtime
/// scheduler (Fig. 6: "Reduction Map").
struct ReductionMap {
  struct Task {
    int64_t token_row = 0;
    int32_t qo_head = 0;
    /// Extent into `slots`: the partial rows to fold, in merge order.
    int32_t begin = 0;
    int32_t count = 0;
  };
  std::vector<Task> tasks;
  std::vector<int32_t> slots;

  bool Empty() const noexcept { return tasks.empty(); }
};

/// Executes the contraction kernel: for every task, left-folds its partial
/// (O, LSE) rows with ⊕ (plain summation when `use_softmax` is false) and
/// writes the final output row. Tasks fan out over the global thread pool;
/// each writes a distinct output row.
void RunContraction(const AttentionParams& p, const ReductionMap& rmap,
                    const PartialSink& partials, bool use_softmax);

}  // namespace flashinfer

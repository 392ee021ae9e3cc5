#include "core/contraction.h"

#include <cmath>
#include <limits>

#include "core/attention_state.h"
#include "util/threadpool.h"

namespace flashinfer {

namespace {

void MergeOneTask(const AttentionParams& p, const ReductionMap& rmap,
                  const ReductionMap::Task& task, const PartialSink& partials,
                  bool use_softmax) {
  const int d = p.head_dim;
  float* out = p.o->Row(task.token_row).data() + static_cast<int64_t>(task.qo_head) * d;
  if (use_softmax) {
    // The task owns its output row, so the ⊕ fold accumulates in place there.
    for (int dd = 0; dd < d; ++dd) out[dd] = 0.0f;
    float lse_acc = -std::numeric_limits<float>::infinity();
    for (int32_t i = 0; i < task.count; ++i) {
      const int32_t slot = rmap.slots[static_cast<size_t>(task.begin + i)];
      const float* o = partials.o + static_cast<int64_t>(slot) * d;
      MergeStateInPlace({out, static_cast<size_t>(d)}, lse_acc, {o, static_cast<size_t>(d)},
                        partials.lse[slot]);
    }
    if (p.lse != nullptr) {
      (*p.lse)[static_cast<size_t>(task.token_row) * p.num_qo_heads + task.qo_head] = lse_acc;
    }
  } else {
    // No-softmax variants compose by summation.
    for (int dd = 0; dd < d; ++dd) out[dd] = 0.0f;
    for (int32_t i = 0; i < task.count; ++i) {
      const int32_t slot = rmap.slots[static_cast<size_t>(task.begin + i)];
      const float* o = partials.o + static_cast<int64_t>(slot) * d;
      for (int dd = 0; dd < d; ++dd) out[dd] += o[dd];
    }
  }
}

}  // namespace

void RunContraction(const AttentionParams& p, const ReductionMap& rmap,
                    const PartialSink& partials, bool use_softmax) {
  ThreadPool::Global().ParallelFor(static_cast<int64_t>(rmap.tasks.size()), [&](int64_t t) {
    MergeOneTask(p, rmap, rmap.tasks[static_cast<size_t>(t)], partials, use_softmax);
  });
}

}  // namespace flashinfer

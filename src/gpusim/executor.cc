#include "gpusim/executor.h"

#include <functional>
#include <queue>

namespace flashinfer::gpusim {

double SimExecutor::Makespan(const std::vector<double>& cta_times, int slots) noexcept {
  if (cta_times.empty()) return 0.0;
  if (slots < 1) slots = 1;
  double makespan = 0.0;
  if (cta_times.size() <= static_cast<size_t>(slots)) {
    // One wave: every CTA starts at 0 on its own slot.
    for (double t : cta_times) {
      if (t > makespan) makespan = t;
    }
    return makespan;
  }
  // Min-heap of slot-free times; CTAs issue in grid order (hardware order).
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at(
      std::greater<>{}, std::vector<double>(static_cast<size_t>(slots), 0.0));
  for (double t : cta_times) {
    const double start = free_at.top();
    free_at.pop();
    const double end = start + t;
    free_at.push(end);
    if (end > makespan) makespan = end;
  }
  return makespan;
}

}  // namespace flashinfer::gpusim

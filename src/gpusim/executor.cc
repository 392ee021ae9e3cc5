#include "gpusim/executor.h"

#include <queue>

#include "util/check.h"
#include "util/threadpool.h"

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

SimReport SimExecutor::Launch(int num_ctas, const Occupancy& occ,
                              const std::function<void(int, CtaCost&)>& body) const {
  FI_CHECK_GE(num_ctas, 0);
  SimReport report;
  report.num_ctas = num_ctas;
  if (num_ctas == 0) {
    report.time_us = dev_.kernel_launch_us;
    return report;
  }

  std::vector<CtaCost> costs(static_cast<size_t>(num_ctas));
  ThreadPool::Global().ParallelFor(num_ctas, [&](int64_t cta) {
    body(static_cast<int>(cta), costs[static_cast<size_t>(cta)]);
  });

  report.cta_time_us.reserve(costs.size());
  for (const auto& c : costs) {
    report.cta_time_us.push_back(c.time_us);
    report.total_hbm_bytes += c.total.hbm_bytes;
    report.total_l2_bytes += c.total.l2_bytes;
    report.total_tensor_flops += c.total.tensor_flops;
    report.total_cuda_flops += c.total.cuda_flops;
  }
  const int slots = dev_.num_sms * std::max(1, occ.ctas_per_sm);
  report.time_us = Makespan(report.cta_time_us, slots) + dev_.kernel_launch_us;
  return report;
}

}  // namespace flashinfer::gpusim

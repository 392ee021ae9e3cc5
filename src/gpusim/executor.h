// Simulated kernel launch timing.
//
// A kernel launch is a grid of CTAs, each priced by the plan-only pricer
// (PricePlan, runtime/scheduler.h). The makespan comes from greedy list
// scheduling: CTAs are issued in grid order to the SM slot that frees
// earliest — the same policy hardware uses — which reproduces wave
// quantization for oversubscribed grids and straggler effects for persistent
// grids.
#pragma once

#include <vector>

namespace flashinfer::gpusim {

/// Occupancy: how many CTAs of this kernel fit per SM (register/SMEM bound).
struct Occupancy {
  int ctas_per_sm = 1;
};

struct SimExecutor {
  /// Computes the makespan of issuing `cta_times` (us, nonnegative) in order
  /// onto `slots` concurrent execution slots (greedy list scheduling).
  static double Makespan(const std::vector<double>& cta_times, int slots) noexcept;
};

}  // namespace flashinfer::gpusim

// Simulated kernel execution.
//
// A kernel launch is a grid of CTAs; each CTA runs a user callback that
// performs the real (CPU) computation for its work queue and charges
// simulated cost to its CtaCost. The executor runs CTAs on a thread pool and
// then computes the kernel makespan with greedy list scheduling: CTAs are
// issued in grid order to the SM slot that frees earliest — the same policy
// hardware uses — which reproduces wave quantization for oversubscribed
// grids and straggler effects for persistent grids.
#pragma once

#include <functional>

#include "gpusim/cost.h"
#include "gpusim/device.h"

namespace flashinfer::gpusim {

/// Occupancy: how many CTAs of this kernel fit per SM (register/SMEM bound).
struct Occupancy {
  int ctas_per_sm = 1;
};

class SimExecutor {
 public:
  explicit SimExecutor(DeviceSpec dev) : dev_(std::move(dev)) {}

  const DeviceSpec& device() const noexcept { return dev_; }

  /// Launches a simulated kernel with `num_ctas` CTAs. `body(cta, cost)` must
  /// perform the CTA's work and charge its cost. Returns the launch report.
  /// Thread-safety: bodies run concurrently; each CTA must touch disjoint
  /// output state (guaranteed by plan construction).
  SimReport Launch(int num_ctas, const Occupancy& occ,
                   const std::function<void(int, CtaCost&)>& body) const;

  /// Computes the makespan of issuing `cta_times` (us, nonnegative) in order
  /// onto `slots` concurrent execution slots (greedy list scheduling).
  static double Makespan(const std::vector<double>& cta_times, int slots) noexcept;

 private:
  DeviceSpec dev_;
};

}  // namespace flashinfer::gpusim

// Shared pieces of the repository benchmark: command-line arguments, the
// host clock, the benchmark's own layer spans, percentile helpers, and the
// metric report that ends every run with one JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for run-private files: the cold JIT
  /// cache and the span dump.
  std::string scratch_dir = ".bench_build/run";
};

/// Linear-interpolated percentile (p in [0, 1]); 0 for an empty sample.
double Pct(std::vector<double> v, double p);
double MeanOf(const std::vector<double>& v);

/// One span the benchmark records around a call it makes into a layer:
/// host-clock start/end, the span that caused it, and a request id where one
/// applies. Spans stay in memory and are written out once at the end.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  int64_t req = -1;
};

class SpanLog {
 public:
  SpanLog();
  int Begin(const std::string& name, int parent = -1, int64_t req = -1);
  void End(int id);
  /// Durations of every span named `name`, microseconds.
  std::vector<double> DurationsUs(const std::string& name) const;
  void WriteJsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class Scope {
 public:
  Scope(SpanLog& log, const std::string& name, int parent = -1, int64_t req = -1)
      : log_(log), id_(log.Begin(name, parent, req)) {}
  ~Scope() { log_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Named metrics with units and sample counts. Print() writes one readable
/// line per metric; Json() is the run's final machine-readable line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit, int64_t n = 1);
  bool Has(const std::string& name) const { return index_.count(name) != 0; }
  double Get(const std::string& name) const;
  int64_t Samples(const std::string& name) const;
  const std::string& Unit(const std::string& name) const;
  size_t Size() const noexcept { return entries_.size(); }
  void Print() const;
  std::string Json(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t n;
  };
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

/// Correctness gates: every failed gate is printed and fails the run.
class Gates {
 public:
  void Check(bool ok, const std::string& what);
  bool AllPassed() const noexcept { return failed_ == 0; }

 private:
  int failed_ = 0;
};

/// Host-speed scale for the serving workloads' end-to-end host metrics. On a
/// shared VM the speed of every core drifts by up to 2x over minutes while
/// identical work is timed; a fixed reference loop (this benchmark's own
/// code, independent of the program) slows down with the single-threaded
/// simulator (correlation 0.89 over 90 paired samples on a 4-core VM, which
/// cut the spread of one engine run's host time from 35% to 8%). Those
/// metrics are reported at reference speed: a host time measured now,
/// multiplied by HostScale() (averaged over a call before and after it),
/// reads as if the reference loop took kReferenceS. Per-layer spans and the
/// compute-bound attn_kernel stay raw.
constexpr double kReferenceS = 0.05;
double HostScale();

/// Peak resident set size of this process, MB (getrusage).
double PeakRssMb();

/// Size of this host's level-1 data or level-2 cache, KiB (-1 if unknown).
long CacheKib(int level);

/// One line describing the machine the host-clock numbers come from.
void PrintEnvironment(int executor_pool_width);

/// Workload entry points. Each fills `report` with every end-to-end metric
/// (trace off) or every per-layer metric (trace on) and returns the request
/// (or attention-call) counts for the result line.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
};
Outcome RunFleetChat(const Args& args, Report& report, Gates& gates, SpanLog& spans);
Outcome RunLongctxPressure(const Args& args, Report& report, Gates& gates, SpanLog& spans);
Outcome RunAttnKernel(const Args& args, Report& report, Gates& gates, SpanLog& spans);

}  // namespace pb

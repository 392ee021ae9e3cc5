// Repository benchmark entry point.
//
//   perfbench --workload fleet_chat|longctx_pressure|attn_kernel
//             --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints every end-to-end metric, with --trace 1 every
// per-layer metric (a layer the workload bypasses reports 0 with n=0). Every
// run checks the program's outputs; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 only when every
// correctness gate passed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace pb {

double Pct(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(idx));
  const size_t hi = std::min(static_cast<size_t>(std::ceil(idx)), v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double MeanOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

int SpanLog::Begin(const std::string& name, int parent, int64_t req) {
  Span s;
  s.name = name;
  s.start_s = SecondsSince(origin_);
  s.parent = parent;
  s.req = req;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) { spans_[static_cast<size_t>(id)].end_s = SecondsSince(origin_); }

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back((s.end_s - s.start_s) * 1e6);
  }
  return out;
}

void SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_s\":" << s.start_s
        << ",\"end_s\":" << s.end_s << ",\"parent\":" << s.parent << ",\"req\":" << s.req
        << "}\n";
  }
}

void Report::Add(const std::string& name, double value, const std::string& unit, int64_t n) {
  if (!std::isfinite(value)) value = 0.0;
  const auto it = index_.find(name);
  if (it != index_.end()) {
    entries_[it->second] = {name, value, unit, n};
    return;
  }
  index_[name] = entries_.size();
  entries_.push_back({name, value, unit, n});
}

double Report::Get(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? 0.0 : entries_[it->second].value;
}

int64_t Report::Samples(const std::string& name) const {
  return entries_[index_.at(name)].n;
}

const std::string& Report::Unit(const std::string& name) const {
  return entries_[index_.at(name)].unit;
}

void Report::Print() const {
  for (const auto& e : entries_) {
    std::printf("metric %-34s %16.6g %-8s n=%lld\n", e.name.c_str(), e.value,
                e.unit.c_str(), static_cast<long long>(e.n));
  }
}

std::string Report::Json(bool correct, int64_t attempted, int64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    os << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": " << buf << ", \"unit\": \""
       << e.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

void Gates::Check(bool ok, const std::string& what) {
  std::printf("gate %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failed_;
}

double HostScale() {
  // Map inserts and lookups plus a sort: allocation, pointer chasing and
  // branchy compares, like the simulator's own hot paths.
  const auto t0 = Clock::now();
  flashinfer::Rng rng(12345);
  std::map<uint64_t, double> m;
  double acc = 0.0;
  for (int i = 0; i < 60000; ++i) m[rng.NextU64() % 1000003] += i * 0.5;
  for (int i = 0; i < 60000; ++i) {
    const auto it = m.find(rng.NextU64() % 1000003);
    if (it != m.end()) acc += it->second;
  }
  std::vector<double> v(200000);
  for (auto& x : v) x = rng.NextDouble();
  std::sort(v.begin(), v.end());
  acc += v[1000];
  const double elapsed = SecondsSince(t0);
  FI_CHECK(acc > 0.0);
  return kReferenceS / elapsed;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

long CacheKib(int level) {
  const long bytes = sysconf(level == 1 ? _SC_LEVEL1_DCACHE_SIZE : _SC_LEVEL2_CACHE_SIZE);
  return bytes > 0 ? bytes / 1024 : -1;
}

void PrintEnvironment(int executor_pool_width) {
  std::printf(
      "env nproc=%ld executor_pool=%d cluster_stepping=serial(step_threads=1) build=%s "
      "compiler=\"%s\" l1d_kib=%ld l2_kib=%ld\n",
      sysconf(_SC_NPROCESSORS_ONLN), executor_pool_width, PB_BUILD_TYPE, __VERSION__,
      CacheKib(1), CacheKib(2));
}

}  // namespace pb

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics BENCHMARK.json declares (run.py checks).
constexpr MetricName kEndToEnd[] = {
    {"ttft_p50_ms", "ms"},      {"ttft_p99_ms", "ms"},        {"itl_p50_ms", "ms"},
    {"itl_p99_ms", "ms"},       {"output_tok_s", "tok/s"},    {"slo_attain", "fraction"},
    {"goodput_rps", "req/s"},   {"req_done_frac", "fraction"}, {"host_s", "s"},
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},        {"attn_gflops", "GFLOP/s"},
    {"sim_attn_us", "us"},      {"sim_bw_util", "fraction"},
};

constexpr MetricName kPerLayer[] = {
    {"serving.step_host_us_p50", "us"},
    {"serving.step_host_us_p99", "us"},
    {"serving.step_host_us_q1", "us"},
    {"serving.step_host_us_q4", "us"},
    {"serving.price_host_us_p50", "us"},
    {"serving.price_host_us_p99", "us"},
    {"serving.steps", "count"},
    {"serving.decode_only_steps", "count"},
    {"serving.mixed_steps", "count"},
    {"serving.prefill_only_steps", "count"},
    {"serving.batch_branches_mean", "count"},
    {"serving.sim_attn_ms", "ms"},
    {"serving.sim_gemm_ms", "ms"},
    {"serving.sim_host_ms", "ms"},
    {"serving.sim_swap_ms", "ms"},
    {"serving.sim_idle_s", "s"},
    {"serving.queue_wait_ms_p50", "ms"},
    {"serving.queue_wait_ms_p99", "ms"},
    {"serving.stall_steps", "count"},
    {"runtime.plan_host_us_p50", "us"},
    {"runtime.plan_host_us_p99", "us"},
    {"sparse.bsr_build_host_us_p50", "us"},
    {"gpusim.makespan_host_us_p50", "us"},
    {"runtime.cta_imbalance", "ratio"},
    {"runtime.partial_rows_mean", "count"},
    {"runtime.plan_cache_hit_rate", "fraction"},
    {"gpusim.copy_queue_delay_us_p99", "us"},
    {"kvcache.swap_hidden_frac", "fraction"},
    {"cluster.prefix_hit_rate", "fraction"},
    {"cluster.load_imbalance", "ratio"},
    {"cluster.load_fallbacks", "count"},
    {"cluster.replica_util_min", "fraction"},
    {"cluster.run_host_s", "s"},
    {"kvcache.radix_match_host_us_p50", "us"},
    {"kvcache.radix_match_host_us_p99", "us"},
    {"kvcache.radix_insert_host_us_p50", "us"},
    {"kvcache.radix_insert_host_us_p99", "us"},
    {"kvcache.radix_evicted_pages", "count"},
    {"kvcache.preemptions", "count"},
    {"kvcache.swap_restores", "count"},
    {"kvcache.recompute_restores", "count"},
    {"kvcache.evicted_pages", "count"},
    {"kvcache.device_kv_util_mean", "fraction"},
    {"kvcache.host_stored_ratio", "ratio"},
    {"kvcache.quant_mse", "mse"},
    {"codec.encode_gbps", "GB/s"},
    {"codec.decode_gbps", "GB/s"},
    {"core.run_host_us_p50", "us"},
    {"core.run_host_us_p99", "us"},
    {"core.tile_working_set_kib", "KiB"},
    {"jit.compile_s", "s"},
    {"obs.trace_overhead_frac", "fraction"},
    {"obs.trace_dropped", "count"},
};

/// Orders the report by the declared list. A per-layer metric the workload
/// did not report is a layer it bypasses: 0 with no samples. A missing
/// end-to-end metric, or any undeclared one, is a defect of the benchmark.
template <size_t N>
pb::Report Canonical(const pb::Report& in, const MetricName (&names)[N], bool fill_zero,
                     pb::Gates& gates) {
  pb::Report out;
  for (const auto& m : names) {
    if (in.Has(m.name)) {
      out.Add(m.name, in.Get(m.name), m.unit, in.Samples(m.name));
      gates.Check(in.Unit(m.name) == m.unit, std::string("unit of ") + m.name);
    } else if (fill_zero) {
      out.Add(m.name, 0.0, m.unit, 0);
    } else {
      gates.Check(false, std::string("metric reported: ") + m.name);
    }
  }
  gates.Check(in.Size() <= N, "no undeclared metrics");
  return out;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload fleet_chat|longctx_pressure|"
               "attn_kernel --seed N --seconds S --trace 0|1 [--scratch DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--scratch") {
      args.scratch_dir = val;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");
  std::filesystem::create_directories(args.scratch_dir);

  const int pool_width = flashinfer::ThreadPool::Global().num_threads();
  pb::PrintEnvironment(pool_width);
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);

  pb::Report report;
  pb::Gates gates;
  pb::SpanLog spans;
  pb::Outcome out;
  if (args.workload == "fleet_chat") {
    out = pb::RunFleetChat(args, report, gates, spans);
  } else if (args.workload == "longctx_pressure") {
    out = pb::RunLongctxPressure(args, report, gates, spans);
  } else if (args.workload == "attn_kernel") {
    out = pb::RunAttnKernel(args, report, gates, spans);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (args.trace) spans.WriteJsonl(args.scratch_dir + "/spans.jsonl");

  const pb::Report canonical = args.trace
                                   ? Canonical(report, kPerLayer, /*fill_zero=*/true, gates)
                                   : Canonical(report, kEndToEnd, /*fill_zero=*/false, gates);
  canonical.Print();
  const bool correct = gates.AllPassed() && out.attempted > 0;
  std::printf("%s\n", canonical.Json(correct, out.attempted, out.failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

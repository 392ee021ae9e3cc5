// Parallel-runtime bench: wall-clock scaling of the threaded cluster driver
// and the packed heterogeneous-tile attention pricer.
//
// Two sections, two halves of the parallel-runtime story:
//
//  1. Threaded cluster stepping (ClusterConfig::step_threads): an 8-replica
//     fleet under preemption pressure is stepped serially and then on 2/4/8
//     pool threads. Replica state is disjoint and the router is the only
//     synchronization point, so every thread count must produce BIT-IDENTICAL
//     aggregated metrics — that identity is gated unconditionally. The
//     wall-clock speedup gate (>= 4x at 8 threads) engages only when the host
//     actually has >= 8 hardware threads; on smaller machines the identity
//     gate still runs and the speedup rows are informational.
//
//  2. Packed tiles (BackendConfig::packed_tiles): the PR 3 bursty mixed
//     chunk+decode workload is replayed with the batch-average tile heuristic
//     and with PackInfer-style compute/IO-aware class packing. Packed mode
//     must strictly reduce total attention time at equal simulated output —
//     the cost-model win that motivates packing heterogeneous qo_lens into
//     one persistent launch.
//
// Usage: bench_parallel_scale [--quick] [--json <path>] [--check <baseline>]
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "serving/workload.h"

using namespace flashinfer;
using namespace flashinfer::cluster;
using namespace flashinfer::serving;

namespace {

/// Replica config matching the threaded-determinism test: chunking +
/// preemption with overlapped swap, HBM sized to ~8000 KV tokens so the
/// workload below actually evicts. All the stateful machinery a data race
/// would corrupt is live.
EngineConfig ReplicaConfig() {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  cfg.prefill_chunk_tokens = 1024;
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kAuto;
  cfg.preemption.overlap_swap = true;
  const double kv_bytes =
      8000.0 * cfg.model.KvBytesPerToken(cfg.backend.kv_dtype) / 0.9;
  cfg.hbm_capacity_gb = (cfg.model.WeightBytesPerGpu() + kv_bytes) / 1e9;
  return cfg;
}

struct TimedRun {
  ClusterMetrics metrics;
  double wall_ms = 0.0;
};

TimedRun RunCluster(const std::vector<Request>& reqs, int replicas,
                    int step_threads) {
  ClusterConfig cfg;
  cfg.engine = ReplicaConfig();
  cfg.num_replicas = replicas;
  cfg.policy = RouterPolicy::kLeastLoaded;
  cfg.step_threads = step_threads;
  ClusterEngine engine(cfg);
  TimedRun out;
  const bench::WallTimer timer;
  out.metrics = engine.Run(reqs);
  out.wall_ms = timer.ElapsedMs();
  return out;
}

/// Simulated-outcome digest: every field the threaded driver could plausibly
/// corrupt. Exact floating-point equality — the runs share one seed.
bool MetricsIdentical(const ClusterMetrics& a, const ClusterMetrics& b) {
  const auto& x = a.aggregate;
  const auto& y = b.aggregate;
  if (x.makespan_s != y.makespan_s || x.num_steps != y.num_steps ||
      x.total_output_tokens != y.total_output_tokens ||
      x.total_prefill_tokens != y.total_prefill_tokens ||
      x.num_preemptions != y.num_preemptions ||
      x.evicted_pages != y.evicted_pages ||
      x.restored_pages != y.restored_pages ||
      x.total_swap_ms != y.total_swap_ms ||
      x.swap_hidden_ms != y.swap_hidden_ms ||
      x.swap_stall_ms != y.swap_stall_ms ||
      x.total_attention_ms != y.total_attention_ms ||
      x.ttft_ms != y.ttft_ms || x.itl_ms != y.itl_ms) {
    return false;
  }
  return a.replica_requests == b.replica_requests &&
         a.load_imbalance == b.load_imbalance;
}

ServingMetrics RunPacked(const std::vector<Request>& w, bool packed) {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  cfg.backend.packed_tiles = packed;
  cfg.prefill_chunk_tokens = 1024;
  cfg.batch_policy = BatchPolicy::kDecodePriority;
  return ServingEngine(cfg).Run(w);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::WallTimer wall_timer;
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const char* json_path = bench::ArgValue(argc, argv, "--json");
  bench::JsonResult json;
  json.Add("bench", std::string("parallel_scale"));
  json.Add("quick", quick ? 1.0 : 0.0);

  bench::Banner("Parallel scale",
                "threaded cluster stepping + packed heterogeneous tiles");

  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  json.Add("hardware_threads", static_cast<double>(cores));

  // --- 1. Threaded cluster stepping. ---------------------------------------
  const int replicas = 8;
  const int reqs_per_replica = quick ? 40 : 120;
  Rng rng(0xD17E2);
  auto reqs = UniformWorkload(rng, replicas * reqs_per_replica,
                              replicas * 25.0, 512, 1024, 96);
  AssignPriorities(rng, reqs, {0.7, 0.3});

  std::printf("\n--- threaded stepping (%d replicas, %zu requests, %d hw threads) ---\n",
              replicas, reqs.size(), cores);
  bench::Note("preemption + overlapped swap live on every replica; identical");
  bench::Note("seeded workload per row, so simulated metrics must not move.");

  AsciiTable t({"step threads", "wall ms", "speedup", "sim makespan s", "tok/s",
                "preempt", "identical"});
  const auto serial = RunCluster(reqs, replicas, /*step_threads=*/1);
  bool identical = true;
  double speedup8 = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    const TimedRun run =
        threads == 1 ? serial : RunCluster(reqs, replicas, threads);
    const bool same = MetricsIdentical(serial.metrics, run.metrics);
    identical = identical && same;
    const double speedup = run.wall_ms > 0 ? serial.wall_ms / run.wall_ms : 0.0;
    if (threads == 8) speedup8 = speedup;
    t.AddRow({AsciiTable::Num(threads, 0), AsciiTable::Num(run.wall_ms, 1),
              AsciiTable::Num(speedup, 2),
              AsciiTable::Num(run.metrics.aggregate.makespan_s, 3),
              AsciiTable::Num(run.metrics.ThroughputTokS(), 0),
              AsciiTable::Num(run.metrics.aggregate.num_preemptions, 0),
              same ? "yes" : "NO"});
    json.Add("wall_ms_t" + std::to_string(threads), run.wall_ms);
    json.Add("wall_speedup_t" + std::to_string(threads), speedup);
  }
  t.Print();
  json.Add("cluster_tok_s", serial.metrics.ThroughputTokS());
  bench::Note("\nexpected shape: simulated columns frozen across rows (replica");
  bench::Note("state is disjoint; the router is the only sync point); wall ms");
  bench::Note("drops with threads once the host has cores to back them.");

  // --- 2. Packed heterogeneous tiles on the PR 3 mixed-batch workload. -----
  BurstyPrefillConfig wcfg;
  const int scale = quick ? 2 : 1;
  wcfg.num_steady = 240 / scale;
  wcfg.steady_rate = 40.0;
  wcfg.steady_output = 64;
  wcfg.num_bursts = 8 / scale;
  wcfg.burst_size = 6;
  wcfg.first_burst_s = 1.0;
  wcfg.burst_period_s = 1.0;
  wcfg.burst_input_lo = 4096;
  wcfg.burst_input_hi = 8192;
  Rng prng(2027);
  const auto pw = BurstyLongPrefillWorkload(prng, wcfg);

  std::printf("\n--- packed tiles on mixed chunk+decode batches (chunk 1024) ---\n");
  const auto base = RunPacked(pw, /*packed=*/false);
  const auto packed = RunPacked(pw, /*packed=*/true);
  AsciiTable pt({"pricer", "tok/s", "attn ms", "P99 ITL", "makespan s"});
  for (const auto* m : {&base, &packed}) {
    pt.AddRow({m == &base ? "batch-average tile" : "packed classes",
               AsciiTable::Num(m->ThroughputTokS(), 0),
               AsciiTable::Num(m->total_attention_ms, 1),
               AsciiTable::Num(m->P99ItlMs(), 2),
               AsciiTable::Num(m->makespan_s, 3)});
  }
  pt.Print();
  const double attn_win = packed.total_attention_ms > 0
                              ? base.total_attention_ms / packed.total_attention_ms
                              : 0.0;
  const double packed_tok_frac =
      base.ThroughputTokS() > 0 ? packed.ThroughputTokS() / base.ThroughputTokS()
                                : 0.0;
  json.Add("base_attn_ms", base.total_attention_ms);
  json.Add("packed_attn_ms", packed.total_attention_ms);
  json.Add("packed_attn_win", attn_win);
  json.Add("packed_tok_frac", packed_tok_frac);
  bench::Note("\nexpected shape: the batch-average tile compromises every mixed");
  bench::Note("step (large tile starves decode rows, small tile shreds prefill");
  bench::Note("chunks); class packing prices each side at its natural tile and");
  bench::Note("the attention column drops with throughput held or improved.");

  // --- Gates. --------------------------------------------------------------
  const bool speedup_applicable = cores >= 8;
  const bool speedup_ok = !speedup_applicable || speedup8 >= 4.0;
  const bool packed_ok =
      packed.total_attention_ms < base.total_attention_ms && packed_tok_frac >= 1.0 &&
      packed.total_output_tokens == base.total_output_tokens;
  std::printf("\nmetrics identity across thread counts: %s (acceptance: identical)\n",
              identical ? "yes" : "NO");
  if (speedup_applicable) {
    std::printf("wall-clock speedup at 8 threads: %.2fx (acceptance: >= 4x)\n",
                speedup8);
  } else {
    std::printf("wall-clock speedup gate skipped: host has %d hardware threads "
                "(< 8); identity gate still enforced\n", cores);
  }
  std::printf("packed tiles: attention %.1f ms -> %.1f ms (%.2fx win, acceptance:"
              " < 1x ms), throughput %.1f%% of baseline (acceptance: >= 100%%)\n",
              base.total_attention_ms, packed.total_attention_ms, attn_win,
              100.0 * packed_tok_frac);
  json.Add("gate_metrics_identical", identical ? 1.0 : 0.0);
  json.Add("gate_speedup_ok", speedup_ok ? 1.0 : 0.0);
  json.Add("gate_speedup_applicable", speedup_applicable ? 1.0 : 0.0);
  json.Add("gate_packed_wins", packed_ok ? 1.0 : 0.0);
  const bool ok = identical && speedup_ok && packed_ok;
  json.Add("acceptance_passed", ok ? 1.0 : 0.0);
  json.Add("wall_ms", wall_timer.ElapsedMs());
  if (!json.WriteTo(json_path)) return 1;
  if (!ok) {
    std::printf("ACCEPTANCE FAILED\n");
    return 1;
  }
  if (const char* baseline = bench::ArgValue(argc, argv, "--check")) {
    if (!bench::CheckBaseline(baseline, json, /*allow_wall_keys=*/true)) return 1;
  }
  return 0;
}

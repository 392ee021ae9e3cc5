// The two serving workloads, fleet_chat (4-replica cluster) and
// longctx_pressure (one engine under KV pressure), on two clocks: simulated
// latency and throughput from the engine's own metrics, host time measured
// around the public entry points.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/cluster.h"
#include "core/tile_heuristics.h"
#include "gpusim/executor.h"
#include "kvcache/radix.h"
#include "kvcache/ragged.h"
#include "runtime/scheduler.h"
#include "serving/backends.h"
#include "serving/engine.h"
#include "serving/workload.h"
#include "sparse/bsr.h"
#include "util/codec.h"
#include "util/rng.h"

namespace pb {
namespace {

using namespace flashinfer;
using namespace flashinfer::serving;
using flashinfer::cluster::ClusterConfig;
using flashinfer::cluster::ClusterEngine;
using flashinfer::cluster::ClusterMetrics;
using obs::TraceEvent;
using obs::TraceName;

// Latency limits of the goodput criterion: P99 TTFT (the paper picks its
// Fig. 7 request rates for P99 TTFT < 200 ms) and P99 inter-token latency.
constexpr double kTtftLimitMs = 200.0;
constexpr double kItlLimitMs = 50.0;
constexpr double kSloTarget = 0.99;
// Goodput ladder: offered-rate multipliers kLadderStep^k for k in
// [kLadderLo, kLadderHi], applied to the same generated requests by dividing
// their arrival times. Rung 0 is the nominal rate.
constexpr double kLadderStep = 1.08;
constexpr int kLadderLo = -18;  // x0.25
constexpr int kLadderHi = 24;   // x6.3
constexpr int kLadderStride = 4;  // Rungs per step of the initial walk.

double LadderMult(int rung) { return std::pow(kLadderStep, rung); }

/// Requests whose TTFT the goodput criterion holds to the limit: all of them
/// (min_priority < 0), or those of at least `min_priority`.
struct SloClass {
  int min_priority = -1;
};

EngineConfig Llama8bOnH100() {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  return cfg;
}

double HbmForBudget(const EngineConfig& cfg, int64_t budget_tokens) {
  const double kv_bytes = static_cast<double>(budget_tokens) *
                          cfg.model.KvBytesPerToken(cfg.backend.kv_dtype) / 0.9;
  return (cfg.model.WeightBytesPerGpu() + kv_bytes) / 1e9;
}

// --- Workload definitions ---------------------------------------------------

constexpr int kFleetRequests = 2000;
constexpr double kFleetRate = 100.0;  // req/s, open loop (Poisson).
constexpr int64_t kFleetPrefixCachePages = 2048;  // Per replica.

std::vector<Request> FleetRequests(uint64_t seed) {
  Rng rng(seed);
  TenantPoolConfig pool;
  pool.num_tenants = 1024;
  pool.zipf_s = 1.0;
  pool.prefix_len_lo = 256;
  pool.prefix_len_hi = 1024;
  return MultiTenantWorkload(rng, kFleetRequests, kFleetRate, pool);
}

ClusterConfig FleetConfig() {
  ClusterConfig cfg;
  cfg.engine = Llama8bOnH100();
  cfg.num_replicas = 4;
  cfg.policy = cluster::RouterPolicy::kPrefixAffinity;
  cfg.prefix_cache_pages = kFleetPrefixCachePages;
  cfg.step_threads = 1;
  return cfg;
}

constexpr double kLongctxSeconds = 160.0;  // Simulated arrival window.
constexpr int64_t kLongctxKvBudget = 25000;  // Device KV tokens.
// The TTFT limit holds for interactive traffic; a document's prefill alone
// takes about as long as the limit.
constexpr SloClass kLongctxSloClass = {/*min_priority=*/1};

std::vector<Request> LongctxRequests(uint64_t seed) {
  Rng rng(seed);
  BurstyPrefillConfig b;
  b.steady_rate = 30.0;
  b.num_steady = static_cast<int>(b.steady_rate * kLongctxSeconds);
  b.steady_input_lo = 64;
  b.steady_input_hi = 256;
  b.steady_output = 128;
  b.burst_size = 1;
  b.burst_period_s = 1.5;
  b.first_burst_s = 0.5;
  b.num_bursts = static_cast<int>(kLongctxSeconds / b.burst_period_s);
  b.burst_input_lo = 4096;
  b.burst_input_hi = 8192;
  b.burst_output = 256;
  auto reqs = BurstyLongPrefillWorkload(rng, b);
  // Interactive traffic outranks the long documents it may preempt.
  for (auto& r : reqs) r.priority = r.input_len >= b.burst_input_lo ? 0 : 1;
  return reqs;
}

EngineConfig LongctxConfig() {
  EngineConfig cfg = Llama8bOnH100();
  cfg.hbm_capacity_gb = HbmForBudget(cfg, kLongctxKvBudget);
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kAuto;
  cfg.preemption.overlap_swap = true;
  cfg.preemption.host_codec.quant = KvQuantFormat::kInt8;
  cfg.preemption.host_codec.compress = true;
  // Interactive prefills ride along with document chunks instead of queuing
  // behind them.
  cfg.batch_policy = BatchPolicy::kThroughputPriority;
  return cfg;
}

// --- Simulated end-to-end summary -------------------------------------------

// Attention work every request needs at minimum, from shapes alone: FLOPs
// (4 * head_dim per query-key pair per qo head, causal-trimmed) and KV bytes
// (each decode step reads the whole context once; a prefill reads its prompt
// once).
struct CompulsoryWork {
  double flops = 0.0;
  double kv_bytes = 0.0;
};

CompulsoryWork AttentionWork(const std::vector<Request>& reqs, const ModelSpec& m) {
  CompulsoryWork w;
  const double per_pair = 4.0 * m.head_dim * m.num_qo_heads * m.num_layers;
  const double bpt = m.KvBytesPerToken(DType::kF16);
  for (const auto& r : reqs) {
    const double in = static_cast<double>(r.input_len);
    const double c = static_cast<double>(std::max<int64_t>(r.cached_prefix_len, 0));
    const double out = static_cast<double>(r.output_len) * r.parallel_n;
    w.flops += per_pair * ((in * (in + 1.0) - c * (c + 1.0)) / 2.0);
    w.flops += per_pair * (out * in + out * (out + 1.0) / 2.0);
    w.kv_bytes += bpt * in;
    w.kv_bytes += bpt * (out * in + out * (out - 1.0) / 2.0);
  }
  return w;
}

struct SimSummary {
  double ttft_p50 = 0, ttft_p99 = 0, itl_p50 = 0, itl_p99 = 0;
  int64_t n_ttft = 0, n_itl = 0;
  double tok_s = 0, slo_attain = 0, done_frac = 0;
  double sim_attn_us = 0, bw_util = 0;
  int64_t attempted = 0, finished = 0, failed = 0;
  // TTFT attainment of the requests the goodput criterion holds to the
  // limit (SloClass): every request, or only the interactive priority.
  double class_attain = 0;

  // Margins of the goodput criterion; a rung passes when none is negative.
  double SloMargin() const { return class_attain - kSloTarget; }
  double ItlMargin() const { return kItlLimitMs - itl_p99; }
  bool MeetsLimits() const { return SloMargin() >= 0.0 && ItlMargin() >= 0.0 && failed == 0; }
};

SimSummary Summarize(const ServingMetrics& m, const std::vector<Request>& reqs,
                     const EngineConfig& ecfg, SloClass cls = {}) {
  SimSummary s;
  s.attempted = static_cast<int64_t>(reqs.size());
  s.finished = static_cast<int64_t>(m.ttft_ms.size());
  s.failed = s.attempted - s.finished;
  s.ttft_p50 = m.TtftPercentileMs(0.5);
  s.ttft_p99 = m.TtftPercentileMs(0.99);
  s.n_ttft = s.finished;
  s.itl_p50 = m.ItlPercentileMs(0.5);
  s.itl_p99 = m.ItlPercentileMs(0.99);
  s.n_itl = m.ItlCount();
  s.tok_s = m.ThroughputTokS();
  int64_t within = 0;
  for (double t : m.ttft_ms) within += t <= kTtftLimitMs ? 1 : 0;
  s.slo_attain = static_cast<double>(within) / static_cast<double>(s.attempted);
  int64_t class_n = 0, class_within = 0;
  for (const auto& r : reqs) class_n += r.priority >= cls.min_priority ? 1 : 0;
  for (size_t i = 0; i < m.ttft_ms.size(); ++i) {
    class_within += m.ttft_priority[i] >= cls.min_priority && m.ttft_ms[i] <= kTtftLimitMs;
  }
  s.class_attain = static_cast<double>(class_within) / static_cast<double>(class_n);
  s.done_frac = static_cast<double>(s.finished) / static_cast<double>(s.attempted);
  s.sim_attn_us =
      m.num_steps > 0 ? m.total_attention_ms * 1e3 / static_cast<double>(m.num_steps) : 0.0;
  const auto work = AttentionWork(reqs, ecfg.model);
  const double attn_s = m.total_attention_ms * 1e-3;
  s.bw_util = attn_s > 0.0 ? work.kv_bytes / (attn_s * ecfg.device.hbm_gbps * 1e9) : 0.0;
  return s;
}

bool SameSimulation(const ServingMetrics& a, const ServingMetrics& b) {
  return a.ttft_ms == b.ttft_ms && a.itl_ms == b.itl_ms && a.makespan_s == b.makespan_s &&
         a.total_output_tokens == b.total_output_tokens && a.num_steps == b.num_steps &&
         a.total_attention_ms == b.total_attention_ms;
}

void CheckConservation(Gates& gates, const std::string& what, const ServingMetrics& m,
                       const std::vector<Request>& reqs) {
  int64_t expected = 0;
  for (const auto& r : reqs) expected += r.output_len * r.parallel_n;
  const auto finished = static_cast<int64_t>(m.ttft_ms.size());
  gates.Check(finished + m.rejected_requests == static_cast<int64_t>(reqs.size()),
              what + ": finished + rejected == attempted");
  if (m.rejected_requests == 0) {
    gates.Check(m.total_output_tokens == expected,
                what + ": output tokens == sum(output_len * parallel_n)");
  } else {
    gates.Check(m.total_output_tokens < expected,
                what + ": output tokens below the total of the rejected workload");
  }
}

std::vector<Request> ScaleArrivals(std::vector<Request> reqs, double mult) {
  for (auto& r : reqs) r.arrival_s /= mult;
  return reqs;
}

double OfferedRate(const std::vector<Request>& reqs) {
  double last = 0.0;
  for (const auto& r : reqs) last = std::max(last, r.arrival_s);
  return last > 0.0 ? static_cast<double>(reqs.size()) / last : 0.0;
}

/// Goodput: the offered rate at which the run stops meeting the limits. Walks
/// the ladder from the nominal rung in strides of kLadderStride rungs until
/// the outcome flips, bisects for the highest passing rung (assumes
/// attainment falls as the rate rises), then interpolates geometrically
/// towards the first failing rung where the binding limit's margin crosses 0
/// (a failed request allows no interpolation). `nominal` is the summary of
/// the nominal-rate run, already simulated. Returns 0 when the lowest rung
/// misses, the top rung's rate when it passes.
template <typename SimFn>
double Goodput(const std::vector<Request>& reqs, const SimSummary& nominal, SimFn sim) {
  const double rate = OfferedRate(reqs);
  std::map<int, SimSummary> runs = {{0, nominal}};
  auto passes = [&](int rung) {
    runs[rung] = sim(ScaleArrivals(reqs, LadderMult(rung)));
    return runs[rung].MeetsLimits();
  };
  int pass = kLadderLo - 1, fail = kLadderHi + 1;  // Sentinels: never simulated.
  if (nominal.MeetsLimits()) {
    pass = 0;
    for (int r = kLadderStride; r <= kLadderHi && fail > kLadderHi; r += kLadderStride) {
      (passes(r) ? pass : fail) = r;
    }
  } else {
    fail = 0;
    for (int r = -kLadderStride; r >= kLadderLo && pass < kLadderLo; r -= kLadderStride) {
      (passes(r) ? pass : fail) = r;
    }
  }
  while (fail - pass > 1) {
    const int mid = pass + (fail - pass) / 2;
    (passes(mid) ? pass : fail) = mid;
  }
  double mult = 0.0;
  if (pass > kLadderHi) {
    mult = LadderMult(kLadderHi);
  } else if (pass >= kLadderLo) {
    double t = 1.0;  // Fraction of the way to the failing rung, log scale.
    if (fail <= kLadderHi) {
      const SimSummary& p = runs[pass];
      const SimSummary& f = runs[fail];
      if (f.failed > 0) t = 0.0;
      if (f.SloMargin() < 0.0) t = std::min(t, p.SloMargin() / (p.SloMargin() - f.SloMargin()));
      if (f.ItlMargin() < 0.0) t = std::min(t, p.ItlMargin() / (p.ItlMargin() - f.ItlMargin()));
    }
    mult = LadderMult(pass) * std::pow(kLadderStep, fail <= kLadderHi ? t : 0.0);
  }
  std::printf("goodput ladder: passes rung %d, fails rung %d of [%d, %d]: x%.4f of %.2f req/s "
              "offered, %zu runs\n",
              pass, fail, kLadderLo, kLadderHi, mult, rate, runs.size());
  return mult * rate;
}

/// Host-clock values (`host_s`, `setup_s`, and `attn_gflops` derived from
/// `host_s`) are at reference speed (HostScale).
void AddEndToEnd(Report& rep, const SimSummary& s, double goodput, double host_s,
                 double setup_s, int64_t host_n, int64_t setup_n, double flops) {
  rep.Add("ttft_p50_ms", s.ttft_p50, "ms", s.n_ttft);
  rep.Add("ttft_p99_ms", s.ttft_p99, "ms", s.n_ttft);
  rep.Add("itl_p50_ms", s.itl_p50, "ms", s.n_itl);
  rep.Add("itl_p99_ms", s.itl_p99, "ms", s.n_itl);
  rep.Add("output_tok_s", s.tok_s, "tok/s", s.n_itl + s.n_ttft);
  rep.Add("slo_attain", s.slo_attain, "fraction", s.attempted);
  rep.Add("goodput_rps", goodput, "req/s", s.attempted);
  rep.Add("req_done_frac", s.done_frac, "fraction", s.attempted);
  rep.Add("host_s", host_s, "s", host_n);
  rep.Add("setup_s", setup_s, "s", setup_n);
  rep.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  rep.Add("attn_gflops", host_s > 0.0 ? flops / host_s * 1e-9 : 0.0, "GFLOP/s", host_n);
  rep.Add("sim_attn_us", s.sim_attn_us, "us", 1);
  rep.Add("sim_bw_util", s.bw_util, "fraction", 1);
}

// --- Stepwise driving and trace replays (per-layer run) ---------------------

/// Drives `engine` one step per StepTo call, recording a host span around
/// each call. Returns the host seconds of the whole drive.
double DriveStepwise(ServingEngine& engine, const std::vector<Request>& reqs,
                     SpanLog* spans) {
  const auto t0 = Clock::now();
  engine.Reset();
  for (const auto& r : reqs) engine.Admit(r);
  while (!engine.Finished()) {
    const double t = engine.NextEventTime();
    if (spans != nullptr) {
      Scope s(*spans, "serving.step");
      engine.StepTo(t);
    } else {
      engine.StepTo(t);
    }
  }
  return SecondsSince(t0);
}

/// Replays every kStep of `events` through the pricing layer and its parts:
/// serving::SimulateBatchAttention, then sparse::BuildBatchBsr,
/// MakeBalancedPlan and SimExecutor::Makespan on the same shape. Prefill
/// chunks come from the kChunk instants that follow their step (KV = prompt
/// prefix computed so far); decode KV lengths are drawn from `reqs`.
struct StepReplay {
  std::vector<double> cta_imbalance;
  std::vector<double> partial_rows;
  int64_t steps = 0;
};

StepReplay ReplaySteps(const std::vector<TraceEvent>& events, const std::vector<Request>& reqs,
                       const EngineConfig& ecfg, uint64_t seed, SpanLog& spans) {
  StepReplay out;
  Rng rng(seed ^ 0x5EEDull);
  std::map<int, int64_t> computed;  // Request -> prompt tokens prefilled so far.
  std::map<int, int64_t> last_kind;
  std::map<int, int64_t> cached;
  for (const auto& r : reqs) cached[r.id] = std::max<int64_t>(r.cached_prefix_len, 0);
  const auto& dev = ecfg.device;
  const int page = ecfg.page_size;

  using Chunks = std::vector<std::pair<int64_t, int64_t>>;  // (query tokens, KV length)
  auto replay = [&](int64_t decode_branches, const Chunks& chunks) {
    AttnSimInput in;
    in.num_qo_heads = ecfg.model.num_qo_heads;
    in.num_kv_heads = ecfg.model.num_kv_heads;
    in.head_dim = ecfg.model.head_dim;
    in.page_size = page;
    for (int64_t i = 0; i < decode_branches; ++i) {
      const auto& r = reqs[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(reqs.size()) - 1))];
      in.qo_lens.push_back(1);
      const int64_t emitted = rng.UniformInt(0, std::max<int64_t>(r.output_len - 1, 0));
      in.kv_lens.push_back(r.input_len + emitted + 1);
    }
    for (const auto& [q, kv] : chunks) {
      in.qo_lens.push_back(q);
      in.kv_lens.push_back(kv);
    }
    if (in.qo_lens.empty()) return;
    Scope step(spans, "replay.step");
    gpusim::SimReport report;
    {
      Scope s(spans, "serving.price", step.id());
      report = SimulateBatchAttention(dev, ecfg.backend, in);
    }
    const int g = in.num_qo_heads / in.num_kv_heads;
    int64_t total_q = 0;
    for (int64_t q : in.qo_lens) total_q += q;
    const double avg_fused =
        static_cast<double>(total_q) / static_cast<double>(in.qo_lens.size()) * g;
    KernelConfig kcfg = SelectKernelConfig(dev, avg_fused, in.head_dim, 2, /*sparse=*/true);
    kcfg.head_fusion = true;
    std::vector<int64_t> fused(in.qo_lens);
    for (auto& f : fused) f *= g;
    std::vector<sparse::RequestKv> kv(in.kv_lens.size());
    int64_t next_page = 0;
    for (size_t r = 0; r < in.kv_lens.size(); ++r) {
      const int64_t pages = (in.kv_lens[r] + page - 1) / page;
      kv[r].pages.resize(static_cast<size_t>(pages));
      std::iota(kv[r].pages.begin(), kv[r].pages.end(), next_page);
      next_page += pages;
      kv[r].last_page_len = static_cast<int>(in.kv_lens[r] - (pages - 1) * page);
    }
    sparse::BsrMatrix bsr;
    {
      Scope s(spans, "sparse.bsr_build", step.id());
      bsr = sparse::BuildBatchBsr(BuildIndptr(fused), kv, page, kcfg.tile_q);
    }
    AttentionParams p;
    p.bsr = &bsr;
    p.qo_indptr = BuildIndptr(in.qo_lens);
    p.kv_len = in.kv_lens;
    p.num_qo_heads = in.num_qo_heads;
    p.num_kv_heads = in.num_kv_heads;
    p.head_dim = in.head_dim;
    p.head_fusion = true;
    p.variant.causal = true;
    Plan plan;
    {
      Scope s(spans, "runtime.plan", step.id());
      plan = MakeBalancedPlan(p, kcfg, dev.num_sms, int64_t{1} << 40);
    }
    const auto occ = OccupancyModel(dev, kcfg, in.head_dim, 2);
    {
      Scope s(spans, "gpusim.makespan", step.id());
      volatile double sink =
          gpusim::SimExecutor::Makespan(report.cta_time_us, occ.ctas_per_sm * dev.num_sms);
      (void)sink;
    }
    double sum = 0.0, mx = 0.0;
    for (double t : report.cta_time_us) {
      sum += t;
      mx = std::max(mx, t);
    }
    if (sum > 0.0) {
      out.cta_imbalance.push_back(mx /
                                  (sum / static_cast<double>(report.cta_time_us.size())));
    }
    out.partial_rows.push_back(static_cast<double>(plan.num_partial_rows));
    ++out.steps;
  };

  int64_t pending_decode = -1;
  Chunks chunks;
  for (const auto& e : events) {
    if (e.name == TraceName::kStep) {
      if (pending_decode >= 0) replay(pending_decode, chunks);
      pending_decode = e.b;
      chunks.clear();
    } else if (e.name == TraceName::kChunk && pending_decode >= 0 && e.a > 0) {
      if (last_kind.count(e.req) == 0 || last_kind[e.req] != e.c) computed[e.req] = 0;
      last_kind[e.req] = e.c;
      computed[e.req] += e.a;
      const int64_t base = e.c == 0 ? cached[e.req] : 0;
      chunks.emplace_back(e.a, base + computed[e.req]);
    }
  }
  if (pending_decode >= 0) replay(pending_decode, chunks);
  return out;
}

/// Replays every kKvEncode event as real-geometry pages (8 KV heads x 128 dim
/// x 16 tokens, f16) of one layer's K through util::EncodePage/DecodePage.
struct CodecReplay {
  double logical_bytes = 0.0, stored_bytes = 0.0, encode_s = 0.0, decode_s = 0.0;
  int64_t pages = 0;
  double max_abs_err = 0.0;
};

CodecReplay ReplayCodec(const std::vector<TraceEvent>& events, const EngineConfig& ecfg,
                        uint64_t seed, SpanLog& spans) {
  constexpr int kPool = 8;             // Distinct random pages, cycled.
  constexpr int64_t kMaxPages = 4096;  // Replay cap per run.
  CodecReplay out;
  const int heads = ecfg.model.num_kv_heads, dim = ecfg.model.head_dim, page = 16;
  const size_t elems = static_cast<size_t>(heads) * dim * page;
  const double bpt = ecfg.model.KvBytesPerToken(ecfg.backend.kv_dtype);
  Rng rng(seed ^ 0xC0DEull);
  std::vector<std::vector<half_t>> pool(kPool, std::vector<half_t>(elems));
  for (auto& pg : pool) {
    for (auto& x : pg) x = half_t(static_cast<float>(rng.Normal(0.0, 1.0)));
  }
  std::vector<half_t> back(elems);
  for (const auto& e : events) {
    if (e.name != TraceName::kKvEncode || out.pages >= kMaxPages) continue;
    const auto tokens = static_cast<int64_t>(std::llround(static_cast<double>(e.a) / bpt));
    const int64_t pages = std::min((tokens + page - 1) / page, kMaxPages - out.pages);
    Scope ev(spans, "codec.event", -1, e.req);
    for (int64_t pg = 0; pg < pages; ++pg) {
      const auto& f16 = pool[static_cast<size_t>(out.pages % kPool)];
      const auto* src = reinterpret_cast<const std::byte*>(f16.data());
      const auto t0 = Clock::now();
      const auto blob =
          util::EncodePage(src, elems, DType::kF16, ecfg.preemption.host_codec, nullptr);
      const auto t1 = Clock::now();
      util::DecodePage(blob.data(), blob.size(), reinterpret_cast<std::byte*>(back.data()),
                       elems, DType::kF16);
      out.encode_s += std::chrono::duration<double>(t1 - t0).count();
      out.decode_s += SecondsSince(t1);
      out.logical_bytes += static_cast<double>(elems * 2);
      out.stored_bytes += static_cast<double>(blob.size());
      ++out.pages;
      for (size_t i = 0; i < elems; i += 97) {
        const float err = static_cast<float>(back[i]) - static_cast<float>(f16[i]);
        out.max_abs_err = std::max(out.max_abs_err, static_cast<double>(std::fabs(err)));
      }
    }
  }
  return out;
}

// Per-layer metrics shared by both serving workloads, from the stepwise-driven
// engine's metrics and trace.
void AddServingLayers(Report& rep, const ServingMetrics& m,
                      const std::vector<TraceEvent>& events, const SpanLog& spans,
                      const StepReplay& replay, int64_t kv_budget) {
  const auto steps_us = spans.DurationsUs("serving.step");
  const size_t q = steps_us.size() / 4;
  const std::vector<double> first(steps_us.begin(), steps_us.begin() + static_cast<long>(q));
  const std::vector<double> last(steps_us.end() - static_cast<long>(q), steps_us.end());
  const auto n = static_cast<int64_t>(steps_us.size());
  rep.Add("serving.step_host_us_p50", Pct(steps_us, 0.5), "us", n);
  rep.Add("serving.step_host_us_p99", Pct(steps_us, 0.99), "us", n);
  rep.Add("serving.step_host_us_q1", Pct(first, 0.5), "us", static_cast<int64_t>(q));
  rep.Add("serving.step_host_us_q4", Pct(last, 0.5), "us", static_cast<int64_t>(q));
  const auto price = spans.DurationsUs("serving.price");
  rep.Add("serving.price_host_us_p50", Pct(price, 0.5), "us", static_cast<int64_t>(price.size()));
  rep.Add("serving.price_host_us_p99", Pct(price, 0.99), "us", static_cast<int64_t>(price.size()));
  rep.Add("serving.steps", static_cast<double>(m.num_steps), "count");
  rep.Add("serving.decode_only_steps", static_cast<double>(m.decode_only_steps), "count");
  rep.Add("serving.mixed_steps", static_cast<double>(m.mixed_steps), "count");
  rep.Add("serving.prefill_only_steps", static_cast<double>(m.prefill_only_steps), "count");

  double phase_us[6] = {0, 0, 0, 0, 0, 0};
  std::vector<double> branches, queue_ms, copy_delay_us, kv_device;
  for (const auto& e : events) {
    switch (e.name) {
      case TraceName::kStep: branches.push_back(static_cast<double>(e.b)); break;
      case TraceName::kPhaseAttn: phase_us[0] += e.dur_us; break;
      case TraceName::kPhaseGemm: phase_us[1] += e.dur_us; break;
      case TraceName::kPhaseHost: phase_us[2] += e.dur_us; break;
      case TraceName::kPhaseSwap: phase_us[3] += e.dur_us; break;
      case TraceName::kReqQueued: queue_ms.push_back(e.dur_us * 1e-3); break;
      case TraceName::kCopyD2H:
      case TraceName::kCopyH2D: copy_delay_us.push_back(static_cast<double>(e.c)); break;
      case TraceName::kCtrKvDevice: kv_device.push_back(e.v); break;
      default: break;
    }
  }
  rep.Add("serving.batch_branches_mean", MeanOf(branches), "count",
          static_cast<int64_t>(branches.size()));
  rep.Add("serving.sim_attn_ms", phase_us[0] * 1e-3, "ms");
  rep.Add("serving.sim_gemm_ms", phase_us[1] * 1e-3, "ms");
  rep.Add("serving.sim_host_ms", phase_us[2] * 1e-3, "ms");
  rep.Add("serving.sim_swap_ms", phase_us[3] * 1e-3, "ms");
  rep.Add("serving.sim_idle_s", m.total_idle_s, "s", m.num_idle_skips);
  rep.Add("serving.queue_wait_ms_p50", Pct(queue_ms, 0.5), "ms",
          static_cast<int64_t>(queue_ms.size()));
  rep.Add("serving.queue_wait_ms_p99", Pct(queue_ms, 0.99), "ms",
          static_cast<int64_t>(queue_ms.size()));
  rep.Add("serving.stall_steps", static_cast<double>(m.itl_stall_steps + m.preempt_stall_steps),
          "count");

  const auto plan = spans.DurationsUs("runtime.plan");
  rep.Add("runtime.plan_host_us_p50", Pct(plan, 0.5), "us", static_cast<int64_t>(plan.size()));
  rep.Add("runtime.plan_host_us_p99", Pct(plan, 0.99), "us", static_cast<int64_t>(plan.size()));
  const auto bsr = spans.DurationsUs("sparse.bsr_build");
  rep.Add("sparse.bsr_build_host_us_p50", Pct(bsr, 0.5), "us", static_cast<int64_t>(bsr.size()));
  const auto mk = spans.DurationsUs("gpusim.makespan");
  rep.Add("gpusim.makespan_host_us_p50", Pct(mk, 0.5), "us", static_cast<int64_t>(mk.size()));
  rep.Add("runtime.cta_imbalance", MeanOf(replay.cta_imbalance), "ratio", replay.steps);
  rep.Add("runtime.partial_rows_mean", MeanOf(replay.partial_rows), "count", replay.steps);
  rep.Add("gpusim.copy_queue_delay_us_p99", Pct(copy_delay_us, 0.99), "us",
          static_cast<int64_t>(copy_delay_us.size()));
  if (const auto hidden = m.SwapOverlapEfficiency()) {
    rep.Add("kvcache.swap_hidden_frac", *hidden, "fraction", m.num_swap_restores);
  }

  rep.Add("kvcache.preemptions", static_cast<double>(m.num_preemptions), "count");
  rep.Add("kvcache.swap_restores", static_cast<double>(m.num_swap_restores), "count");
  rep.Add("kvcache.recompute_restores", static_cast<double>(m.num_recompute_restores), "count");
  rep.Add("kvcache.evicted_pages", static_cast<double>(m.evicted_pages), "count");
  std::vector<double> util;
  for (double v : kv_device) util.push_back(v / static_cast<double>(kv_budget));
  rep.Add("kvcache.device_kv_util_mean", MeanOf(util), "fraction",
          static_cast<int64_t>(util.size()));
  if (m.evicted_logical_bytes > 0.0) {
    rep.Add("kvcache.host_stored_ratio", m.HostStoredRatio(), "ratio", m.num_preemptions);
  }
  if (m.quant_mse_pages > 0) {
    rep.Add("kvcache.quant_mse", m.MeanPageQuantMse(), "mse", m.quant_mse_pages);
  }
}

void AddCodecLayers(Report& rep, const CodecReplay& c) {
  rep.Add("codec.encode_gbps", c.encode_s > 0.0 ? c.logical_bytes / c.encode_s * 1e-9 : 0.0,
          "GB/s", c.pages);
  rep.Add("codec.decode_gbps", c.decode_s > 0.0 ? c.logical_bytes / c.decode_s * 1e-9 : 0.0,
          "GB/s", c.pages);
}

/// Set-up time samples at reference speed: workload generation plus engine
/// or cluster construction, repeated so the reported median is steady.
/// `make` returns something derived from its work so none of it is elided.
template <typename MakeFn>
std::vector<double> TimeSetups(MakeFn make) {
  constexpr int kSetupReps = 15;
  std::vector<double> out;
  size_t sink = 0;
  const double before = HostScale();
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    sink += make();
    out.push_back(SecondsSince(t0));
  }
  const double scale = 0.5 * (before + HostScale());
  for (auto& t : out) t *= scale;
  FI_CHECK_GT(sink, 0u);
  return out;
}

/// Trace ring size for a run of `steps` engine steps over `requests`.
int64_t TraceCapacity(int64_t steps, int64_t requests) {
  return steps * 32 + requests * 32 + 4096;
}

int64_t CountSteps(const std::vector<TraceEvent>& events) {
  int64_t n = 0;
  for (const auto& e : events) n += e.name == TraceName::kStep ? 1 : 0;
  return n;
}

}  // namespace

// --- fleet_chat -------------------------------------------------------------

Outcome RunFleetChat(const Args& args, Report& rep, Gates& gates, SpanLog& spans) {
  const ClusterConfig cfg = FleetConfig();

  if (!args.trace) {
    const auto setup_s = TimeSetups([&] {
      const auto r = FleetRequests(args.seed);
      ClusterEngine e(cfg);
      return r.size();
    });
    const auto reqs = FleetRequests(args.seed);
    std::vector<double> host_s, raw_s;  // Reference-speed and raw seconds.
    ClusterMetrics first;
    const auto t_begin = Clock::now();
    while (host_s.size() < 3 || (SecondsSince(t_begin) < args.seconds && host_s.size() < 50)) {
      ClusterEngine engine(cfg);
      const double before = HostScale();
      const auto t1 = Clock::now();
      ClusterMetrics m = engine.Run(reqs);
      raw_s.push_back(SecondsSince(t1));
      host_s.push_back(raw_s.back() * 0.5 * (before + HostScale()));
      if (host_s.size() == 1) {
        first = std::move(m);
      } else if (host_s.size() == 2) {
        gates.Check(SameSimulation(first.aggregate, m.aggregate),
                    "fleet_chat: repeated run is bit-identical in simulated time");
      }
    }
    std::printf("fleet_chat: %zu timed runs, median %.4f s raw, %.4f s at reference speed, "
                "%lld steps each\n",
                host_s.size(), Pct(raw_s, 0.5), Pct(host_s, 0.5),
                static_cast<long long>(first.aggregate.num_steps));
    CheckConservation(gates, "fleet_chat", first.aggregate, reqs);
    const SimSummary s = Summarize(first.aggregate, reqs, cfg.engine);
    const double goodput = Goodput(reqs, s, [&](const std::vector<Request>& w) {
      return Summarize(ClusterEngine(cfg).Run(w).aggregate, w, cfg.engine);
    });
    const double flops = AttentionWork(reqs, cfg.engine.model).flops;
    AddEndToEnd(rep, s, goodput, Pct(host_s, 0.5), Pct(setup_s, 0.5),
                static_cast<int64_t>(host_s.size()), static_cast<int64_t>(setup_s.size()),
                flops);
    return {s.attempted, s.failed};
  }

  // Traced run: untraced and traced cluster runs alternate until --seconds
  // elapse (their medians give the tracing overhead), then the last trace is
  // replayed into the layers.
  const auto reqs = FleetRequests(args.seed);
  ClusterConfig tcfg = cfg;
  tcfg.engine.trace.enabled = true;
  ClusterMetrics plain, traced;
  std::unique_ptr<ClusterEngine> traced_engine;
  std::vector<double> plain_s, traced_s;
  const auto t_begin = Clock::now();
  while (plain_s.empty() || SecondsSince(t_begin) < args.seconds) {
    {
      Scope s(spans, "cluster.run");
      const auto t0 = Clock::now();
      plain = ClusterEngine(cfg).Run(reqs);
      plain_s.push_back(SecondsSince(t0));
    }
    int64_t max_steps = 0;
    for (const auto& m : plain.per_replica) max_steps = std::max(max_steps, m.num_steps);
    tcfg.engine.trace.capacity = TraceCapacity(max_steps, static_cast<int64_t>(reqs.size()));
    traced_engine = std::make_unique<ClusterEngine>(tcfg);
    {
      Scope s(spans, "cluster.run_traced");
      const auto t0 = Clock::now();
      traced = traced_engine->Run(reqs);
      traced_s.push_back(SecondsSince(t0));
    }
  }
  gates.Check(SameSimulation(plain.aggregate, traced.aggregate),
              "fleet_chat: traced run bit-identical to untraced in simulated time");
  CheckConservation(gates, "fleet_chat", traced.aggregate, reqs);

  // Router decisions and per-replica KV drain from the merged trace.
  std::map<int, std::pair<int, int64_t>> route;  // req -> (replica, cached prefix)
  int64_t traced_steps = 0;
  int replica_tracks = 0;
  for (const auto& track : traced_engine->LastTrace()) {
    traced_steps += CountSteps(track.events);
    double last_kv = -1.0;
    for (const auto& e : track.events) {
      if (e.name == TraceName::kRouteDecision) route[e.req] = {static_cast<int>(e.a), e.b};
      if (e.name == TraceName::kCtrKvDevice) last_kv = e.v;
    }
    if (last_kv >= 0.0) {
      ++replica_tracks;
      gates.Check(last_kv == 0.0, "fleet_chat: replica '" + track.name +
                                      "' device KV drained to 0");
    }
  }
  gates.Check(replica_tracks == cfg.num_replicas, "fleet_chat: every replica traced");
  gates.Check(static_cast<int64_t>(route.size()) == static_cast<int64_t>(reqs.size()),
              "fleet_chat: one route decision per request");
  const int64_t dropped_cluster = traced.aggregate.num_steps - traced_steps;

  // Router-side prefix mirror replay at the cluster's page budget.
  std::vector<RadixTree> trees;
  std::vector<int64_t> next_page(static_cast<size_t>(cfg.num_replicas), 0);
  for (int i = 0; i < cfg.num_replicas; ++i) trees.emplace_back(cfg.engine.page_size);
  int64_t evicted = 0, mismatches = 0;
  std::vector<Request> replica0;
  for (const auto& r : reqs) {
    const auto [replica, cached] = route[r.id];
    auto& tree = trees[static_cast<size_t>(replica)];
    RadixTree::MatchResult match;
    {
      Scope s(spans, "kvcache.radix_match", -1, r.id);
      match = tree.MatchPrefix(r.prompt_tokens);
    }
    mismatches += match.matched_tokens != cached ? 1 : 0;
    {
      Scope s(spans, "kvcache.radix_insert", -1, r.id);
      const int64_t full = static_cast<int64_t>(r.prompt_tokens.size()) / cfg.engine.page_size;
      std::vector<int64_t> pages(static_cast<size_t>(full));
      std::iota(pages.begin(), pages.end(), next_page[static_cast<size_t>(replica)]);
      next_page[static_cast<size_t>(replica)] += full;
      tree.Insert(r.prompt_tokens, pages);
      if (tree.TotalCachedPages() > cfg.prefix_cache_pages) {
        evicted += static_cast<int64_t>(
            tree.EvictLru(tree.TotalCachedPages() - cfg.prefix_cache_pages).size());
      }
    }
    if (replica == 0) {
      Request routed = r;
      routed.cached_prefix_len = cached;
      replica0.push_back(routed);
    }
  }
  gates.Check(mismatches == 0, "fleet_chat: radix replay matches the router's cached prefixes");

  // Replica 0 re-driven stepwise with the requests the router sent it.
  EngineConfig ecfg = tcfg.engine;
  ecfg.trace.capacity = TraceCapacity(plain.per_replica[0].num_steps,
                                      static_cast<int64_t>(replica0.size()));
  ServingEngine engine(ecfg);
  DriveStepwise(engine, replica0, &spans);
  gates.Check(SameSimulation(engine.Metrics(), traced.per_replica[0]),
              "fleet_chat: replica 0 re-driven stepwise matches its cluster run");
  gates.Check(engine.KvTokensInUse() == 0 && engine.HostKvTokensInUse() == 0 &&
                  engine.SpecKvLivePages() == 0,
              "fleet_chat: replica 0 device and host KV drained to 0");
  const auto events = engine.TraceEvents();
  const int64_t dropped = engine.Trace()->dropped() + dropped_cluster;
  gates.Check(dropped == 0, "fleet_chat: no trace events dropped");
  const StepReplay replay = ReplaySteps(events, replica0, ecfg, args.seed, spans);
  AddServingLayers(rep, engine.Metrics(), events, spans, replay, engine.KvTokenBudget());

  const auto match_us = spans.DurationsUs("kvcache.radix_match");
  const auto insert_us = spans.DurationsUs("kvcache.radix_insert");
  rep.Add("kvcache.radix_match_host_us_p50", Pct(match_us, 0.5), "us",
          static_cast<int64_t>(match_us.size()));
  rep.Add("kvcache.radix_match_host_us_p99", Pct(match_us, 0.99), "us",
          static_cast<int64_t>(match_us.size()));
  rep.Add("kvcache.radix_insert_host_us_p50", Pct(insert_us, 0.5), "us",
          static_cast<int64_t>(insert_us.size()));
  rep.Add("kvcache.radix_insert_host_us_p99", Pct(insert_us, 0.99), "us",
          static_cast<int64_t>(insert_us.size()));
  rep.Add("kvcache.radix_evicted_pages", static_cast<double>(evicted), "count");

  double util_min = 1.0;
  for (double u : traced.replica_utilization) util_min = std::min(util_min, u);
  rep.Add("cluster.prefix_hit_rate", traced.prefix_hit_rate, "fraction",
          static_cast<int64_t>(reqs.size()));
  rep.Add("cluster.load_imbalance", traced.load_imbalance, "ratio", cfg.num_replicas);
  rep.Add("cluster.load_fallbacks", static_cast<double>(traced.router.load_fallbacks), "count");
  rep.Add("cluster.replica_util_min", util_min, "fraction", cfg.num_replicas);
  rep.Add("cluster.run_host_s", Pct(plain_s, 0.5), "s", static_cast<int64_t>(plain_s.size()));

  rep.Add("obs.trace_overhead_frac", Pct(traced_s, 0.5) / Pct(plain_s, 0.5) - 1.0, "fraction",
          static_cast<int64_t>(traced_s.size()));
  rep.Add("obs.trace_dropped", static_cast<double>(dropped), "count");
  return {static_cast<int64_t>(reqs.size()),
          static_cast<int64_t>(reqs.size()) -
              static_cast<int64_t>(traced.aggregate.ttft_ms.size())};
}

// --- longctx_pressure -------------------------------------------------------

Outcome RunLongctxPressure(const Args& args, Report& rep, Gates& gates, SpanLog& spans) {
  const EngineConfig cfg = LongctxConfig();

  auto check_drained = [&gates](const ServingEngine& e) {
    gates.Check(e.KvTokensInUse() == 0 && e.HostKvTokensInUse() == 0 &&
                    e.SpecKvLivePages() == 0 && e.PreemptedBranches() == 0,
                "longctx_pressure: device and host KV drained to 0");
  };

  if (!args.trace) {
    const auto setup_s = TimeSetups([&] {
      const auto r = LongctxRequests(args.seed);
      ServingEngine e(cfg);
      return r.size();
    });
    const auto reqs = LongctxRequests(args.seed);
    std::vector<double> host_s, raw_s;  // Reference-speed and raw seconds.
    ServingMetrics first;
    const auto t_begin = Clock::now();
    while (host_s.size() < 3 || (SecondsSince(t_begin) < args.seconds && host_s.size() < 50)) {
      ServingEngine engine(cfg);
      const double before = HostScale();
      const auto t1 = Clock::now();
      ServingMetrics m = engine.Run(reqs);
      raw_s.push_back(SecondsSince(t1));
      host_s.push_back(raw_s.back() * 0.5 * (before + HostScale()));
      if (host_s.size() == 1) {
        check_drained(engine);
        first = std::move(m);
      } else if (host_s.size() == 2) {
        gates.Check(SameSimulation(first, m),
                    "longctx_pressure: repeated run is bit-identical in simulated time");
      }
    }
    std::printf("longctx_pressure: %zu timed runs, median %.4f s raw, %.4f s at reference "
                "speed, %lld steps each\n",
                host_s.size(), Pct(raw_s, 0.5), Pct(host_s, 0.5),
                static_cast<long long>(first.num_steps));
    CheckConservation(gates, "longctx_pressure", first, reqs);
    const SimSummary s = Summarize(first, reqs, cfg, kLongctxSloClass);
    const double goodput = Goodput(reqs, s, [&](const std::vector<Request>& w) {
      return Summarize(ServingEngine(cfg).Run(w), w, cfg, kLongctxSloClass);
    });
    const double flops = AttentionWork(reqs, cfg.model).flops;
    AddEndToEnd(rep, s, goodput, Pct(host_s, 0.5), Pct(setup_s, 0.5),
                static_cast<int64_t>(host_s.size()), static_cast<int64_t>(setup_s.size()),
                flops);
    return {s.attempted, s.failed};
  }

  // Traced run: untraced and traced stepwise drives alternate until --seconds
  // elapse (their medians give the tracing overhead); one more traced drive
  // records the benchmark's per-step spans, and its trace is replayed.
  const auto reqs = LongctxRequests(args.seed);
  EngineConfig tcfg = cfg;
  tcfg.trace.enabled = true;
  ServingEngine plain_engine(cfg);
  std::unique_ptr<ServingEngine> traced_engine;
  std::vector<double> plain_s, traced_s;
  const auto t_begin = Clock::now();
  while (plain_s.empty() || SecondsSince(t_begin) < args.seconds) {
    plain_s.push_back(DriveStepwise(plain_engine, reqs, nullptr));
    if (!traced_engine) {
      tcfg.trace.capacity = TraceCapacity(plain_engine.Metrics().num_steps,
                                          static_cast<int64_t>(reqs.size()));
      traced_engine = std::make_unique<ServingEngine>(tcfg);
    }
    traced_s.push_back(DriveStepwise(*traced_engine, reqs, nullptr));
  }
  const ServingMetrics& plain = plain_engine.Metrics();
  gates.Check(SameSimulation(plain, ServingEngine(cfg).Run(reqs)),
              "longctx_pressure: stepwise StepTo drive matches Run()");
  gates.Check(SameSimulation(plain, traced_engine->Metrics()),
              "longctx_pressure: traced run bit-identical to untraced in simulated time");
  ServingEngine& engine = *traced_engine;
  DriveStepwise(engine, reqs, &spans);
  CheckConservation(gates, "longctx_pressure", engine.Metrics(), reqs);
  check_drained(engine);
  const auto events = engine.TraceEvents();
  const int64_t dropped = engine.Trace()->dropped();
  gates.Check(dropped == 0, "longctx_pressure: no trace events dropped");

  const StepReplay replay = ReplaySteps(events, reqs, tcfg, args.seed, spans);
  AddServingLayers(rep, engine.Metrics(), events, spans, replay, engine.KvTokenBudget());
  const CodecReplay codec = ReplayCodec(events, tcfg, args.seed, spans);
  gates.Check(codec.max_abs_err < 0.1, "longctx_pressure: codec replay round-trips pages");
  AddCodecLayers(rep, codec);
  rep.Add("obs.trace_overhead_frac", Pct(traced_s, 0.5) / Pct(plain_s, 0.5) - 1.0, "fraction",
          static_cast<int64_t>(traced_s.size()));
  rep.Add("obs.trace_dropped", static_cast<double>(dropped), "count");
  return {static_cast<int64_t>(reqs.size()),
          static_cast<int64_t>(reqs.size()) -
              static_cast<int64_t>(engine.Metrics().ttft_ms.size())};
}

}  // namespace pb

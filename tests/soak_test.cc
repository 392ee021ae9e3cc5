// Randomized cross-subsystem soak/property harness.
//
// Every trial draws a random config point — chunking on/off, speculative
// decoding on/off, preemption on/off (random restore policy), tight vs loose
// KV budget, batch policy — and a random bursty workload admitted in
// *shuffled* order, then asserts the whole-engine invariants that every
// subsystem must preserve when composed with the others:
//
//   1. the drain loop terminates (bounded step count, so a wedge prints the
//      reproducing seed instead of hanging the test runner),
//   2. exact KV accounting: KvTokensInUse()==0, HostKvTokensInUse()==0 and
//      SpecKvLivePages()==0 after the drain,
//   3. every admitted (non-rejected) request completes exactly once,
//   4. on a fixed-seed subset, Run() ≡ an external Admit/StepTo loop.
//
// A failing trial prints `seed=...` — rerun with that seed to reproduce.
// Trial count: FI_SOAK_TRIALS (default 50; 0 skips the randomized test —
// CI's sanitizer job runs only the 3 pinned seeds, which are always on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <unistd.h>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "obs/export.h"
#include "serving/engine.h"

namespace flashinfer {
namespace {

// FI_CHECK failures abort the process before gtest can print SCOPED_TRACE,
// so the reproducing seed is echoed from a SIGABRT handler too.
volatile uint64_t g_current_seed = 0;
// Engine of the trial in flight, for the abort-path trace dump.
const serving::ServingEngine* g_current_engine = nullptr;

/// Writes the trial's trailing trace window (Perfetto + JSONL) next to the
/// reproducing seed, into $FI_SOAK_DUMP_DIR (default: cwd). Every trial runs
/// with tracing on, so a failure ships the event history that led up to it.
void DumpTrialTrace(const std::vector<obs::TraceTrack>& tracks, uint64_t seed) {
  const char* dir = std::getenv("FI_SOAK_DUMP_DIR");
  const std::string base = std::string(dir != nullptr ? dir : ".") +
                           "/soak_seed_" + std::to_string(seed);
  obs::WritePerfettoFile(base + ".trace.json", tracks);
  obs::WriteJsonlFile(base + ".trace.jsonl", tracks);
  std::fprintf(stderr, "[soak] trailing trace dumped to %s.trace.json\n",
               base.c_str());
}

void AbortSeedReporter(int) {
  std::signal(SIGABRT, SIG_DFL);  // A nested failure falls through to core.
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "\n[soak] seed=%llu\n",
                              static_cast<unsigned long long>(g_current_seed));
  if (n > 0) {
    [[maybe_unused]] auto r = write(2, buf, static_cast<size_t>(n));
  }
  // Best-effort trace dump. Not async-signal-safe in general, but the abort
  // comes from a logic FI_CHECK (heap intact), the process is dying anyway,
  // and the handler has already been reset so a nested crash still aborts.
  if (g_current_engine != nullptr) {
    const serving::ServingEngine* engine = g_current_engine;
    g_current_engine = nullptr;
    DumpTrialTrace({{"engine", engine->TraceEvents()}}, g_current_seed);
  }
  std::abort();
}

struct InstallAbortReporter {
  InstallAbortReporter() { std::signal(SIGABRT, AbortSeedReporter); }
} g_install_abort_reporter;

using serving::BatchPolicy;
using serving::EngineConfig;
using serving::Request;
using serving::RestorePolicy;
using serving::ServingEngine;
using serving::ServingMetrics;

double HbmForBudget(const EngineConfig& cfg, int64_t budget_tokens) {
  const double kv_bytes = static_cast<double>(budget_tokens) *
                          cfg.model.KvBytesPerToken(cfg.backend.kv_dtype) / 0.9;
  return (cfg.model.WeightBytesPerGpu() + kv_bytes) / 1e9;
}

EngineConfig RandomConfig(Rng& rng) {
  EngineConfig cfg;
  cfg.model = serving::Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = serving::FlashInferBackend();
  // Every trial records a trailing trace window: failures dump it, and the
  // emission paths themselves soak across the whole random config space.
  // A small ring keeps the per-trial cost flat and exercises wraparound.
  cfg.trace.enabled = true;
  cfg.trace.capacity = 4096;
  // Telemetry rides every trial: the publication sites soak across the whole
  // config space and the registry is reconciled against ServingMetrics after
  // each drain. Randomized window geometry exercises the slot-ring epochs.
  cfg.telemetry.enabled = true;
  cfg.telemetry.window.window_s = rng.Uniform(2.0, 20.0);
  cfg.telemetry.window.slots = static_cast<int>(rng.UniformInt(2, 8));
  cfg.telemetry.bounded_itl = rng.NextDouble() < 0.25;
  // Chunking on/off; when on, vary the chunk size.
  cfg.prefill_chunk_tokens =
      rng.NextDouble() < 0.25 ? 0 : rng.UniformInt(256, 2048);
  cfg.batch_policy = rng.NextDouble() < 0.5 ? BatchPolicy::kDecodePriority
                                            : BatchPolicy::kThroughputPriority;
  // Spec decode on/off.
  if (rng.NextDouble() < 0.4) {
    cfg.spec.enabled = true;
    cfg.spec.tree.depth = static_cast<int>(rng.UniformInt(1, 3));
    cfg.spec.tree.branching = static_cast<int>(rng.UniformInt(1, 2));
  }
  // Preemption on/off with a random restore policy, host tier, and transfer
  // model (serialized legacy swaps vs overlapped copy streams).
  if (rng.NextDouble() < 0.5) {
    cfg.preemption.enabled = true;
    const double u = rng.NextDouble();
    cfg.preemption.restore = u < 0.34   ? RestorePolicy::kSwap
                             : u < 0.67 ? RestorePolicy::kRecompute
                                        : RestorePolicy::kAuto;
    cfg.preemption.host_capacity_gb = rng.NextDouble() < 0.3 ? 0.25 : 8.0;
    cfg.preemption.overlap_swap = rng.NextDouble() < 0.5;
    // Host-tier codec on half the preempting trials: random quant format
    // (incl. none = compress-only lossless) x compression coin-flip.
    if (rng.NextDouble() < 0.5) {
      cfg.preemption.host_codec.quant =
          static_cast<KvQuantFormat>(rng.UniformInt(0, 3));
      cfg.preemption.host_codec.compress = rng.NextDouble() < 0.5;
    }
  }
  // Tight vs loose KV budget.
  cfg.hbm_capacity_gb = rng.NextDouble() < 0.55
                            ? HbmForBudget(cfg, rng.UniformInt(2500, 9000))
                            : 80.0;
  return cfg;
}

std::vector<Request> RandomWorkload(Rng& rng) {
  std::vector<Request> reqs;
  const double choice = rng.NextDouble();
  if (choice < 0.4) {
    serving::BurstyPrefillConfig w;
    w.num_steady = static_cast<int>(rng.UniformInt(15, 35));
    w.steady_rate = rng.Uniform(15.0, 45.0);
    w.num_bursts = static_cast<int>(rng.UniformInt(1, 3));
    w.burst_size = static_cast<int>(rng.UniformInt(2, 4));
    w.burst_input_lo = 2048;
    w.burst_input_hi = 6144;
    reqs = serving::BurstyLongPrefillWorkload(rng, w);
  } else if (choice < 0.7) {
    reqs = serving::UniformWorkload(rng, static_cast<int>(rng.UniformInt(20, 45)),
                                    rng.Uniform(15.0, 50.0), 128, 1536,
                                    rng.UniformInt(16, 192));
  } else {
    reqs = serving::ShareGptWorkload(rng, static_cast<int>(rng.UniformInt(20, 45)),
                                     rng.Uniform(10.0, 30.0));
    // Occasional parallel-generation groups (never preempted, but they
    // stress the shared-prefix fork paths under pressure).
    for (auto& r : reqs) {
      if (rng.NextDouble() < 0.15) r.parallel_n = 2;
    }
  }
  serving::AssignPriorities(rng, reqs, {0.6, 0.3, 0.1});
  serving::AssignAcceptance(rng, reqs, 0.3, 0.95);
  return reqs;
}

int64_t ExpectedOutputTokens(const Request& r) {
  const int n = std::max(1, r.parallel_n);
  return n > 1 ? 1 + static_cast<int64_t>(n) * std::max<int64_t>(r.output_len - 1, 0)
               : std::max<int64_t>(r.output_len, 1);
}

/// Drains with a step bound so a future admission wedge fails with the
/// reproducing seed instead of hanging the test binary until its timeout.
void BoundedDrain(ServingEngine& engine) {
  for (int64_t i = 0; i < 500000 && !engine.Finished(); ++i) {
    engine.StepTo(engine.NextEventTime());
  }
  ASSERT_TRUE(engine.Finished()) << "drain did not terminate";
}

/// Failed gtest assertion parts recorded so far in the current test (used to
/// detect whether THIS trial failed, across the many trials one TEST runs).
int FailedPartCount() {
  const auto* result =
      ::testing::UnitTest::GetInstance()->current_test_info()->result();
  int failed = 0;
  for (int i = 0; i < result->total_part_count(); ++i) {
    if (result->GetTestPartResult(i).failed()) ++failed;
  }
  return failed;
}

void RunEngineTrial(uint64_t seed, bool check_step_equiv) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  g_current_seed = seed;
  const int failed_before = FailedPartCount();
  Rng rng(seed);
  const EngineConfig cfg = RandomConfig(rng);
  std::vector<Request> reqs = RandomWorkload(rng);

  // Shuffled admission order: the engine must behave identically no matter
  // the order simultaneous arrivals are enqueued in.
  std::vector<Request> shuffled = reqs;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }

  ServingEngine engine(cfg);
  g_current_engine = &engine;
  engine.Reset();
  for (const auto& r : shuffled) engine.Admit(r);
  BoundedDrain(engine);
  if (::testing::Test::HasFatalFailure()) {
    DumpTrialTrace({{"engine", engine.TraceEvents()}}, seed);
    g_current_engine = nullptr;
    return;
  }

  const ServingMetrics& m = engine.Metrics();
  // Exact KV accounting on both tiers, and a clean structural page pool.
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(engine.HostKvTokensInUse(), 0);
  EXPECT_EQ(engine.SpecKvLivePages(), 0);
  EXPECT_EQ(engine.PreemptedBranches(), 0);
  EXPECT_EQ(engine.QueuedTokens(), 0);

  // Every admitted request completed exactly once; rejections only under a
  // budget no request-sized engine could ever satisfy.
  EXPECT_EQ(m.ttft_ms.size() + static_cast<size_t>(m.rejected_requests),
            reqs.size());
  EXPECT_EQ(m.ttft_ms.size(), m.ttft_priority.size());
  if (m.rejected_requests == 0) {
    int64_t expected = 0;
    for (const auto& r : reqs) expected += ExpectedOutputTokens(r);
    EXPECT_EQ(m.total_output_tokens, expected);
  } else {
    EXPECT_GT(m.total_output_tokens, 0);
  }
  // Restores must balance preemptions: nothing stays evicted.
  EXPECT_EQ(m.num_swap_restores + m.num_recompute_restores, m.num_preemptions);
  EXPECT_EQ(m.restored_pages == 0, m.num_swap_restores == 0);
  // Swap-time decomposition. Legacy mode serializes every swap into the next
  // step (all stall, nothing hidden); overlap mode hides transfer time behind
  // compute, bounded by the total transfer time actually enqueued.
  EXPECT_GE(m.swap_hidden_ms, 0.0);
  EXPECT_GE(m.swap_stall_ms, 0.0);
  if (cfg.preemption.overlap_swap) {
    EXPECT_LE(m.swap_hidden_ms, m.total_swap_ms * (1.0 + 1e-9));
    EXPECT_GE(m.SwapOverlapEfficiency().value_or(0.0), 0.0);
    EXPECT_LE(m.SwapOverlapEfficiency().value_or(0.0), 1.0 + 1e-9);
  } else {
    EXPECT_DOUBLE_EQ(m.swap_hidden_ms, 0.0);
    EXPECT_NEAR(m.swap_stall_ms, m.total_swap_ms,
                1e-9 * std::max(1.0, m.total_swap_ms));
  }
  // Host-codec accounting invariants across the random codec space.
  const auto& codec = cfg.preemption.host_codec;
  EXPECT_GE(m.evicted_stored_bytes, 0.0);
  EXPECT_GE(m.codec_encode_ms, 0.0);
  EXPECT_GE(m.codec_decode_ms, 0.0);
  EXPECT_TRUE(std::isfinite(m.MeanPageQuantMse()));
  EXPECT_GE(m.MeanPageQuantMse(), 0.0);
  if (!codec.enabled()) {
    // Codec off: the raw tier's byte series degenerate to logical == stored
    // and no codec time or quantization error may accrue.
    EXPECT_DOUBLE_EQ(m.evicted_stored_bytes, m.evicted_logical_bytes);
    EXPECT_DOUBLE_EQ(m.codec_encode_ms, 0.0);
    EXPECT_DOUBLE_EQ(m.codec_decode_ms, 0.0);
    EXPECT_EQ(m.quant_mse_pages, 0);
    EXPECT_DOUBLE_EQ(m.HostStoredRatio(), 1.0);
  } else if (m.evicted_logical_bytes > 0.0) {
    // Quantized pages store at most the int8/fp8 bound (< 1x of f16);
    // compress-only pages may pay the blob header on incompressible data
    // but never exceed the all-literals bound.
    EXPECT_LE(m.HostStoredRatio(),
              codec.quant != KvQuantFormat::kNone ? 1.0 : 1.5);
    EXPECT_GT(m.evicted_stored_bytes, 0.0);
    EXPECT_GT(m.codec_encode_ms, 0.0);
    if (codec.quant == KvQuantFormat::kNone) {
      EXPECT_EQ(m.quant_mse_pages, 0);
    }
  }

  // The telemetry registry must reconcile with ServingMetrics on every
  // trial: each published counter shadows a metrics field exactly, and the
  // per-class latency sketches tile the aggregate sample counts.
  {
    const obs::MetricsRegistry* reg = engine.Telemetry();
    ASSERT_NE(reg, nullptr);
    const auto total = [&](const char* name) { return reg->CounterFamilyTotal(name); };
    EXPECT_DOUBLE_EQ(total("fi_steps_total"), static_cast<double>(m.num_steps));
    EXPECT_DOUBLE_EQ(total("fi_output_tokens_total"),
                     static_cast<double>(m.total_output_tokens));
    EXPECT_DOUBLE_EQ(total("fi_tokens_total"),
                     static_cast<double>(m.total_output_tokens));
    EXPECT_DOUBLE_EQ(total("fi_prefill_tokens_total"),
                     static_cast<double>(m.total_prefill_tokens));
    EXPECT_DOUBLE_EQ(total("fi_recompute_tokens_total"),
                     static_cast<double>(m.recompute_tokens));
    EXPECT_DOUBLE_EQ(total("fi_preemptions_total"),
                     static_cast<double>(m.num_preemptions));
    EXPECT_DOUBLE_EQ(total("fi_requests_rejected_total"),
                     static_cast<double>(m.rejected_requests));
    EXPECT_DOUBLE_EQ(total("fi_swap_restores_total"),
                     static_cast<double>(m.num_swap_restores));
    EXPECT_DOUBLE_EQ(total("fi_recompute_restores_total"),
                     static_cast<double>(m.num_recompute_restores));
    EXPECT_DOUBLE_EQ(total("fi_evicted_pages_total"),
                     static_cast<double>(m.evicted_pages));
    EXPECT_DOUBLE_EQ(total("fi_restored_pages_total"),
                     static_cast<double>(m.restored_pages));
    EXPECT_NEAR(total("fi_swap_ms_total"), m.total_swap_ms,
                1e-9 * std::max(1.0, m.total_swap_ms));
    EXPECT_NEAR(total("fi_swap_stall_ms_total"), m.swap_stall_ms,
                1e-9 * std::max(1.0, m.swap_stall_ms));
    EXPECT_NEAR(total("fi_swap_hidden_ms_total"), m.swap_hidden_ms,
                1e-9 * std::max(1.0, m.swap_hidden_ms));
    // Codec series counters shadow their metrics fields exactly (zero-valued
    // but reconciled on codec-off trials).
    EXPECT_NEAR(total("fi_kv_evicted_logical_bytes_total"), m.evicted_logical_bytes,
                1e-9 * std::max(1.0, m.evicted_logical_bytes));
    EXPECT_NEAR(total("fi_kv_evicted_stored_bytes_total"), m.evicted_stored_bytes,
                1e-9 * std::max(1.0, m.evicted_stored_bytes));
    EXPECT_NEAR(total("fi_codec_encode_ms_total"), m.codec_encode_ms,
                1e-9 * std::max(1.0, m.codec_encode_ms));
    EXPECT_NEAR(total("fi_codec_decode_ms_total"), m.codec_decode_ms,
                1e-9 * std::max(1.0, m.codec_decode_ms));
    EXPECT_NEAR(total("fi_quant_mse_sum_total"), m.quant_mse_sum,
                1e-9 * std::max(1.0, m.quant_mse_sum));
    EXPECT_DOUBLE_EQ(total("fi_quant_mse_pages_total"),
                     static_cast<double>(m.quant_mse_pages));
    int64_t ttft_samples = 0, itl_samples = 0;
    for (const auto& [name, label_key] : reg->InstanceNames()) {
      if (name != "fi_ttft_ms" && name != "fi_itl_ms") continue;
      // Reconstruct the class labels from the canonical key (k=v,k=v).
      obs::LabelSet labels;
      size_t pos = 0;
      while (pos < label_key.size()) {
        const size_t eq = label_key.find('=', pos);
        size_t end = label_key.find(',', eq);
        if (end == std::string::npos) end = label_key.size();
        labels = labels.With(label_key.substr(pos, eq - pos),
                             label_key.substr(eq + 1, end - eq - 1));
        pos = end + 1;
      }
      const obs::Sketch* s = reg->FindSketch(name, labels);
      ASSERT_NE(s, nullptr) << name << "{" << label_key << "}";
      (name == "fi_ttft_ms" ? ttft_samples : itl_samples) += s->Cumulative().Count();
    }
    EXPECT_EQ(ttft_samples, static_cast<int64_t>(m.ttft_ms.size()));
    EXPECT_EQ(itl_samples, m.ItlCount());
  }

  g_current_engine = nullptr;
  if (!check_step_equiv) {
    if (FailedPartCount() > failed_before) {
      DumpTrialTrace({{"engine", engine.TraceEvents()}}, seed);
    }
    return;
  }
  // Run() ≡ external Admit/StepTo loop with rng-jittered deadlines.
  ServingEngine reference(cfg);
  const auto run = reference.Run(reqs);
  ServingEngine stepped(cfg);
  stepped.Reset();
  for (const auto& r : shuffled) stepped.Admit(r);
  for (int64_t i = 0; i < 500000 && !stepped.Finished(); ++i) {
    stepped.StepTo(stepped.NextEventTime() + rng.Uniform(0.0, 0.05));
  }
  ASSERT_TRUE(stepped.Finished());
  const ServingMetrics& st = stepped.Metrics();
  EXPECT_DOUBLE_EQ(st.makespan_s, run.makespan_s);
  EXPECT_EQ(st.num_steps, run.num_steps);
  EXPECT_EQ(st.total_output_tokens, run.total_output_tokens);
  EXPECT_EQ(st.num_preemptions, run.num_preemptions);
  EXPECT_EQ(st.rejected_requests, run.rejected_requests);
  ASSERT_EQ(st.ttft_ms.size(), run.ttft_ms.size());
  for (size_t i = 0; i < st.ttft_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(st.ttft_ms[i], run.ttft_ms[i]) << "ttft " << i;
  }
  ASSERT_EQ(st.itl_ms.size(), run.itl_ms.size());
  for (size_t i = 0; i < st.itl_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(st.itl_ms[i], run.itl_ms[i]) << "itl " << i;
  }
  if (FailedPartCount() > failed_before) {
    DumpTrialTrace({{"engine", engine.TraceEvents()}}, seed);
  }
}

void RunClusterTrial(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  g_current_seed = seed;
  g_current_engine = nullptr;  // Abort-path dump only covers engine trials.
  const int failed_before = FailedPartCount();
  Rng rng(seed);
  cluster::ClusterConfig cfg;
  cfg.engine = RandomConfig(rng);
  cfg.num_replicas = 4;
  const double u = rng.NextDouble();
  cfg.policy = u < 0.34   ? cluster::RouterPolicy::kRoundRobin
               : u < 0.67 ? cluster::RouterPolicy::kLeastLoaded
                          : cluster::RouterPolicy::kPrefixAffinity;

  serving::TenantPoolConfig tcfg;
  tcfg.num_tenants = static_cast<int>(rng.UniformInt(4, 12));
  auto reqs = serving::MultiTenantWorkload(
      rng, static_cast<int>(rng.UniformInt(30, 60)), rng.Uniform(20.0, 60.0), tcfg);
  serving::AssignPriorities(rng, reqs, {0.7, 0.3});
  serving::AssignAcceptance(rng, reqs, 0.3, 0.95);

  cluster::ClusterEngine cluster(cfg);
  const auto m = cluster.Run(reqs);

  // Routed everywhere it was asked; every admitted request completed.
  EXPECT_EQ(m.router.routed, static_cast<int64_t>(reqs.size()));
  EXPECT_EQ(m.aggregate.ttft_ms.size() +
                static_cast<size_t>(m.aggregate.rejected_requests),
            reqs.size());
  EXPECT_EQ(m.aggregate.ttft_ms.size(), m.aggregate.ttft_priority.size());
  EXPECT_EQ(m.aggregate.num_swap_restores + m.aggregate.num_recompute_restores,
            m.aggregate.num_preemptions);
  int64_t per_replica_requests = 0;
  for (int64_t n : m.replica_requests) per_replica_requests += n;
  EXPECT_EQ(per_replica_requests, static_cast<int64_t>(reqs.size()));
  // The merged (replica-relabeled) registry reconciles with the aggregate.
  const obs::MetricsRegistry* reg = cluster.Telemetry();
  ASSERT_NE(reg, nullptr);
  EXPECT_DOUBLE_EQ(reg->CounterFamilyTotal("fi_output_tokens_total"),
                   static_cast<double>(m.aggregate.total_output_tokens));
  EXPECT_DOUBLE_EQ(reg->CounterFamilyTotal("fi_steps_total"),
                   static_cast<double>(m.aggregate.num_steps));
  EXPECT_DOUBLE_EQ(reg->CounterFamilyTotal("fi_preemptions_total"),
                   static_cast<double>(m.aggregate.num_preemptions));

  // Threaded twin: the identical config and workload driven over a worker
  // pool must reproduce the serial run bit-for-bit (replica state is
  // disjoint; the router barrier is the only sync point). The whole random
  // config space soaks through the parallel driver this way.
  {
    cluster::ClusterConfig tcfg2 = cfg;
    tcfg2.step_threads = 2 + static_cast<int>(seed % 3);
    cluster::ClusterEngine threaded(tcfg2);
    const auto tm = threaded.Run(reqs);
    EXPECT_DOUBLE_EQ(tm.makespan_s, m.makespan_s);
    EXPECT_EQ(tm.aggregate.num_steps, m.aggregate.num_steps);
    EXPECT_EQ(tm.aggregate.total_output_tokens, m.aggregate.total_output_tokens);
    EXPECT_EQ(tm.aggregate.num_preemptions, m.aggregate.num_preemptions);
    EXPECT_DOUBLE_EQ(tm.aggregate.total_swap_ms, m.aggregate.total_swap_ms);
    EXPECT_DOUBLE_EQ(tm.aggregate.swap_hidden_ms, m.aggregate.swap_hidden_ms);
    EXPECT_DOUBLE_EQ(tm.aggregate.swap_stall_ms, m.aggregate.swap_stall_ms);
    EXPECT_EQ(tm.replica_requests, m.replica_requests);
    ASSERT_EQ(tm.aggregate.ttft_ms.size(), m.aggregate.ttft_ms.size());
    for (size_t i = 0; i < tm.aggregate.ttft_ms.size(); ++i) {
      EXPECT_DOUBLE_EQ(tm.aggregate.ttft_ms[i], m.aggregate.ttft_ms[i]);
    }
    const obs::MetricsRegistry* treg = threaded.Telemetry();
    ASSERT_NE(treg, nullptr);
    EXPECT_EQ(treg->JsonSnapshot(tm.makespan_s), reg->JsonSnapshot(m.makespan_s));
  }

  if (FailedPartCount() > failed_before) {
    DumpTrialTrace(cluster.LastTrace(), seed);
  }
}

void RunDisaggTrial(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  g_current_seed = seed;
  g_current_engine = nullptr;
  const int failed_before = FailedPartCount();
  Rng rng(seed);
  cluster::ClusterConfig cfg;
  // The whole random engine config space (chunking, spec, preemption, tight
  // budgets) soaks through the disaggregated driver: export/import must
  // compose with every subsystem.
  cfg.engine = RandomConfig(rng);
  cfg.num_replicas = 4;
  cfg.disaggregated = true;
  cfg.prefill_replicas = 1 + static_cast<int>(rng.UniformInt(0, 2));
  cfg.migration_gbps = rng.Uniform(16.0, 128.0);
  cfg.migration_latency_us = rng.Uniform(50.0, 400.0);
  cfg.policy = rng.NextDouble() < 0.5 ? cluster::RouterPolicy::kRoundRobin
                                      : cluster::RouterPolicy::kLeastLoaded;

  serving::TenantPoolConfig tcfg;
  tcfg.num_tenants = static_cast<int>(rng.UniformInt(4, 12));
  auto reqs = serving::MultiTenantWorkload(
      rng, static_cast<int>(rng.UniformInt(30, 60)), rng.Uniform(20.0, 60.0), tcfg);
  serving::AssignPriorities(rng, reqs, {0.7, 0.3});
  serving::AssignAcceptance(rng, reqs, 0.3, 0.95);

  cluster::ClusterEngine cluster(cfg);
  const auto m = cluster.Run(reqs);

  // Conservation across pools: routed == workload, every admitted request
  // emitted its first token on the prefill pool, extraction == admission.
  EXPECT_EQ(m.router.routed, static_cast<int64_t>(reqs.size()));
  EXPECT_EQ(m.aggregate.ttft_ms.size() +
                static_cast<size_t>(m.aggregate.rejected_requests),
            reqs.size());
  EXPECT_EQ(m.decode_pool.ttft_ms.size(), 0u);
  EXPECT_EQ(m.prefill_pool.num_migrations_out, m.migrations);
  EXPECT_EQ(m.decode_pool.num_migrations_in, m.migrations);
  EXPECT_EQ(m.prefill_pool.num_migrations_retained, m.migrations_retained);
  EXPECT_EQ(m.aggregate.num_swap_restores + m.aggregate.num_recompute_restores,
            m.aggregate.num_preemptions);
  // Migration time decomposition: hidden time never exceeds transfer time.
  EXPECT_GE(m.decode_pool.total_migration_ms, 0.0);
  EXPECT_LE(m.decode_pool.migration_hidden_ms,
            m.decode_pool.total_migration_ms + 1e-9);
  EXPECT_GE(m.decode_pool.migration_stall_ms, 0.0);
  // Prompts never route to the decode pool.
  for (int i = cfg.prefill_replicas; i < cfg.num_replicas; ++i) {
    EXPECT_EQ(m.replica_requests[static_cast<size_t>(i)], 0);
  }
  const obs::MetricsRegistry* reg = cluster.Telemetry();
  ASSERT_NE(reg, nullptr);
  EXPECT_DOUBLE_EQ(reg->CounterFamilyTotal("fi_migrations_out_total"),
                   static_cast<double>(m.migrations));
  EXPECT_DOUBLE_EQ(reg->CounterFamilyTotal("fi_migrations_in_total"),
                   static_cast<double>(m.migrations));
  EXPECT_DOUBLE_EQ(reg->CounterFamilyTotal("fi_migrations_retained_total"),
                   static_cast<double>(m.migrations_retained));

  // Threaded twin: the disaggregated driver's fine-grained prefill stepping
  // still only syncs at barriers, so any thread count is bit-identical.
  {
    cluster::ClusterConfig tcfg2 = cfg;
    tcfg2.step_threads = 2 + static_cast<int>(seed % 3);
    cluster::ClusterEngine threaded(tcfg2);
    const auto tm = threaded.Run(reqs);
    EXPECT_DOUBLE_EQ(tm.makespan_s, m.makespan_s);
    EXPECT_EQ(tm.migrations, m.migrations);
    EXPECT_EQ(tm.migrations_retained, m.migrations_retained);
    EXPECT_EQ(tm.aggregate.num_steps, m.aggregate.num_steps);
    EXPECT_EQ(tm.aggregate.total_output_tokens, m.aggregate.total_output_tokens);
    EXPECT_DOUBLE_EQ(tm.aggregate.total_migration_ms,
                     m.aggregate.total_migration_ms);
    EXPECT_DOUBLE_EQ(tm.aggregate.migration_hidden_ms,
                     m.aggregate.migration_hidden_ms);
    EXPECT_DOUBLE_EQ(tm.aggregate.migration_stall_ms,
                     m.aggregate.migration_stall_ms);
    EXPECT_EQ(tm.replica_requests, m.replica_requests);
    ASSERT_EQ(tm.aggregate.itl_ms.size(), m.aggregate.itl_ms.size());
    for (size_t i = 0; i < tm.aggregate.itl_ms.size(); ++i) {
      EXPECT_DOUBLE_EQ(tm.aggregate.itl_ms[i], m.aggregate.itl_ms[i]);
    }
    const obs::MetricsRegistry* treg = threaded.Telemetry();
    ASSERT_NE(treg, nullptr);
    EXPECT_EQ(treg->JsonSnapshot(tm.makespan_s), reg->JsonSnapshot(m.makespan_s));
  }

  if (FailedPartCount() > failed_before) {
    DumpTrialTrace(cluster.LastTrace(), seed);
  }
}

int TrialCount() {
  const char* env = std::getenv("FI_SOAK_TRIALS");
  if (env == nullptr) return 50;
  return std::max(0, std::atoi(env));
}

// Three pinned seeds, always on (CI's sanitizer job runs exactly these by
// setting FI_SOAK_TRIALS=0). Each is checked for Run ≡ StepTo too.
TEST(Soak, PinnedSeeds) {
  for (const uint64_t seed : {0xC0FFEEull, 0xBADF00Dull, 0x5EED42ull}) {
    RunEngineTrial(seed, /*check_step_equiv=*/true);
    if (::testing::Test::HasFatalFailure()) return;
    RunClusterTrial(seed ^ 0xA5A5A5A5ull);
    if (::testing::Test::HasFatalFailure()) return;
    RunDisaggTrial(seed ^ 0xD15A66ull);
  }
}

TEST(Soak, RandomizedEngineTrials) {
  const int trials = TrialCount();
  for (int i = 0; i < trials; ++i) {
    // Deterministic seed schedule: trial i always replays identically.
    RunEngineTrial(0x50AC0000ull + static_cast<uint64_t>(i),
                   /*check_step_equiv=*/i % 5 == 0);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Soak, RandomizedClusterTrials) {
  const int trials = (TrialCount() + 5) / 6;  // ~1 cluster trial per 6 engine.
  for (int i = 0; i < trials; ++i) {
    RunClusterTrial(0xC105E0ull + static_cast<uint64_t>(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Soak, RandomizedDisaggTrials) {
  const int trials = (TrialCount() + 5) / 6;
  for (int i = 0; i < trials; ++i) {
    RunDisaggTrial(0xD15A0000ull + static_cast<uint64_t>(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace flashinfer

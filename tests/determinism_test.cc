// Determinism guarantees (Sec. 3.3.1): LLM serving requires deterministic
// outputs, so FlashInfer avoids atomic aggregation — identical sequence
// lengths must produce identical plans and BIT-IDENTICAL outputs, regardless
// of thread scheduling in the executor.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "runtime/batch_handle.h"
#include "serving/workload.h"
#include "test_util.h"

namespace flashinfer {
namespace {

using test::MakeProblem;
using test::ProblemSpec;

ProblemSpec Spec() {
  ProblemSpec spec;
  spec.qo_lens = {1, 1, 1, 1};
  spec.kv_lens = {900, 17, 333, 61};  // Forces splitting + merging.
  spec.num_qo_heads = 4;
  spec.num_kv_heads = 2;
  spec.head_dim = 16;
  spec.page_size = 4;
  return spec;
}

std::vector<float> RunOnce(SchedulerKind kind, uint64_t seed) {
  auto spec = Spec();
  spec.seed = seed;
  Workspace ws(Workspace::EstimateBytes(512, 64, spec.head_dim));
  BatchAttentionHandle::TaskInfo info;
  info.kv_dtype = spec.kv_dtype;
  info.num_qo_heads = spec.num_qo_heads;
  info.num_kv_heads = spec.num_kv_heads;
  info.head_dim = spec.head_dim;
  info.scheduler = kind;
  BatchAttentionHandle handle(gpusim::H100Sxm80GB(), info, &ws);
  spec.tile_q = handle.config().tile_q;
  auto prob = MakeProblem(spec);
  handle.MutableVariantParams() = prob.Params().variant;
  handle.Plan(&prob.bsr, prob.qo_indptr, spec.kv_lens);
  handle.Run(prob.q, *prob.kv, &prob.o, &prob.lse);
  return prob.o.data;
}

TEST(Determinism, RepeatedRunsBitIdentical) {
  // The thread pool executes CTAs in arbitrary order; the merge order is
  // fixed by the reduction map, so floating-point results cannot wobble.
  const auto a = RunOnce(SchedulerKind::kBalanced, 7);
  for (int trial = 0; trial < 5; ++trial) {
    const auto b = RunOnce(SchedulerKind::kBalanced, 7);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "element " << i << " trial " << trial;
    }
  }
}

TEST(Determinism, FixedSplitAlsoBitIdentical) {
  const auto a = RunOnce(SchedulerKind::kFixedSplit, 11);
  const auto b = RunOnce(SchedulerKind::kFixedSplit, 11);
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Determinism, PlanIdenticalForIdenticalLengths) {
  // Two handles fed the same sequence lengths build identical work queues
  // (the paper: "deterministic aggregation order when provided with
  // identical sequence length information").
  auto spec = Spec();
  Workspace ws1(Workspace::EstimateBytes(512, 64, spec.head_dim));
  Workspace ws2(Workspace::EstimateBytes(512, 64, spec.head_dim));
  BatchAttentionHandle::TaskInfo info;
  info.kv_dtype = spec.kv_dtype;
  info.num_qo_heads = spec.num_qo_heads;
  info.num_kv_heads = spec.num_kv_heads;
  info.head_dim = spec.head_dim;
  BatchAttentionHandle h1(gpusim::H100Sxm80GB(), info, &ws1);
  BatchAttentionHandle h2(gpusim::H100Sxm80GB(), info, &ws2);
  spec.tile_q = h1.config().tile_q;
  auto prob = MakeProblem(spec);
  h1.MutableVariantParams() = prob.Params().variant;
  h2.MutableVariantParams() = prob.Params().variant;
  h1.Plan(&prob.bsr, prob.qo_indptr, spec.kv_lens);
  h2.Plan(&prob.bsr, prob.qo_indptr, spec.kv_lens);
  const auto& p1 = h1.plan();
  const auto& p2 = h2.plan();
  ASSERT_EQ(p1.NumCtas(), p2.NumCtas());
  for (int c = 0; c < p1.NumCtas(); ++c) {
    const auto q1 = p1.Queue(c);
    const auto q2 = p2.Queue(c);
    ASSERT_EQ(q1.size(), q2.size());
    for (size_t i = 0; i < q1.size(); ++i) {
      EXPECT_EQ(q1[i].kv_begin, q2[i].kv_begin);
      EXPECT_EQ(q1[i].dest, q2[i].dest);
    }
  }
  EXPECT_EQ(p1.rmap.slots, p2.rmap.slots);
}

// --- Threaded cluster driver -------------------------------------------------
//
// The same guarantee one level up: ClusterEngine's replica fan-out may run on
// any number of pool threads, and a seeded run must produce byte-identical
// metrics, traces, and telemetry. The config deliberately lights up the
// stateful subsystems (chunking, preemption with overlapped swap, tracing,
// telemetry) so divergence anywhere would surface.

struct ClusterRunResult {
  cluster::ClusterMetrics metrics;
  std::vector<obs::TraceTrack> trace;
  std::string telemetry_json;
};

ClusterRunResult RunCluster(int step_threads) {
  serving::EngineConfig ecfg;
  ecfg.model = serving::Llama31_8B();
  ecfg.device = gpusim::H100Sxm80GB();
  ecfg.backend = serving::FlashInferBackend();
  ecfg.prefill_chunk_tokens = 1024;
  ecfg.preemption.enabled = true;
  ecfg.preemption.restore = serving::RestorePolicy::kAuto;
  ecfg.preemption.overlap_swap = true;
  // Budget sized to ~8000 KV tokens per replica: forces eviction traffic at
  // the per-replica load below (the preempt_test pressure recipe, x8).
  const double kv_bytes =
      8000.0 * ecfg.model.KvBytesPerToken(ecfg.backend.kv_dtype) / 0.9;
  ecfg.hbm_capacity_gb = (ecfg.model.WeightBytesPerGpu() + kv_bytes) / 1e9;
  ecfg.trace.enabled = true;
  ecfg.trace.capacity = 8192;
  ecfg.telemetry.enabled = true;

  cluster::ClusterConfig cfg;
  cfg.engine = ecfg;
  cfg.num_replicas = 8;
  cfg.policy = cluster::RouterPolicy::kLeastLoaded;
  cfg.step_threads = step_threads;

  Rng rng(0xD17E2);
  auto reqs = serving::UniformWorkload(rng, 8 * 40, 8 * 25.0, 512, 1024, 96);
  serving::AssignPriorities(rng, reqs, {0.7, 0.3});

  cluster::ClusterEngine engine(cfg);
  ClusterRunResult out;
  out.metrics = engine.Run(reqs);
  out.trace = engine.LastTrace();
  out.telemetry_json = engine.Telemetry()->JsonSnapshot(out.metrics.makespan_s);
  return out;
}

void ExpectServingMetricsIdentical(const serving::ServingMetrics& a,
                                   const serving::ServingMetrics& b) {
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.num_steps, b.num_steps);
  EXPECT_EQ(a.total_output_tokens, b.total_output_tokens);
  EXPECT_EQ(a.total_prefill_tokens, b.total_prefill_tokens);
  EXPECT_EQ(a.num_preemptions, b.num_preemptions);
  EXPECT_EQ(a.evicted_pages, b.evicted_pages);
  EXPECT_EQ(a.restored_pages, b.restored_pages);
  EXPECT_EQ(a.preempt_stall_steps, b.preempt_stall_steps);
  EXPECT_DOUBLE_EQ(a.total_swap_ms, b.total_swap_ms);
  EXPECT_DOUBLE_EQ(a.swap_hidden_ms, b.swap_hidden_ms);
  EXPECT_DOUBLE_EQ(a.swap_stall_ms, b.swap_stall_ms);
  EXPECT_DOUBLE_EQ(a.total_attention_ms, b.total_attention_ms);
  EXPECT_DOUBLE_EQ(a.total_gemm_ms, b.total_gemm_ms);
  EXPECT_DOUBLE_EQ(a.total_host_ms, b.total_host_ms);
  EXPECT_DOUBLE_EQ(a.total_idle_s, b.total_idle_s);
  ASSERT_EQ(a.ttft_ms.size(), b.ttft_ms.size());
  for (size_t i = 0; i < a.ttft_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.ttft_ms[i], b.ttft_ms[i]) << "ttft " << i;
  }
  ASSERT_EQ(a.itl_ms.size(), b.itl_ms.size());
  for (size_t i = 0; i < a.itl_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.itl_ms[i], b.itl_ms[i]) << "itl " << i;
  }
}

TEST(Determinism, ThreadedClusterRunBitIdentical) {
  const auto serial = RunCluster(/*step_threads=*/1);
  ASSERT_GT(serial.metrics.aggregate.num_preemptions, 0)
      << "config must exercise the overlapped-swap machinery";
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("step_threads=" + std::to_string(threads));
    const auto parallel = RunCluster(threads);

    ExpectServingMetricsIdentical(serial.metrics.aggregate,
                                  parallel.metrics.aggregate);
    ASSERT_EQ(serial.metrics.per_replica.size(), parallel.metrics.per_replica.size());
    for (size_t i = 0; i < serial.metrics.per_replica.size(); ++i) {
      ExpectServingMetricsIdentical(serial.metrics.per_replica[i],
                                    parallel.metrics.per_replica[i]);
    }
    EXPECT_EQ(serial.metrics.replica_requests, parallel.metrics.replica_requests);
    EXPECT_DOUBLE_EQ(serial.metrics.load_imbalance, parallel.metrics.load_imbalance);
    EXPECT_DOUBLE_EQ(serial.metrics.prefix_hit_rate, parallel.metrics.prefix_hit_rate);

    // Merged traces: identical track layout and event streams, field by field.
    ASSERT_EQ(serial.trace.size(), parallel.trace.size());
    for (size_t t = 0; t < serial.trace.size(); ++t) {
      EXPECT_EQ(serial.trace[t].name, parallel.trace[t].name);
      const auto& ea = serial.trace[t].events;
      const auto& eb = parallel.trace[t].events;
      ASSERT_EQ(ea.size(), eb.size()) << "track " << serial.trace[t].name;
      for (size_t e = 0; e < ea.size(); ++e) {
        EXPECT_EQ(ea[e].ts_us, eb[e].ts_us);
        EXPECT_EQ(ea[e].dur_us, eb[e].dur_us);
        EXPECT_EQ(ea[e].name, eb[e].name);
        EXPECT_EQ(ea[e].req, eb[e].req);
        EXPECT_EQ(ea[e].a, eb[e].a);
        EXPECT_EQ(ea[e].b, eb[e].b);
        EXPECT_EQ(ea[e].c, eb[e].c);
        EXPECT_EQ(ea[e].v, eb[e].v);
      }
    }

    // Telemetry: the merged registry serializes to the same bytes.
    EXPECT_EQ(serial.telemetry_json, parallel.telemetry_json);
  }
}

}  // namespace
}  // namespace flashinfer

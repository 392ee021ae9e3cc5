// Serving-engine edge cases and regression tests.
#include <gtest/gtest.h>

#include "serving/engine.h"

namespace flashinfer::serving {
namespace {

EngineConfig BaseConfig() {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  return cfg;
}

/// A request with no prompt ids, no cached prefix and default priority.
Request MakeReq(int id, double arrival, int64_t in, int64_t out, int parallel_n = 1) {
  Request r;
  r.id = id;
  r.arrival_s = arrival;
  r.input_len = in;
  r.output_len = out;
  r.parallel_n = parallel_n;
  return r;
}

TEST(Engine, OversizedPromptStillAdmits) {
  // Regression: a prompt longer than max_prefill_tokens must admit alone
  // rather than starving forever (previously an infinite loop).
  auto cfg = BaseConfig();
  cfg.max_prefill_tokens = 1024;
  ServingEngine engine(cfg);
  std::vector<Request> reqs(1);
  reqs[0].id = 0;
  reqs[0].arrival_s = 0.0;
  reqs[0].input_len = 9000;  // > max_prefill_tokens.
  reqs[0].output_len = 4;
  const auto m = engine.Run(reqs);
  EXPECT_EQ(m.ttft_ms.size(), 1u);
  EXPECT_EQ(m.total_output_tokens, 4);
}

TEST(Engine, PrefillBudgetBatchesAdmissions) {
  auto cfg = BaseConfig();
  cfg.max_prefill_tokens = 600;
  ServingEngine engine(cfg);
  // Three 512-token prompts arriving together: 512 + 512 > 600, so they
  // prefill in separate steps -> strictly increasing TTFTs.
  std::vector<Request> reqs(3);
  for (int i = 0; i < 3; ++i) {
    reqs[i].id = i;
    reqs[i].arrival_s = 0.0;
    reqs[i].input_len = 512;
    reqs[i].output_len = 2;
  }
  const auto m = engine.Run(reqs);
  ASSERT_EQ(m.ttft_ms.size(), 3u);
  EXPECT_LT(m.ttft_ms[0], m.ttft_ms[1]);
  EXPECT_LT(m.ttft_ms[1], m.ttft_ms[2]);
}

TEST(Engine, EmptyWorkload) {
  ServingEngine engine(BaseConfig());
  const auto m = engine.Run({});
  EXPECT_EQ(m.total_output_tokens, 0);
  EXPECT_EQ(m.num_steps, 0);
}

TEST(Engine, IdleGapsSkipToNextArrival) {
  ServingEngine engine(BaseConfig());
  std::vector<Request> reqs(2);
  reqs[0] = MakeReq(0, 0.0, 64, 2);
  reqs[1] = MakeReq(1, 100.0, 64, 2);  // Arrives after a long idle gap.
  const auto m = engine.Run(reqs);
  // Request 1's TTFT is measured from ITS arrival, not from t=0.
  EXPECT_LT(m.ttft_ms[1], 1000.0);
  EXPECT_GE(m.makespan_s, 100.0);
}

TEST(Engine, OutputTokenAccounting) {
  ServingEngine engine(BaseConfig());
  std::vector<Request> reqs(4);
  for (int i = 0; i < 4; ++i) reqs[i] = MakeReq(i, 0.01 * i, 32, 10);
  const auto m = engine.Run(reqs);
  EXPECT_EQ(m.total_output_tokens, 4 * 10);
  // ITL gaps: 9 per request (first token comes from prefill).
  EXPECT_EQ(m.itl_ms.size(), 4u * 9u);
}

TEST(Engine, ParallelBranchesMultiplyOutputs) {
  ServingEngine engine(BaseConfig());
  std::vector<Request> reqs(2);
  reqs[0] = MakeReq(0, 0.0, 64, 6, 4);
  reqs[1] = MakeReq(1, 0.0, 64, 6);
  const auto m = engine.Run(reqs);
  // Request 0: 1 prefill token + 4 branches x 5; request 1: 1 + 5.
  EXPECT_EQ(m.total_output_tokens, (1 + 4 * 5) + (1 + 5));
}

TEST(Engine, KvBudgetThrottlesAdmission) {
  auto cfg = BaseConfig();
  cfg.hbm_capacity_gb = 17.0;  // Barely above the 8B weights: tiny KV pool.
  ServingEngine engine(cfg);
  EXPECT_LT(engine.KvTokenBudget(), 30000);
  std::vector<Request> reqs(8);
  for (int i = 0; i < 8; ++i) reqs[i] = MakeReq(i, 0.0, 2048, 4);
  const auto m = engine.Run(reqs);  // Must complete despite the tight pool.
  EXPECT_EQ(m.ttft_ms.size(), 8u);
  EXPECT_EQ(m.total_output_tokens, 8 * 4);
}

TEST(Engine, FasterKernelsNeverHurtLatency) {
  // Sanity: scaling all attention kernels 2x slower must not reduce ITL.
  Rng rng(9);
  const auto reqs = ShareGptWorkload(rng, 40, 12.0);
  auto cfg = BaseConfig();
  const auto fast = ServingEngine(cfg).Run(reqs);
  cfg.backend.kernel_time_scale = 2.0;
  const auto slow = ServingEngine(cfg).Run(reqs);
  EXPECT_LE(fast.MedianItlMs(), slow.MedianItlMs());
  EXPECT_LE(fast.makespan_s, slow.makespan_s + 1e-9);
}

TEST(Engine, TensorParallelReducesItl) {
  Rng rng(10);
  const auto reqs = ShareGptWorkload(rng, 30, 6.0);
  EngineConfig cfg;
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  cfg.model = Llama31_70B(1);
  cfg.hbm_capacity_gb = 200.0;  // Hypothetical single-GPU fit.
  const auto tp1 = ServingEngine(cfg).Run(reqs);
  cfg.model = Llama31_70B(4);
  cfg.hbm_capacity_gb = 80.0;
  const auto tp4 = ServingEngine(cfg).Run(reqs);
  EXPECT_LT(tp4.MedianItlMs(), tp1.MedianItlMs());
}

// --- Chunked prefill / mixed batching (StepPlan) -----------------------------

void ExpectSameMetrics(const ServingMetrics& a, const ServingMetrics& b) {
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.num_steps, b.num_steps);
  EXPECT_EQ(a.total_output_tokens, b.total_output_tokens);
  EXPECT_EQ(a.total_prefill_tokens, b.total_prefill_tokens);
  ASSERT_EQ(a.ttft_ms.size(), b.ttft_ms.size());
  for (size_t i = 0; i < a.ttft_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.ttft_ms[i], b.ttft_ms[i]) << "ttft " << i;
  }
  ASSERT_EQ(a.itl_ms.size(), b.itl_ms.size());
  for (size_t i = 0; i < a.itl_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.itl_ms[i], b.itl_ms[i]) << "itl " << i;
  }
  EXPECT_DOUBLE_EQ(a.total_attention_ms, b.total_attention_ms);
  EXPECT_DOUBLE_EQ(a.total_gemm_ms, b.total_gemm_ms);
  EXPECT_DOUBLE_EQ(a.total_host_ms, b.total_host_ms);
}

// With prefill and decode never overlapping (sparse arrivals: each request
// drains before the next arrives), a chunk that covers the whole prompt
// must reproduce the legacy prefill-alone engine step-for-step — same
// steps, same clocks, same per-request TTFT/ITL.
TEST(ChunkedPrefill, ChunkCoveringPromptMatchesPrefillAlone) {
  std::vector<Request> reqs(4);
  for (int i = 0; i < 4; ++i) {
    reqs[i].id = i;
    reqs[i].arrival_s = i * 10.0;  // Far apart: no prefill/decode overlap.
    reqs[i].input_len = 700 + 100 * i;
    reqs[i].output_len = 6;
  }
  auto legacy_cfg = BaseConfig();
  legacy_cfg.prefill_chunk_tokens = 0;
  const auto legacy = ServingEngine(legacy_cfg).Run(reqs);

  for (const int64_t chunk : {int64_t{1024}, int64_t{1 << 20}}) {
    auto cfg = BaseConfig();
    cfg.prefill_chunk_tokens = chunk;  // >= longest prompt: one chunk each.
    const auto chunked = ServingEngine(cfg).Run(reqs);
    ExpectSameMetrics(legacy, chunked);
    EXPECT_EQ(chunked.chunked_requests, 0);
  }
}

TEST(ChunkedPrefill, LongPromptSpansChunksAndEmitsOnLastChunk) {
  auto cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 256;
  ServingEngine engine(cfg);
  std::vector<Request> reqs(1);
  reqs[0].id = 0;
  reqs[0].input_len = 1000;  // ceil(1000/256) = 4 chunks.
  reqs[0].output_len = 3;
  const auto m = engine.Run(reqs);
  EXPECT_EQ(m.prefill_chunks, 4);
  EXPECT_EQ(m.chunked_requests, 1);
  EXPECT_EQ(m.total_prefill_tokens, 1000);
  EXPECT_EQ(m.total_output_tokens, 3);
  ASSERT_EQ(m.ttft_ms.size(), 1u);
  // First token only after the 4th chunk: TTFT covers all 4 steps while ITL
  // gaps cover one decode step each.
  EXPECT_GT(m.ttft_ms[0], 2.0 * m.MaxItlMs());
  EXPECT_EQ(m.num_steps, 4 + 2);  // 4 chunk steps + 2 decode steps.
}

TEST(ChunkedPrefill, MixedBatchingRemovesDecodeStalls) {
  // Running decodes + a long prompt arriving mid-flight: the legacy loop
  // stalls every branch behind the prefill; mixed batching does not, and
  // both deliver the same tokens.
  std::vector<Request> reqs(2);
  reqs[0] = MakeReq(0, 0.0, 64, 64);
  reqs[1] = MakeReq(1, 0.05, 6000, 8);  // Long prompt lands mid-decode.

  auto legacy_cfg = BaseConfig();
  legacy_cfg.prefill_chunk_tokens = 0;
  const auto legacy = ServingEngine(legacy_cfg).Run(reqs);
  EXPECT_GT(legacy.itl_stall_steps, 0);
  EXPECT_GT(legacy.steps_with_stalls, 0);
  EXPECT_EQ(legacy.mixed_steps, 0);

  auto cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 512;
  const auto chunked = ServingEngine(cfg).Run(reqs);
  EXPECT_EQ(chunked.itl_stall_steps, 0);
  EXPECT_GT(chunked.mixed_steps, 0);
  EXPECT_EQ(chunked.total_output_tokens, legacy.total_output_tokens);
  // The worst inter-token gap shrinks by at least the prefill-stall factor.
  EXPECT_LT(chunked.MaxItlMs() * 2.0, legacy.MaxItlMs());
  // Per-branch stall counters surface through branch_stalls.
  int64_t legacy_stalls = 0;
  for (int64_t s : legacy.branch_stalls) legacy_stalls += s;
  EXPECT_EQ(legacy_stalls, legacy.itl_stall_steps);
  for (int64_t s : chunked.branch_stalls) EXPECT_EQ(s, 0);
}

TEST(ChunkedPrefill, CachedPrefixChunksOnlyUncachedSuffix) {
  auto cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 256;
  ServingEngine engine(cfg);
  std::vector<Request> reqs(1);
  reqs[0].id = 0;
  reqs[0].input_len = 2048;
  reqs[0].output_len = 4;
  reqs[0].cached_prefix_len = 1500;  // Cached span exceeds the chunk size.
  const auto m = engine.Run(reqs);
  EXPECT_EQ(m.total_prefill_tokens, 2048 - 1500);
  EXPECT_EQ(m.cached_prefix_tokens, 1500);
  EXPECT_EQ(m.prefill_chunks, (548 + 255) / 256);
  EXPECT_EQ(m.total_output_tokens, 4);
}

TEST(ChunkedPrefill, QueuedTokensCountsPartialPrefillRemainder) {
  auto cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 256;
  ServingEngine engine(cfg);
  engine.Reset();
  Request r;
  r.id = 0;
  r.input_len = 1024;
  r.output_len = 16;
  engine.Admit(r);
  EXPECT_EQ(engine.QueuedTokens(), 1024 + 16);
  // One step: 256 prompt tokens prefilled, request still mid-chunk — a
  // router must still see the un-prefilled remainder plus the whole output.
  EXPECT_EQ(engine.StepTo(engine.NextEventTime()), 1);
  EXPECT_EQ(engine.QueuedTokens(), (1024 - 256) + 16);
  EXPECT_FALSE(engine.Finished());
  engine.Drain();
  EXPECT_EQ(engine.QueuedTokens(), 0);
  EXPECT_EQ(engine.Metrics().total_output_tokens, 16);
}

TEST(ChunkedPrefill, ThroughputPolicyPacksMoreThanDecodePriority) {
  // Two long prompts arriving together: decode-priority spends at most one
  // chunk's worth per step; throughput-priority packs both requests' chunks
  // and finishes the prefill backlog in fewer steps.
  std::vector<Request> reqs(2);
  reqs[0] = MakeReq(0, 0.0, 4096, 4);
  reqs[1] = MakeReq(1, 0.0, 4096, 4);

  auto cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 1024;
  cfg.batch_policy = BatchPolicy::kDecodePriority;
  const auto dp = ServingEngine(cfg).Run(reqs);
  cfg.batch_policy = BatchPolicy::kThroughputPriority;
  const auto tp = ServingEngine(cfg).Run(reqs);

  EXPECT_EQ(dp.total_prefill_tokens, tp.total_prefill_tokens);
  EXPECT_LT(tp.num_steps, dp.num_steps);
  EXPECT_LT(tp.ttft_ms[1], dp.ttft_ms[1]);  // Backlogged TTFT drains faster.
}

TEST(ChunkedPrefill, KvAccountingExactAfterDrain) {
  auto cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 512;
  ServingEngine engine(cfg);
  Rng rng(23);
  BurstyPrefillConfig wcfg;
  wcfg.num_steady = 40;
  wcfg.num_bursts = 2;
  wcfg.burst_size = 2;
  const auto m = engine.Run(BurstyLongPrefillWorkload(rng, wcfg));
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(m.ttft_ms.size(), 44u);
  EXPECT_GT(m.mixed_steps, 0);
}

TEST(Backends, PresetsDiffer) {
  EXPECT_EQ(FlashInferBackend().scheduler, SchedulerKind::kBalanced);
  EXPECT_NE(TritonBackend().scheduler, SchedulerKind::kBalanced);
  EXPECT_GT(TritonBackend().kernel_time_scale, 1.0);
  EXPECT_FALSE(FlashAttentionBackend().head_fusion);
  EXPECT_GT(VllmDefaultBackend().host_us_per_req, FlashInferBackend().host_us_per_req);
}

}  // namespace
}  // namespace flashinfer::serving

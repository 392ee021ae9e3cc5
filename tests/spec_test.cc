// Speculative-decoding subsystem tests: draft-tree construction and mask
// lowering, acceptance sampling, verify-step pricing through the real
// scheduler, engine integration (Run ≡ StepTo under spec decode, exact KV
// accounting under rollback), and the cluster layer with spec replicas.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/cluster.h"
#include "serving/engine.h"
#include "spec/spec.h"
#include "spec/tree.h"
#include "spec/verify.h"

namespace flashinfer::spec {
namespace {

using serving::EngineConfig;
using serving::Request;
using serving::ServingEngine;
using serving::ServingMetrics;

EngineConfig BaseConfig() {
  EngineConfig cfg;
  cfg.model = serving::Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = serving::FlashInferBackend();
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

EngineConfig SpecConfig(int depth, int branching, double accept = 0.7) {
  EngineConfig cfg = BaseConfig();
  cfg.spec.enabled = true;
  cfg.spec.tree = TreeConfig{depth, branching};
  cfg.spec.default_accept_prob = accept;
  return cfg;
}

// --- Tree construction and mask lowering -----------------------------------

TEST(DraftTree, ChainShape) {
  DraftTree chain(TreeConfig{4, 1});
  EXPECT_EQ(chain.Size(), 4);
  EXPECT_EQ(chain.SubtreeSize(), 4);
  EXPECT_EQ(chain.Parent(0), -1);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(chain.Parent(i), i - 1);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(chain.Level(i), i + 1);
}

TEST(DraftTree, BinaryTreeShape) {
  DraftTree tree(TreeConfig{3, 2});
  EXPECT_EQ(tree.Size(), 2 + 4 + 8);
  EXPECT_EQ(tree.SubtreeSize(), 7);
  EXPECT_EQ(tree.Parent(0), -1);
  EXPECT_EQ(tree.Parent(1), -1);
  EXPECT_EQ(tree.Parent(2), 0);
  EXPECT_EQ(tree.Parent(3), 0);
  EXPECT_EQ(tree.Parent(4), 1);
  EXPECT_EQ(tree.Parent(6), 2);
  EXPECT_EQ(tree.LevelWidth(3), 8);
}

TEST(DraftTree, AncestorMaskMatchesParentChains) {
  DraftTree tree(TreeConfig{2, 2});  // Nodes 0,1 (level 1); 2,3,4,5 (level 2).
  const auto mask = tree.AncestorMask();
  // Node 3's ancestors: itself and node 0.
  EXPECT_TRUE(mask[3][3]);
  EXPECT_TRUE(mask[3][0]);
  EXPECT_FALSE(mask[3][1]);
  EXPECT_FALSE(mask[3][2]);
  // Level-1 nodes see only themselves (parents live in the committed KV).
  EXPECT_TRUE(mask[0][0]);
  EXPECT_FALSE(mask[0][1]);
  // Branch isolation: node 2 (under 0) never sees node 4 (under 1).
  EXPECT_FALSE(mask[2][4]);
}

TEST(DraftTree, MaskLowersToBsrWithExactNnz) {
  DraftTree tree(TreeConfig{3, 2});
  // tile_q = 1, group = 1: one block row per token, nnz = sum of ancestor
  // chain lengths = sum over nodes of level(node).
  const auto bsr = TreeMaskBsr(tree, /*tile_q=*/1, /*group=*/1);
  bsr.Validate();
  int64_t expect = 0;
  for (int i = 0; i < tree.Size(); ++i) expect += tree.Level(i);
  EXPECT_EQ(bsr.Nnz(), expect);
  EXPECT_EQ(bsr.num_rows, tree.Size());
}

TEST(DraftTree, FusedMaskExpandsRows) {
  DraftTree tree(TreeConfig{2, 1});
  const auto bsr = TreeMaskBsr(tree, /*tile_q=*/2, /*group=*/4);
  bsr.Validate();
  EXPECT_EQ(bsr.num_rows, tree.Size() * 4);
}

TEST(SparseHelpers, TileBsrDiagonalOffsetsColumns) {
  DraftTree tree(TreeConfig{2, 2});
  const auto unit = TreeMaskBsr(tree, 1, 1);
  const auto batch = sparse::TileBsrDiagonal(unit, 3);
  batch.Validate();
  EXPECT_EQ(batch.num_rows, unit.num_rows * 3);
  EXPECT_EQ(batch.num_col_blocks, unit.num_col_blocks * 3);
  EXPECT_EQ(batch.Nnz(), unit.Nnz() * 3);
  // Copy 2's first block points at the offset column space.
  const int64_t nnz = unit.Nnz();
  EXPECT_EQ(batch.indices[static_cast<size_t>(2 * nnz)],
            unit.indices[0] + 2 * unit.num_col_blocks);
  // Logical positions restart per copy (per-request coordinates).
  EXPECT_EQ(batch.block_pos[static_cast<size_t>(2 * nnz)], unit.block_pos[0]);
}

// --- Acceptance sampling ----------------------------------------------------

TEST(Acceptance, SampleBoundsAndDeterminism) {
  DraftTree tree(TreeConfig{4, 2});
  Rng a(123), b(123);
  for (int i = 0; i < 200; ++i) {
    const int la = SampleAcceptedLen(a, tree, 0.6);
    EXPECT_GE(la, 0);
    EXPECT_LE(la, 4);
    EXPECT_EQ(la, SampleAcceptedLen(b, tree, 0.6));
  }
}

TEST(Acceptance, DegenerateProbabilities) {
  DraftTree tree(TreeConfig{3, 1});
  Rng rng(1);
  EXPECT_EQ(SampleAcceptedLen(rng, tree, 0.0), 0);
  EXPECT_EQ(SampleAcceptedLen(rng, tree, 1.0), 3);
}

TEST(Acceptance, MeanTracksClosedFormAndBranchingHelps) {
  DraftTree chain(TreeConfig{4, 1});
  DraftTree wide(TreeConfig{4, 3});
  Rng rng(7);
  const int trials = 20000;
  double chain_sum = 0, wide_sum = 0;
  for (int i = 0; i < trials; ++i) chain_sum += SampleAcceptedLen(rng, chain, 0.6);
  for (int i = 0; i < trials; ++i) wide_sum += SampleAcceptedLen(rng, wide, 0.6);
  const double chain_mean = chain_sum / trials, wide_mean = wide_sum / trials;
  EXPECT_NEAR(chain_mean, ExpectedAcceptedLen(chain, 0.6), 0.05);
  EXPECT_NEAR(wide_mean, ExpectedAcceptedLen(wide, 0.6), 0.05);
  // More candidates per level -> longer accepted prefixes.
  EXPECT_GT(wide_mean, chain_mean + 0.3);
}

// --- Verify-step pricing through the real kernel path -----------------------

TEST(VerifyPricing, CostsMoreThanVanillaDecodeAndScalesWithTree) {
  const auto dev = gpusim::H100Sxm80GB();
  const auto backend = serving::FlashInferBackend();
  serving::AttnSimInput in;  // Llama-8B-like geometry (defaults).
  const std::vector<int64_t> ctx(16, 2048);

  DraftTree small(TreeConfig{2, 1});
  DraftTree big(TreeConfig{4, 2});
  const auto r_small = PriceVerifyAttention(dev, backend, in, ctx, small);
  const auto r_big = PriceVerifyAttention(dev, backend, in, ctx, big);
  EXPECT_GT(r_small.time_us, 0.0);
  // More tree tokens -> strictly more attention work.
  EXPECT_GT(r_big.time_us, r_small.time_us);
  EXPECT_GT(r_big.total_hbm_bytes, r_small.total_hbm_bytes);

  // And a verify launch costs more than the one-token decode launch it
  // replaces (it reads the same context for every tree token).
  serving::AttnSimInput decode = in;
  decode.qo_lens.assign(16, 1);
  decode.kv_lens = ctx;
  const auto r_decode = SimulateBatchAttention(dev, backend, decode);
  EXPECT_GT(r_small.time_us, r_decode.time_us);
}

TEST(VerifyPricing, MaskedAttentionHonorsSparsity) {
  // A chain tail (dense causal-ish mask) must cost at least as much as a
  // maximally-branched tree of the same size, whose mask is sparser (each
  // leaf sees only its own path).
  const auto dev = gpusim::H100Sxm80GB();
  const auto backend = serving::FlashInferBackend();
  serving::AttnSimInput in;
  DraftTree chain(TreeConfig{8, 1});   // 8 tokens, chain: nnz = 36.
  DraftTree bushy(TreeConfig{1, 8});   // 8 tokens, one level: nnz = 8.
  const int g = in.num_qo_heads / in.num_kv_heads;
  const auto chain_bsr = TreeMaskBsr(chain, 16, g);
  const auto bushy_bsr = TreeMaskBsr(bushy, 16, g);
  EXPECT_GT(chain_bsr.Nnz(), bushy_bsr.Nnz());
  const std::vector<int64_t> qo(4, 8), kv(4, 8);
  const auto chain_cost = SimulateMaskedAttention(
      dev, backend, in, sparse::TileBsrDiagonal(chain_bsr, 4), qo, kv);
  const auto bushy_cost = SimulateMaskedAttention(
      dev, backend, in, sparse::TileBsrDiagonal(bushy_bsr, 4), qo, kv);
  EXPECT_GE(chain_cost.total_hbm_bytes, bushy_cost.total_hbm_bytes);
}

// --- Engine integration ------------------------------------------------------

void ExpectMetricsIdentical(const ServingMetrics& a, const ServingMetrics& b) {
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_output_tokens, b.total_output_tokens);
  EXPECT_EQ(a.num_steps, b.num_steps);
  EXPECT_EQ(a.spec_steps, b.spec_steps);
  EXPECT_EQ(a.spec_committed_tokens, b.spec_committed_tokens);
  ASSERT_EQ(a.accepted_len_hist.size(), b.accepted_len_hist.size());
  for (size_t k = 0; k < a.accepted_len_hist.size(); ++k) {
    EXPECT_EQ(a.accepted_len_hist[k], b.accepted_len_hist[k]) << "hist bin " << k;
  }
  ASSERT_EQ(a.ttft_ms.size(), b.ttft_ms.size());
  for (size_t i = 0; i < a.ttft_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.ttft_ms[i], b.ttft_ms[i]) << "ttft sample " << i;
  }
  ASSERT_EQ(a.itl_ms.size(), b.itl_ms.size());
  for (size_t i = 0; i < a.itl_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.itl_ms[i], b.itl_ms[i]) << "itl sample " << i;
  }
  EXPECT_DOUBLE_EQ(a.total_attention_ms, b.total_attention_ms);
  EXPECT_DOUBLE_EQ(a.total_draft_ms, b.total_draft_ms);
}

TEST(SpecEngine, RunEqualsStepLoop) {
  Rng rng(19);
  auto workload = serving::ShareGptWorkload(rng, 40, 15.0);
  serving::AssignAcceptance(rng, workload, 0.4, 0.9);

  ServingEngine reference(SpecConfig(4, 2));
  const auto run_metrics = reference.Run(workload);

  ServingEngine stepped(SpecConfig(4, 2));
  stepped.Reset();
  for (const auto& r : workload) stepped.Admit(r);
  while (!stepped.Finished()) {
    const double next = stepped.NextEventTime();
    ASSERT_TRUE(std::isfinite(next));
    ASSERT_GE(stepped.StepTo(next), 1);
  }
  ExpectMetricsIdentical(run_metrics, stepped.Metrics());
}

TEST(SpecEngine, ExactKvAccountingAfterDrainUnderRollback) {
  Rng rng(23);
  auto workload = serving::ShareGptWorkload(rng, 30, 20.0);
  serving::AssignAcceptance(rng, workload, 0.2, 0.95);
  // Parallel branches force fork-from-shared-prefix paths too.
  for (size_t i = 0; i < workload.size(); i += 3) workload[i].parallel_n = 3;

  for (int branching : {1, 2}) {
    ServingEngine engine(SpecConfig(3, branching));
    engine.Run(workload);
    EXPECT_EQ(engine.KvTokensInUse(), 0) << "branching " << branching;
    EXPECT_EQ(engine.SpecKvLivePages(), 0) << "branching " << branching;
    EXPECT_TRUE(engine.Finished());
  }
}

TEST(SpecEngine, TightKvBudgetThrottlesAdmissionInsteadOfExhaustingPool) {
  // Regression: verify steps commit several tokens at once with no per-token
  // budget gate, so spec admission must reserve each branch's full output up
  // front — otherwise a tight KV pool exhausts the fork/rollback page pool
  // mid-run (hard abort) where vanilla merely over-commits.
  auto cfg = SpecConfig(4, 2, 0.8);
  cfg.hbm_capacity_gb = 17.0;  // Barely above the 8B weights: tiny KV pool.
  ServingEngine engine(cfg);
  EXPECT_LT(engine.KvTokenBudget(), 30000);
  std::vector<Request> reqs(60);
  for (int i = 0; i < 60; ++i) reqs[i] = MakeReq(i, 0.0, 1024, 256);
  const auto m = engine.Run(reqs);  // Must complete despite the tight pool.
  EXPECT_EQ(m.ttft_ms.size(), 60u);
  EXPECT_EQ(m.total_output_tokens, 60 * 256);
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(engine.SpecKvLivePages(), 0);
}

TEST(SpecEngine, TokensPerStepReflectsAcceptance) {
  Rng rng(29);
  auto workload = serving::ShareGptWorkload(rng, 30, 15.0);

  serving::AssignAcceptance(rng, workload, 0.9, 0.9);
  ServingEngine high(SpecConfig(4, 1));
  const auto hm = high.Run(workload);
  EXPECT_GT(hm.spec_steps, 0);
  EXPECT_GT(hm.TokensPerSpecStep(), 2.5);  // E[commit] ~ 3.4 at p=0.9, d=4.

  serving::AssignAcceptance(rng, workload, 0.1, 0.1);
  ServingEngine low(SpecConfig(4, 1));
  const auto lm = low.Run(workload);
  EXPECT_LT(lm.TokensPerSpecStep(), 1.6);  // E[commit] ~ 1.11 at p=0.1.
  EXPECT_GT(lm.TokensPerSpecStep(), 0.99);  // Always commits >= 1 per branch.
  EXPECT_GT(hm.ThroughputTokS(), lm.ThroughputTokS());

  // Histogram totals match: one sample per branch per verify step; output
  // token conservation holds regardless of acceptance.
  int64_t verifications = 0;
  for (int64_t c : hm.accepted_len_hist) verifications += c;
  EXPECT_GT(verifications, 0);
  int64_t expect_tokens = 0;
  for (const auto& r : workload) expect_tokens += r.output_len;
  EXPECT_EQ(hm.total_output_tokens, expect_tokens);
  EXPECT_EQ(lm.total_output_tokens, expect_tokens);
}

TEST(SpecEngine, HighAcceptanceBeatsVanillaDecode) {
  Rng rng(31);
  auto workload = serving::ShareGptWorkload(rng, 40, 10.0);
  serving::AssignAcceptance(rng, workload, 0.9, 0.9);

  const auto vanilla = ServingEngine(BaseConfig()).Run(workload);
  const auto spec = ServingEngine(SpecConfig(4, 1, 0.9)).Run(workload);
  EXPECT_EQ(spec.total_output_tokens, vanilla.total_output_tokens);
  EXPECT_GT(spec.ThroughputTokS(), vanilla.ThroughputTokS());
  EXPECT_LT(spec.makespan_s, vanilla.makespan_s);
  EXPECT_GT(spec.DraftOverheadFrac(), 0.0);
  EXPECT_LT(spec.DraftOverheadFrac(), 0.5);
}

TEST(SpecEngine, DisabledSpecIsExactlyVanilla) {
  // The spec refactor must be invisible when disabled: same steps, times,
  // and metrics as the pre-refactor single-token decode loop.
  Rng rng(37);
  const auto workload = serving::ShareGptWorkload(rng, 30, 12.0);
  const auto m = ServingEngine(BaseConfig()).Run(workload);
  EXPECT_EQ(m.spec_steps, 0);
  EXPECT_EQ(m.spec_committed_tokens, 0);
  EXPECT_DOUBLE_EQ(m.total_draft_ms, 0.0);
  EXPECT_TRUE(m.accepted_len_hist.empty());
  int64_t expect_tokens = 0;
  for (const auto& r : workload) expect_tokens += r.output_len;
  EXPECT_EQ(m.total_output_tokens, expect_tokens);
}

// --- StepTo idle accounting (satellite fix) ----------------------------------

TEST(SpecEngine, StepToCountsOnlyWorkSteps) {
  ServingEngine engine(BaseConfig());
  engine.Reset();
  Request r;
  r.id = 0;
  r.arrival_s = 5.0;
  r.input_len = 64;
  r.output_len = 4;
  engine.Admit(r);
  // Reaching the arrival takes one idle skip + one prefill: only the
  // prefill is a work step.
  EXPECT_EQ(engine.StepTo(5.0), 1);
  EXPECT_EQ(engine.Metrics().num_idle_skips, 1);
  EXPECT_DOUBLE_EQ(engine.Metrics().total_idle_s, 5.0);
  engine.Drain();
  // Work steps == metrics num_steps (idle never inflates num_steps).
  EXPECT_EQ(engine.Metrics().num_steps, 1 + 3);  // Prefill + 3 decode steps.
}

TEST(SpecEngine, IdleTimeSeparatesFromBusyTime) {
  ServingEngine engine(BaseConfig());
  std::vector<Request> reqs(2);
  reqs[0] = MakeReq(0, 0.0, 64, 2);
  reqs[1] = MakeReq(1, 100.0, 64, 2);
  const auto m = engine.Run(reqs);
  EXPECT_EQ(m.num_idle_skips, 1);
  EXPECT_GT(m.total_idle_s, 99.0);
  EXPECT_LT(m.BusyMs() * 1e-3, 1.0);  // Actual work is far under a second.
}

// --- Spec decode + chunked prefill -------------------------------------------

// Verify steps coexist with in-flight prefill chunks in one mixed step
// (instead of alternating exclusively), and the KV accounting still closes
// exactly: no token charge and no structural page survives Drain().
TEST(SpecEngine, VerifyCoexistsWithPrefillChunksAndDrainsClean) {
  for (const int branching : {1, 2}) {
    auto cfg = SpecConfig(3, branching, 0.6);
    cfg.prefill_chunk_tokens = 512;
    Rng rng(47);
    serving::BurstyPrefillConfig wcfg;
    wcfg.num_steady = 40;
    wcfg.num_bursts = 2;
    wcfg.burst_size = 2;
    wcfg.burst_input_lo = 2048;
    wcfg.burst_input_hi = 4096;
    auto workload = serving::BurstyLongPrefillWorkload(rng, wcfg);
    serving::AssignAcceptance(rng, workload, 0.4, 0.9);

    ServingEngine engine(cfg);
    const auto m = engine.Run(workload);
    EXPECT_GT(m.mixed_steps, 0) << "branching " << branching;
    EXPECT_GT(m.spec_steps, 0) << "branching " << branching;
    EXPECT_EQ(m.itl_stall_steps, 0) << "branching " << branching;
    EXPECT_EQ(engine.KvTokensInUse(), 0) << "branching " << branching;
    EXPECT_EQ(engine.SpecKvLivePages(), 0) << "branching " << branching;
    int64_t expect_tokens = 0;
    for (const auto& r : workload) expect_tokens += r.output_len;
    EXPECT_EQ(m.total_output_tokens, expect_tokens);
  }
}

// --- Cluster with spec-enabled replicas --------------------------------------

TEST(SpecCluster, SingleReplicaMatchesEngine) {
  Rng rng(41);
  auto workload = serving::ShareGptWorkload(rng, 30, 15.0);
  serving::AssignAcceptance(rng, workload, 0.5, 0.9);

  ServingEngine engine(SpecConfig(3, 2));
  const auto engine_metrics = engine.Run(workload);

  cluster::ClusterConfig cfg;
  cfg.engine = SpecConfig(3, 2);
  cfg.num_replicas = 1;
  cfg.policy = cluster::RouterPolicy::kRoundRobin;
  const auto cluster_metrics = cluster::ClusterEngine(cfg).Run(workload);

  ASSERT_EQ(cluster_metrics.per_replica.size(), 1u);
  ExpectMetricsIdentical(engine_metrics, cluster_metrics.per_replica[0]);
  ExpectMetricsIdentical(engine_metrics, cluster_metrics.aggregate);
}

TEST(SpecCluster, MultiReplicaAggregatesSpecMetrics) {
  Rng rng(43);
  auto workload = serving::ShareGptWorkload(rng, 60, 30.0);
  serving::AssignAcceptance(rng, workload, 0.7, 0.7);

  cluster::ClusterConfig cfg;
  cfg.engine = SpecConfig(4, 1);
  cfg.num_replicas = 3;
  cfg.policy = cluster::RouterPolicy::kLeastLoaded;
  const auto m = cluster::ClusterEngine(cfg).Run(workload);
  EXPECT_GT(m.aggregate.spec_steps, 0);
  EXPECT_GT(m.aggregate.TokensPerSpecStep(), 1.0);
  int64_t expect_tokens = 0;
  for (const auto& r : workload) expect_tokens += r.output_len;
  EXPECT_EQ(m.aggregate.total_output_tokens, expect_tokens);
}

}  // namespace
}  // namespace flashinfer::spec

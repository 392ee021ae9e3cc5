// Real-time CPU micro-benchmarks (google-benchmark) of the actual kernels.
//
// Everything else in bench/ reports simulated-device numbers; this binary
// measures the real C++ implementations on the host CPU. The headline
// comparison is compiled (template-specialized) vs interpreted
// (std::function hooks) variant dispatch over the identical micro-kernel —
// the CPU analog of the FlashInfer-vs-FlexAttention gap of Tables 1-4 —
// plus the cost of the supporting machinery: sparse gather, state merging,
// scheduling (plan time), step pricing, and the radix tree's match and
// eviction.
#include <benchmark/benchmark.h>

#include "core/attention_state.h"
#include "core/kernel_dispatch.h"
#include "core/microkernel.h"
#include "gpusim/device.h"
#include "jit/interpreted.h"
#include "kvcache/radix.h"
#include "runtime/scheduler.h"
#include "serving/backends.h"
#include "sparse/gather.h"
#include "util/rng.h"

// The shared problem fixture lives with the tests; reuse it here.
#include "../tests/test_util.h"

namespace flashinfer {
namespace {

test::Problem MakeDecodeProblem(int batch, int64_t kv_len) {
  test::ProblemSpec spec;
  spec.qo_lens.assign(static_cast<size_t>(batch), 1);
  spec.kv_lens.assign(static_cast<size_t>(batch), kv_len);
  spec.num_qo_heads = 8;
  spec.num_kv_heads = 2;
  spec.head_dim = 64;
  spec.page_size = 16;
  spec.kv_dtype = DType::kF16;
  spec.tile_q = 4;
  return test::MakeProblem(spec);
}

void BM_DecodeCompiledVariant(benchmark::State& state) {
  auto prob = MakeDecodeProblem(4, state.range(0));
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 4;
  auto fn = GetBuiltinKernel(VariantKind::kVanilla, DType::kF16);
  for (auto _ : state) {
    test::RunSerial(p, cfg, fn);
    benchmark::DoNotOptimize(prob.o.data.data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * state.range(0));
}
BENCHMARK(BM_DecodeCompiledVariant)->Arg(256)->Arg(1024);

void BM_DecodeInterpretedVariant(benchmark::State& state) {
  // FlexAttention-style: identical math, every logit routed through
  // std::function hooks.
  jit::SetInterpretedHooks({});
  auto prob = MakeDecodeProblem(4, state.range(0));
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 4;
  jit::InterpretedHooks hooks;
  hooks.logits_transform = [](const VariantParams& vp, float logit, const LogitsCtx&) {
    return logit * vp.sm_scale;
  };
  hooks.logits_mask = [](const VariantParams& vp, const LogitsCtx& ctx) {
    return DefaultMask(vp, ctx);
  };
  jit::SetInterpretedHooks(hooks);
  auto fn = jit::GetInterpretedKernel(true, false, DType::kF16);
  for (auto _ : state) {
    test::RunSerial(p, cfg, fn);
    benchmark::DoNotOptimize(prob.o.data.data());
  }
  jit::SetInterpretedHooks({});
  state.SetItemsProcessed(state.iterations() * 4 * state.range(0));
}
BENCHMARK(BM_DecodeInterpretedVariant)->Arg(256)->Arg(1024);

void BM_PrefillCompiled(benchmark::State& state) {
  test::ProblemSpec spec;
  spec.qo_lens = {state.range(0)};
  spec.kv_lens = {state.range(0)};
  spec.num_qo_heads = 4;
  spec.num_kv_heads = 4;
  spec.head_dim = 64;
  spec.page_size = 16;
  spec.kv_dtype = DType::kF16;
  spec.tile_q = 16;
  auto prob = test::MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 16;
  cfg.tile_kv = 64;
  auto fn = GetBuiltinKernel(VariantKind::kVanilla, DType::kF16);
  for (auto _ : state) {
    test::RunSerial(p, cfg, fn);
    benchmark::DoNotOptimize(prob.o.data.data());
  }
  const double flops = 4.0 * spec.num_qo_heads * 64.0 * state.range(0) * state.range(0) / 2.0;
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PrefillCompiled)->Arg(128)->Arg(512);

void BM_FusedRopeVariant(benchmark::State& state) {
  auto prob = MakeDecodeProblem(4, 512);
  auto p = prob.Params();
  p.variant.rope_theta = 10000.0f;
  KernelConfig cfg;
  cfg.tile_q = 4;
  auto fn = GetBuiltinKernel(VariantKind::kFusedRope, DType::kF16);
  for (auto _ : state) {
    test::RunSerial(p, cfg, fn);
    benchmark::DoNotOptimize(prob.o.data.data());
  }
}
BENCHMARK(BM_FusedRopeVariant);

void BM_GatherRows(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<float> src(static_cast<size_t>(n) * 64);
  Rng rng(5);
  std::vector<const float*> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(src.data() + rng.UniformInt(0, n - 1) * 64);
  }
  std::vector<float> dst(static_cast<size_t>(n) * 64);
  for (auto _ : state) {
    sparse::GatherRows<float>(rows, 64, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * int64_t{n} * 64 * sizeof(float));
}
BENCHMARK(BM_GatherRows)->Arg(128)->Arg(4096);

void BM_MergeStates(benchmark::State& state) {
  Rng rng(7);
  const int d = 128;
  std::vector<AttentionState> parts;
  for (int i = 0; i < 8; ++i) {
    AttentionState s = AttentionState::Identity(d);
    for (auto& x : s.o) x = static_cast<float>(rng.Normal(0, 1));
    s.lse = static_cast<float>(rng.Normal(0, 2));
    parts.push_back(std::move(s));
  }
  for (auto _ : state) {
    auto merged = MergeAll(parts, d);
    benchmark::DoNotOptimize(merged.o.data());
  }
}
BENCHMARK(BM_MergeStates);

void BM_BalancedPlan(benchmark::State& state) {
  // The per-generation-step inspector cost (Sec. 3.3: runs on CPU each step,
  // amortized over layers through the plan cache).
  auto prob = MakeDecodeProblem(static_cast<int>(state.range(0)), 1024);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 4;
  cfg.tile_kv = 64;
  for (auto _ : state) {
    auto plan = MakeBalancedPlan(p, cfg, 132, int64_t{1} << 40);
    benchmark::DoNotOptimize(plan.items.data());
  }
}
BENCHMARK(BM_BalancedPlan)->Arg(8)->Arg(64)->Arg(256);

void BM_RadixMatch(benchmark::State& state) {
  RadixTree tree(16);
  Rng rng(11);
  std::vector<int32_t> prefix(1024);
  for (auto& t : prefix) t = static_cast<int32_t>(rng.UniformInt(0, 31999));
  std::vector<int64_t> pages(64);
  for (size_t i = 0; i < pages.size(); ++i) pages[i] = static_cast<int64_t>(i);
  tree.Insert(prefix, pages);
  for (auto _ : state) {
    auto m = tree.MatchPrefix(prefix);
    benchmark::DoNotOptimize(m.pages.data());
  }
}
BENCHMARK(BM_RadixMatch);

void BM_RadixEvictLru(benchmark::State& state) {
  // A router-side prefix mirror at its page budget: 2048 cached pages, then
  // every iteration inserts a new 64-page prompt and evicts the 64 LRU pages
  // that put it over budget.
  constexpr int kPage = 16;
  constexpr int64_t kBudget = 2048;
  RadixTree tree(kPage);
  Rng rng(13);
  int64_t next_page = 0;
  int32_t next_prompt = 0;
  std::vector<int32_t> tokens(64 * kPage);
  std::vector<int64_t> pages(64);
  const auto insert_prompt = [&] {
    tokens[0] = next_prompt++;  // Distinct first page: no sharing.
    for (size_t i = 1; i < tokens.size(); ++i) {
      tokens[i] = static_cast<int32_t>(rng.UniformInt(0, 31999));
    }
    for (auto& pg : pages) pg = next_page++;
    tree.Insert(tokens, pages);
  };
  while (tree.TotalCachedPages() < kBudget) insert_prompt();
  for (auto _ : state) {
    insert_prompt();
    auto freed = tree.EvictLru(tree.TotalCachedPages() - kBudget);
    benchmark::DoNotOptimize(freed.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_RadixEvictLru);

void BM_SimulateBatchAttention(benchmark::State& state) {
  // One serving step's pricing: a 35-request decode batch at Llama-3-8B
  // geometry (32 qo / 8 kv heads, head_dim 128, 16-token pages) through the
  // balanced scheduler and the kernel cost model.
  serving::AttnSimInput in;
  Rng rng(17);
  for (int r = 0; r < 35; ++r) {
    in.qo_lens.push_back(1);
    in.kv_lens.push_back(rng.UniformInt(200, 4000));
  }
  const auto dev = gpusim::H100Sxm80GB();
  const auto backend = serving::FlashInferBackend();
  for (auto _ : state) {
    auto report = serving::SimulateBatchAttention(dev, backend, in);
    benchmark::DoNotOptimize(report.time_us);
  }
}
BENCHMARK(BM_SimulateBatchAttention);

}  // namespace
}  // namespace flashinfer

BENCHMARK_MAIN();

// attn_kernel: real CPU attention through BatchAttentionHandle with a
// JIT-compiled vanilla variant, at Llama-8B head geometry. A closed
// continuous-batching loop keeps about 16 decode sequences growing and feeds
// one prefill chunk per step; each step plans once and runs every layer, so
// layers after the first hit the plan cache. The handle's simulated H100
// report of each launch gives the loop its simulated clock.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/reference.h"
#include "core/variants.h"
#include "gpusim/device.h"
#include "jit/compiler.h"
#include "kvcache/paged.h"
#include "kvcache/ragged.h"
#include "runtime/batch_handle.h"
#include "sparse/bsr.h"
#include "util/rng.h"

namespace pb {
namespace {

using namespace flashinfer;

constexpr int kQoHeads = 32, kKvHeads = 8, kHeadDim = 128, kPage = 16;
constexpr int kLayers = 2;        // Layers run per step (one plan, kLayers runs).
constexpr int kDecodeSlots = 16;  // Decode sequences kept running.
constexpr int64_t kChunk = 64;    // Prefill tokens per step.
constexpr int kSimSteps = 64;     // Steps whose simulated metrics are reported.
constexpr int kSetups = 3;        // Cold set-ups per run (median reported).
constexpr int kCheckedSteps = 2;  // Steps compared against the reference.
// New requests: prompts of 6 chunks (the last one partial), outputs of 64 to
// 128 tokens. The initial decode batch starts at 448 to 576 context tokens.
constexpr int64_t kPromptLo = 376, kPromptHi = 384;
constexpr int64_t kOutputLo = 64, kOutputHi = 128;
constexpr int64_t kContextLo = 448, kContextHi = 576;
constexpr double kTtftLimitMs = 200.0;
constexpr double kItlLimitMs = 50.0;

struct Seq {
  int id = 0;
  int kv_seq = -1;
  int64_t prompt = 0;     // Prompt tokens.
  int64_t computed = 0;   // Prompt tokens prefilled so far.
  int64_t remaining = 0;  // Output tokens still to emit.
  int64_t kv_tokens = 0;  // Tokens in its KV sequence.
  double start_s = 0.0;   // Simulated time its prefill started.
};

class Loop {
 public:
  /// Cold set-up: KV fill of the initial decode batch, workspace and handle
  /// construction, and the JIT compile of a vanilla variant into a
  /// run-private cache directory (a distinct variant name per set-up keeps
  /// the compile cold).
  Loop(uint64_t seed, const std::string& jit_dir, int setup_index)
      : rng_(seed), values_(1 << 16) {
    for (auto& v : values_) v = static_cast<float>(rng_.Normal(0.0, 1.0));
    kv_ = std::make_unique<PagedKVCache>(DType::kF16, kKvHeads, kHeadDim, kPage,
                                           /*max_pages=*/1536);
    for (int i = 0; i < kDecodeSlots; ++i) {
      Seq q = DecodeSeq();
      q.remaining = rng_.UniformInt(1, q.remaining);  // Staggered finishes.
      running_.push_back(q);
    }
    ws_ = std::make_unique<Workspace>(Workspace::EstimateBytes(264, 128, kHeadDim));
    BatchAttentionHandle::TaskInfo info;
    info.kv_dtype = DType::kF16;
    info.num_qo_heads = kQoHeads;
    info.num_kv_heads = kKvHeads;
    info.head_dim = kHeadDim;
    info.avg_qlen_hint = 1.0;
    handle_ = std::make_unique<BatchAttentionHandle>(gpusim::H100Sxm80GB(), info,
                                                        ws_.get());
    jit::AttentionSpecDesc spec;
    spec.name = "pb_vanilla_" + std::to_string(setup_index);
    spec.kv_dtype = DType::kF16;
    jit::JitOptions opts;
    opts.cache_dir = jit_dir;
    const auto t0 = Clock::now();
    kernel_ = jit::CompileVariant(spec, opts);
    compile_s_ = SecondsSince(t0);
    handle_->SetKernel(kernel_->fn(), kernel_->use_softmax());
    vp_.sm_scale = 1.0f / std::sqrt(static_cast<float>(kHeadDim));
    vp_.causal = true;
    vp_.num_qo_heads = kQoHeads;
    handle_->MutableVariantParams() = vp_;
  }

  double compile_s() const { return compile_s_; }

  struct StepResult {
    double sim_us = 0.0;       // Simulated attention+contraction, all layers.
    double hbm_bytes = 0.0;
    double host_s = 0.0;       // Plan + Run host time, all layers.
    double flops = 0.0;        // Causal-trimmed query-key FLOPs, all layers.
    std::vector<double> itl_ms;
    std::vector<double> ttft_ms;
    int64_t runs = 0;
    double max_ref_err = -1.0;  // >= 0 when checked against the reference.
  };

  StepResult Step(SpanLog& spans, bool check_reference) {
    StepResult res;
    if (!prefill_) {
      prefill_ = std::make_unique<Seq>(NewRequest());
      prefill_->start_s = now_s_;
    }
    // Batch: every running sequence's next token, then one prefill chunk.
    std::vector<int64_t> qo_lens, kv_lens;
    std::vector<sparse::RequestKv> req_kv;
    for (auto& q : running_) {
      Append(q, 1);
      qo_lens.push_back(1);
      kv_lens.push_back(q.kv_tokens);
    }
    int64_t chunk = 0;
    if (prefill_) {
      chunk = std::min(kChunk, prefill_->prompt - prefill_->computed);
      Append(*prefill_, chunk);
      prefill_->computed += chunk;
      qo_lens.push_back(chunk);
      kv_lens.push_back(prefill_->computed);
    }
    for (const auto& q : running_) req_kv.push_back(kv_->ExportKv(q.kv_seq));
    if (prefill_) req_kv.push_back(kv_->ExportKv(prefill_->kv_seq));

    const int g = kQoHeads / kKvHeads;
    std::vector<int64_t> fused(qo_lens);
    for (auto& f : fused) f *= g;
    const auto qo_indptr = BuildIndptr(qo_lens);
    sparse::BsrMatrix bsr;
    {
      Scope s(spans, "sparse.bsr_build");
      bsr = sparse::BuildBatchBsr(BuildIndptr(fused), req_kv, kPage,
                                  handle_->config().tile_q);
    }
    auto q = RaggedTensor::Zeros(qo_indptr, static_cast<int64_t>(kQoHeads) * kHeadDim);
    auto o = RaggedTensor::Zeros(qo_indptr, q.inner);
    for (int layer = 0; layer < kLayers; ++layer) {
      for (size_t i = 0; i < q.data.size(); ++i) {
        q.data[i] = values_[(i * 7 + static_cast<size_t>(layer) * 131 + cursor_) %
                            values_.size()];
      }
      const auto t0 = Clock::now();
      {
        Scope s(spans, layer == 0 ? "runtime.plan" : "runtime.plan_hit");
        handle_->Plan(&bsr, qo_indptr, kv_lens);
      }
      ++plan_calls_;
      gpusim::SimReport report;
      {
        Scope s(spans, "core.run");
        report = handle_->Run(q, *kv_, &o);
      }
      res.host_s += SecondsSince(t0);
      ++res.runs;
      res.sim_us += report.time_us;
      res.hbm_bytes += report.total_hbm_bytes;
      double sum = 0.0, mx = 0.0;
      for (double t : report.cta_time_us) {
        sum += t;
        mx = std::max(mx, t);
      }
      if (sum > 0.0) {
        cta_imbalance_.push_back(mx / (sum / static_cast<double>(report.cta_time_us.size())));
      }
      partial_rows_.push_back(static_cast<double>(handle_->plan().num_partial_rows));
      if (check_reference && layer == 0) {
        res.max_ref_err = ReferenceError(bsr, qo_indptr, kv_lens, q, o);
      }
    }
    cursor_ += 9973;
    for (size_t r = 0; r < qo_lens.size(); ++r) {
      const double kv = static_cast<double>(kv_lens[r]);
      const double ql = static_cast<double>(qo_lens[r]);
      // Query i of a chunk ending at kv sees kv - ql + i + 1 keys.
      const double pairs = ql * (kv - ql) + ql * (ql + 1.0) / 2.0;
      res.flops += 4.0 * kHeadDim * kQoHeads * pairs * kLayers;
    }

    // Simulated clock: the step lasts its launches' simulated time.
    now_s_ += res.sim_us * 1e-6;
    const double step_ms = res.sim_us * 1e-3;
    // A finished decode sequence frees its slot for a new one whose context
    // is filled directly, so every step keeps kDecodeSlots decode rows.
    for (auto& q : running_) {
      res.itl_ms.push_back(step_ms);
      if (--q.remaining == 0) {
        kv_->DropSequence(q.kv_seq);
        ++finished_;
        q = DecodeSeq();
      }
    }
    // A completed prefill emits its first token and leaves the batch; the next
    // prompt starts with the next step.
    if (prefill_->computed == prefill_->prompt) {
      res.ttft_ms.push_back((now_s_ - prefill_->start_s) * 1e3);
      kv_->DropSequence(prefill_->kv_seq);
      ++finished_;
      prefill_.reset();
    }
    return res;
  }

  double NowS() const { return now_s_; }
  int64_t Finished() const { return finished_; }
  int64_t PlanCalls() const { return plan_calls_; }
  int64_t PlanHits() const { return handle_->plan_cache_hits(); }
  const KernelConfig& Config() const { return handle_->config(); }
  const std::vector<double>& CtaImbalance() const { return cta_imbalance_; }
  const std::vector<double>& PartialRows() const { return partial_rows_; }

 private:
  /// A decode sequence with its context already in the KV cache.
  Seq DecodeSeq() {
    Seq q = NewRequest();
    q.prompt = rng_.UniformInt(kContextLo, kContextHi);
    q.computed = q.prompt;
    Append(q, q.prompt);
    return q;
  }

  Seq NewRequest() {
    Seq q;
    q.id = static_cast<int>(next_id_++);
    q.kv_seq = kv_->CreateSequence();
    q.prompt = rng_.UniformInt(kPromptLo, kPromptHi);
    q.remaining = rng_.UniformInt(kOutputLo, kOutputHi);
    return q;
  }

  void Append(Seq& q, int64_t tokens) {
    q.kv_tokens += tokens;
    const size_t n = static_cast<size_t>(tokens) * kKvHeads * kHeadDim;
    k_buf_.resize(n);
    v_buf_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      k_buf_[i] = values_[(i + cursor_) % values_.size()];
      v_buf_[i] = values_[(i * 3 + cursor_ + 17) % values_.size()];
    }
    cursor_ += n % 65521;
    kv_->AppendTokens(q.kv_seq, k_buf_.data(), v_buf_.data(), tokens);
  }

  double ReferenceError(const sparse::BsrMatrix& bsr, const std::vector<int64_t>& qo_indptr,
                        const std::vector<int64_t>& kv_lens, const RaggedTensor& q,
                        const RaggedTensor& o) const {
    AttentionParams p;
    p.q = &q;
    p.kv = kv_.get();
    p.bsr = &bsr;
    p.qo_indptr = qo_indptr;
    p.kv_len = kv_lens;
    p.num_qo_heads = kQoHeads;
    p.num_kv_heads = kKvHeads;
    p.head_dim = kHeadDim;
    p.head_fusion = true;
    p.variant = vp_;
    auto ref = RaggedTensor::Zeros(qo_indptr, q.inner);
    p.o = &ref;
    ReferenceAttention<VanillaVariant>(p, &ref, nullptr);
    double err = 0.0;
    for (size_t i = 0; i < ref.data.size(); ++i) {
      err = std::max(err, static_cast<double>(std::fabs(ref.data[i] - o.data[i])));
    }
    return err;
  }

  Rng rng_;
  std::vector<float> values_;
  std::vector<float> k_buf_, v_buf_;
  size_t cursor_ = 0;
  std::unique_ptr<PagedKVCache> kv_;
  std::unique_ptr<Workspace> ws_;
  std::unique_ptr<BatchAttentionHandle> handle_;
  std::shared_ptr<jit::CompiledKernel> kernel_;
  std::vector<Seq> running_;
  double compile_s_ = 0.0;
  VariantParams vp_;
  std::unique_ptr<Seq> prefill_;
  double now_s_ = 0.0;
  int64_t next_id_ = 0;
  int64_t finished_ = 0;
  int64_t plan_calls_ = 0;
  std::vector<double> cta_imbalance_, partial_rows_;
};

}  // namespace

Outcome RunAttnKernel(const Args& args, Report& rep, Gates& gates, SpanLog& spans) {
  // Cold set-ups; the last one is kept for the measured loop.
  std::vector<double> setup_s, compile_s;
  std::unique_ptr<Loop> loop;
  for (int i = 0; i < kSetups; ++i) {
    const std::string dir = args.scratch_dir + "/jit" + std::to_string(i);
    std::filesystem::remove_all(dir);
    loop.reset();
    const auto t0 = Clock::now();
    {
      Scope s(spans, "jit.setup");
      loop = std::make_unique<Loop>(args.seed, dir, i);
    }
    setup_s.push_back(SecondsSince(t0));
    compile_s.push_back(loop->compile_s());
  }

  // Measured loop: at least kSimSteps steps, then until --seconds elapse.
  std::vector<double> ttft, itl, step_gflops;
  double sim_us_sum = 0.0, hbm_bytes = 0.0, sim_flops = 0.0;
  int64_t runs = 0, sim_finished = 0;
  double sim_makespan_s = 0.0;
  const auto t_begin = Clock::now();
  int step = 0;
  for (; step < kSimSteps || SecondsSince(t_begin) < args.seconds; ++step) {
    const bool check = step < kCheckedSteps;
    const auto r = loop->Step(spans, check);
    if (check) {
      gates.Check(r.max_ref_err >= 0.0 && r.max_ref_err < 2e-3,
                  "attn_kernel: step " + std::to_string(step) +
                      " output within 2e-3 of core/reference.h (max abs err " +
                      std::to_string(r.max_ref_err) + ")");
    }
    runs += r.runs;
    step_gflops.push_back(r.flops / r.host_s * 1e-9);
    if (step < kSimSteps) {
      sim_us_sum += r.sim_us;
      hbm_bytes += r.hbm_bytes;
      sim_flops += r.flops;
      ttft.insert(ttft.end(), r.ttft_ms.begin(), r.ttft_ms.end());
      itl.insert(itl.end(), r.itl_ms.begin(), r.itl_ms.end());
      if (step == kSimSteps - 1) {
        sim_makespan_s = loop->NowS();
        sim_finished = loop->Finished();
      }
    }
  }
  const auto dev = gpusim::H100Sxm80GB();
  int64_t out_tokens = static_cast<int64_t>(itl.size() + ttft.size());
  const auto n_ttft = static_cast<int64_t>(ttft.size());
  const auto n_itl = static_cast<int64_t>(itl.size());
  std::printf("attn_kernel: %d steps (%d simulated-metric steps), %lld attention runs, "
              "%lld requests finished in the simulated window\n",
              step, kSimSteps, static_cast<long long>(runs),
              static_cast<long long>(sim_finished));
  const auto& cfg = loop->Config();
  // Per-CTA working set of one tile: Q tile (fp32), double-buffered K and V
  // tiles at f16, the score tile and the output accumulator (fp32).
  const double tile_bytes = cfg.tile_q * kHeadDim * 4.0 + 2.0 * 2.0 * cfg.tile_kv * kHeadDim * 2.0 +
                            cfg.tile_q * cfg.tile_kv * 4.0 + cfg.tile_q * kHeadDim * 4.0;
  std::printf("attn_kernel: tile_q=%d tile_kv=%d working set %.1f KiB (L1d %ld KiB, L2 %ld KiB)\n",
              cfg.tile_q, cfg.tile_kv, tile_bytes / 1024.0,
              CacheKib(1), CacheKib(2));

  if (!args.trace) {
    int64_t within = 0;
    for (double t : ttft) within += t <= kTtftLimitMs ? 1 : 0;
    const double slo = n_ttft > 0 ? static_cast<double>(within) / static_cast<double>(n_ttft) : 0.0;
    rep.Add("ttft_p50_ms", Pct(ttft, 0.5), "ms", n_ttft);
    rep.Add("ttft_p99_ms", Pct(ttft, 0.99), "ms", n_ttft);
    rep.Add("itl_p50_ms", Pct(itl, 0.5), "ms", n_itl);
    rep.Add("itl_p99_ms", Pct(itl, 0.99), "ms", n_itl);
    rep.Add("output_tok_s", static_cast<double>(out_tokens) / sim_makespan_s, "tok/s",
            out_tokens);
    rep.Add("slo_attain", slo, "fraction", n_ttft);
    // Closed loop: prompts prefill back to back, so the completed prompts span
    // the sum of their TTFTs; they count as goodput while both limits hold.
    double ttft_sum_ms = 0.0;
    for (double t : ttft) ttft_sum_ms += t;
    const bool meets = Pct(itl, 0.99) <= kItlLimitMs;
    rep.Add("goodput_rps", meets ? static_cast<double>(within) / (ttft_sum_ms * 1e-3) : 0.0,
            "req/s", n_ttft);
    rep.Add("req_done_frac", 1.0, "fraction", n_ttft);
    // Host clock, robust to bursts of other load on the machine: the median
    // per-step rate over every step run, and the fixed work of the
    // simulated-metric steps at that rate. Not scaled by HostScale: this
    // compute-bound, multi-threaded loop does not slow down with the
    // single-threaded reference.
    const double gflops = Pct(step_gflops, 0.5);
    rep.Add("host_s", sim_flops * 1e-9 / gflops, "s", static_cast<int64_t>(step_gflops.size()));
    rep.Add("setup_s", Pct(setup_s, 0.5), "s", kSetups);
    rep.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    rep.Add("attn_gflops", gflops, "GFLOP/s", static_cast<int64_t>(step_gflops.size()));
    rep.Add("sim_attn_us", sim_us_sum / kSimSteps, "us", kSimSteps);
    rep.Add("sim_bw_util", hbm_bytes / (dev.hbm_gbps * 1e3 * sim_us_sum), "fraction",
            kSimSteps * kLayers);
  } else {
    const auto run_us = spans.DurationsUs("core.run");
    const auto plan_us = spans.DurationsUs("runtime.plan");
    const auto bsr_us = spans.DurationsUs("sparse.bsr_build");
    rep.Add("core.run_host_us_p50", Pct(run_us, 0.5), "us", static_cast<int64_t>(run_us.size()));
    rep.Add("core.run_host_us_p99", Pct(run_us, 0.99), "us", static_cast<int64_t>(run_us.size()));
    rep.Add("core.tile_working_set_kib", tile_bytes / 1024.0, "KiB");
    rep.Add("jit.compile_s", Pct(compile_s, 0.5), "s", kSetups);
    rep.Add("runtime.plan_host_us_p50", Pct(plan_us, 0.5), "us",
            static_cast<int64_t>(plan_us.size()));
    rep.Add("runtime.plan_host_us_p99", Pct(plan_us, 0.99), "us",
            static_cast<int64_t>(plan_us.size()));
    rep.Add("sparse.bsr_build_host_us_p50", Pct(bsr_us, 0.5), "us",
            static_cast<int64_t>(bsr_us.size()));
    rep.Add("runtime.plan_cache_hit_rate",
            static_cast<double>(loop->PlanHits()) / static_cast<double>(loop->PlanCalls()),
            "fraction", loop->PlanCalls());
    rep.Add("runtime.cta_imbalance", MeanOf(loop->CtaImbalance()), "ratio",
            static_cast<int64_t>(loop->CtaImbalance().size()));
    rep.Add("runtime.partial_rows_mean", MeanOf(loop->PartialRows()), "count",
            static_cast<int64_t>(loop->PartialRows().size()));
    rep.Add("obs.trace_dropped", 0.0, "count", 0);
  }
  for (int i = 0; i < kSetups; ++i) {
    std::filesystem::remove_all(args.scratch_dir + "/jit" + std::to_string(i));
  }
  return {runs, 0};
}

}  // namespace pb

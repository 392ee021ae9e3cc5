// Continuous-batching LLM serving engine over simulated time (Sec. 4.1).
//
// Every engine iteration is a *StepPlan*: a batch former assembles one
// unified batch — each running branch contributes its decode token (or, with
// spec decode enabled, its draft-tree verify tokens) and each in-flight
// prefill contributes a prompt *chunk* of at most
// EngineConfig::prefill_chunk_tokens — and an executor prices that plan as a
// single step. The resulting heterogeneous qo_lens go through ONE
// SimulateBatchAttention call per step (the balanced scheduler absorbs the
// mixed query tiles; naive/fixed-split backends pay for them — Tables 6/7
// extended to serving), GEMM time (roofline over the model's dense layers),
// tensor-parallel all-reduce time, and host overhead are charged once per
// mixed step, and the one plan is reused across layers exactly as the
// paper's plan cache allows. A chunked request keeps partial-prefill
// progress in per-request state across steps and emits its first token only
// when its last chunk lands, so a long prompt never head-of-line-blocks the
// running decodes. Chunking defaults on; `prefill_chunk_tokens = 0` restores
// the legacy prefill-alone loop (whole prompts, prefill steps run with no
// decode tokens, as in early SGLang) — pinned by equivalence tests and kept
// as the baseline the chunked-prefill bench ablates against.
//
// Parallel generation (the OpenAI "n" parameter, Sec. 4.4) forks n branches
// sharing the prompt KV through the paged cache; composable backends decode
// those groups with the two-level shared-prefix format.
//
// Speculative decoding (src/spec/): with SpecDecodeConfig enabled, the
// decode half of each plan becomes draft + verify — the draft model proposes
// a token tree per branch, the target verifies every tree token in the same
// step (attention priced through the real tree-attention kernel path:
// ancestor mask -> BsrFromDenseMask -> scheduler -> cost model), accepted
// prefixes commit, and rejected tree branches roll their KV back through
// PagedKVCache refcounts. Verify tokens coexist with in-flight prefill
// chunks in one mixed step instead of alternating exclusively.
//
// KV pressure (src/kvcache/ two-tier pool): with PreemptionConfig enabled,
// an arrived request that does not fit the device KV budget preempts running
// branches of strictly lower priority (lowest first, then youngest) instead
// of queuing behind them. A victim's KV either swaps to a host-memory tier
// (PCIe transfer charged into the steps it serializes with) or is dropped
// and later *recomputed* through the chunked-prefill path — chosen per
// victim by a cost estimate whose crossover the kv-pressure bench sweeps:
// short contexts recompute nearly free under the weight-streaming floor,
// long contexts are compute-bound and swap wins. Admission reserves each
// branch's full output KV up front under preemption, so the device budget
// is never violated; a request whose KV need exceeds the *total* budget is
// rejected with a metric (the pre-preemption engine aborted on a loud
// FI_CHECK when such a request wedged the arrival queue).
//
// The engine is *steppable*: a cluster driver (src/cluster/) owns N replicas
// and interleaves event-driven time across them with Admit()/StepTo(), so
// routing decisions can observe each replica's live load — including the
// un-prefilled remainder of partially chunked requests (QueuedTokens()).
// Run() remains a thin Reset+Admit+Drain wrapper, step-for-step identical on
// arrival-sorted workloads (every in-repo generator); Admit() keeps the
// queue sorted by arrival, so unsorted admission orders behave identically.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "gpusim/copystream.h"
#include "kvcache/paged.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serving/backends.h"
#include "serving/metrics.h"
#include "serving/model.h"
#include "serving/workload.h"
#include "spec/spec.h"
#include "spec/verify.h"
#include "util/rng.h"

namespace flashinfer::serving {

/// How the batch former spends each step's prefill budget when chunking is
/// on (`prefill_chunk_tokens > 0`).
enum class BatchPolicy {
  /// Cap each step's total prefill work at one chunk's worth
  /// (min(prefill_chunk_tokens, max_prefill_tokens)): every mixed step stays
  /// short, so running decodes see a bounded ITL hit. Default.
  kDecodePriority,
  /// Pack chunks from as many queued prefills as fit under
  /// max_prefill_tokens per step: faster TTFT drain under prefill backlogs
  /// at the cost of longer mixed steps (worse ITL tail).
  kThroughputPriority,
};

/// How a preempted branch's KV context is rebuilt when it re-enters.
enum class RestorePolicy {
  /// Always swap the host copy back over the simulated PCIe link.
  kSwap,
  /// Always drop the KV at eviction and re-prefill the whole context
  /// (prompt + generated tokens) through the chunked-prefill path.
  kRecompute,
  /// Per victim, pick whichever the cost model estimates cheaper: swap time
  /// (two transfers + fixed latency) vs the *marginal* recompute time —
  /// chunk GEMM rides under the weight-streaming floor the step pays
  /// anyway, so short contexts recompute nearly for free while long ones
  /// are compute-bound and swap wins.
  kAuto,
};

/// Priority preemption over a two-tier KV cache. When an arrived request
/// does not fit the device KV budget, the engine evicts running branches of
/// strictly lower priority (lowest first, then youngest) instead of letting
/// the arrival queue wedge. Victims either swap their KV to a host-memory
/// tier or drop it for later recompute; they re-enter through AdmitArrived
/// as swap transfers or prompt chunks, re-reserving their KV charge, so the
/// device budget is never violated.
struct PreemptionConfig {
  bool enabled = false;
  /// Host (offload tier) KV capacity, GB.
  double host_capacity_gb = 16.0;
  /// Device<->host swap bandwidth, GB/s (PCIe-class link).
  double swap_gbps = 24.0;
  /// Fixed per-transfer latency, microseconds (DMA setup, pinning).
  double swap_latency_us = 100.0;
  /// Per-page overhead, microseconds: paged KV is scattered, so a transfer
  /// is block-granular gather/scatter copies (vLLM's swap_blocks), not one
  /// contiguous DMA. This is what makes short contexts cheaper to recompute
  /// than to swap.
  double swap_page_overhead_us = 20.0;
  RestorePolicy restore = RestorePolicy::kAuto;
  /// Route swap traffic through per-direction async copy streams
  /// (gpusim::CopyStream) instead of serializing each transfer into the next
  /// executed step. A swap-out stops blocking anything; a swap-in gates only
  /// its own branch, which re-enters once the H2D transfer completes while
  /// other work keeps stepping — the DMA time overlaps compute and is
  /// metered by ServingMetrics::swap_hidden_ms / SwapOverlapEfficiency().
  /// Off by default: the legacy serialize-into-step model stays
  /// bit-identical.
  bool overlap_swap = false;
  /// Host-tier page codec: quantize (INT8/FP8, per-page scale/zero) and/or
  /// LZ4-compress pages on eviction so `host_capacity_gb` measures *stored*
  /// bytes and the tier's effective capacity multiplies. Restores decode the
  /// pages; decode time is priced into the restore transfer (CopyStream path
  /// included) and the per-page quantization MSE lands in ServingMetrics as
  /// the accuracy proxy. Default-disabled: the raw two-tier path is
  /// bit-identical to the pre-codec engine.
  KvCodecConfig host_codec;
  /// Codec throughput for pricing encode (evict) / decode (restore) time,
  /// GB/s over the page's *logical* bytes. Decode is cheaper than encode
  /// (no min/max scan, no match search).
  double codec_encode_gbps = 32.0;
  double codec_decode_gbps = 48.0;
};

struct EngineConfig {
  ModelSpec model;
  gpusim::DeviceSpec device;
  BackendConfig backend;
  int page_size = 16;
  /// HBM per GPU, GB (weights + KV must fit).
  double hbm_capacity_gb = 80.0;
  /// Max concurrently running branches.
  int max_running = 512;
  /// Per-step prefill token budget.
  int64_t max_prefill_tokens = 8192;
  /// Max prompt tokens one request contributes to a single step. A longer
  /// prompt is split into chunks that ride along with running decodes in
  /// mixed batches. 0 restores the legacy prefill-alone loop: whole prompts,
  /// prefill steps with no decode tokens, decodes stalling behind them.
  int64_t prefill_chunk_tokens = 2048;
  /// Mixed-batch formation policy (ignored when prefill_chunk_tokens == 0).
  BatchPolicy batch_policy = BatchPolicy::kDecodePriority;
  /// NVLink all-reduce bandwidth per GPU, GB/s (tensor parallel).
  double nvlink_gbps = 450.0;
  /// Speculative decoding (off by default: vanilla one-token decode steps).
  spec::SpecDecodeConfig spec;
  /// Priority preemption + host KV tier (off by default).
  PreemptionConfig preemption;
  /// Disaggregated prefill/decode serving (off by default: zero behavior
  /// change). When set, a branch that finishes prefill does NOT enter the
  /// local decode loop: it parks in an exportable pool that a cluster driver
  /// drains with MigratableUnits()/ExtractMigratable(), shipping its KV to a
  /// decode-pool replica over a per-replica-pair CopyStream. The first token
  /// (TTFT) is still paid here — migration moves the *decode* phase only.
  bool export_at_first_token = false;
  /// Event tracing (off by default: zero events, zero behavior change — the
  /// enabled/disabled metric equivalence is pinned by tests). When enabled,
  /// the engine records request/step/KV events into a bounded ring buffer in
  /// simulated time; export via obs::WritePerfettoFile(TraceEvents()).
  obs::TraceConfig trace;
  /// Live telemetry plane (off by default: no registry, no SLO monitor, zero
  /// behavior change — pinned by the same bit-identical-metrics test
  /// pattern). When enabled, the engine publishes windowed counters, gauges,
  /// and (tenant, priority)-labeled latency sketches into a MetricsRegistry
  /// every step, and evaluates telemetry.slos as burn-rate monitors whose
  /// alerts land in the trace (when tracing is also on).
  obs::TelemetryConfig telemetry;
};

/// One decode branch crossing a replica boundary in a migration unit: the
/// scheduler state a decode-pool replica needs to resume it mid-stream.
/// `last_emit_s` carries over, so the migration latency surfaces as exactly
/// one inter-token gap on the destination's ITL distribution.
struct MigratedBranch {
  int request_id = 0;
  int64_t prefix_len = 0;   // Shared prompt tokens (grouped units).
  int64_t kv_len = 0;       // KV tokens to ship (incl. shared prefix).
  int64_t remaining = 0;    // Output tokens still to emit.
  double accept_prob = 0.0;
  int priority = 0;
  int tenant = -1;
  double arrival_s = 0.0;
  double last_emit_s = 0.0;  // First-token time on the prefill replica.
  int64_t stall_steps = 0;
};

/// A finished-prefill request (all sibling branches of one parallel-n group)
/// ready to migrate prefill-replica -> decode-replica. The unit is the
/// migration granule: siblings share prefix KV pages, so they ship together
/// and the shared prefix crosses the link once.
struct MigrationUnit {
  int64_t unit_id = 0;
  std::vector<MigratedBranch> branches;
  bool grouped = false;        // Parallel-n: branches share prefix KV.
  int64_t prefix_tokens = 0;   // Shared prompt tokens (grouped only).
  int64_t kv_tokens = 0;       // Unique KV tokens on the wire (prefix once).
  int64_t pages = 0;           // KV pages on the wire (ExportKv page lists).
  /// Device KV reservation the unit holds on its source / requires on its
  /// destination (suffixes + slack + remaining-output reserve + prefix once).
  int64_t kv_charge = 0;
  double export_s = 0.0;       // When the unit became exportable (source clock).
};

class ServingEngine {
 public:
  explicit ServingEngine(EngineConfig cfg);

  /// Simulates the full workload and returns latency metrics. Equivalent to
  /// Reset() + Admit() for every request + Drain().
  ServingMetrics Run(const std::vector<Request>& workload);

  // --- Incremental (steppable) API -----------------------------------------
  //
  // A step is atomic: once started it runs to completion even if it crosses
  // the caller's deadline, exactly like a launched GPU iteration that a
  // router cannot preempt. A chunked prefill is NOT atomic across steps: its
  // progress state persists, so a StepTo deadline can land between chunks.

  /// Clears all queues, clocks, and accumulated metrics.
  void Reset();

  /// Enqueues a request. `r.arrival_s` is honored: the request is not
  /// admitted into a batch before its arrival time. Requests may be admitted
  /// in any order; the queue is kept sorted by (arrival, id), so even
  /// simultaneous arrivals schedule independently of the Admit() call order.
  void Admit(const Request& r);

  /// Simulated time at which the next step would start: the current clock if
  /// work is runnable (running branches or partially prefilled requests),
  /// the earliest pending arrival if the engine is idle, +infinity when
  /// fully drained.
  double NextEventTime() const noexcept;

  /// Executes every step whose start time is <= `deadline_s`; returns the
  /// number of *work* steps executed (any step with prefill chunks, decode,
  /// or spec-verify tokens). Idle skips — jumping the clock to the next
  /// arrival — advance time but are NOT counted; they are reported via
  /// ServingMetrics::num_idle_skips / total_idle_s so tokens-per-step
  /// statistics are not diluted by waiting.
  int64_t StepTo(double deadline_s);

  /// Runs until all admitted work has completed.
  void Drain();

  /// True when no pending, prefilling, running, preempted, or exportable
  /// work remains. Exportable units count as work: a prefill-pool replica is
  /// not drained until the cluster driver has migrated (or retained) them.
  bool Finished() const noexcept {
    return pending_.empty() && prefilling_.empty() && running_.empty() &&
           preempted_.empty() && exportable_.empty();
  }

  /// Metrics accumulated since the last Reset().
  const ServingMetrics& Metrics() const noexcept { return metrics_; }

  /// Current simulated time, seconds.
  double Now() const noexcept { return now_s_; }

  // --- Load introspection (router signals) ---------------------------------

  /// Prompt+output tokens not yet prefilled: whole pending requests plus the
  /// un-prefilled remainder (and full output) of partially chunked requests,
  /// so a router sees the true backlog of a replica mid-chunk.
  int64_t QueuedTokens() const noexcept;

  /// Output tokens still to be decoded by running branches.
  int64_t RunningTokens() const noexcept;

  /// KV tokens currently charged against the budget. Vanilla engines charge
  /// tokens as they are emitted (and can therefore soft-over-commit); spec
  /// engines reserve each branch's full output at admission so multi-token
  /// verify commits can never exhaust the fork/rollback page pool. Chunked
  /// requests charge their full prompt at admission (the pages are committed
  /// to the request even while chunks are in flight).
  int64_t KvTokensInUse() const noexcept { return kv_tokens_in_use_; }

  /// KV token capacity implied by the memory budget.
  int64_t KvTokenBudget() const noexcept { return kv_token_budget_; }

  /// Per-direction copy streams (overlap-swap mode; idle/empty otherwise).
  const gpusim::CopyStream& CopyD2H() const noexcept { return copy_d2h_; }
  const gpusim::CopyStream& CopyH2D() const noexcept { return copy_h2d_; }

  /// Host-tier KV tokens held by swapped-out (preempted) branches.
  int64_t HostKvTokensInUse() const noexcept { return host_kv_tokens_in_use_; }
  /// Host-tier KV token capacity (0 when preemption is disabled).
  int64_t HostKvTokenBudget() const noexcept { return host_kv_token_budget_; }
  /// Branches currently evicted and awaiting restore.
  int64_t PreemptedBranches() const noexcept {
    return static_cast<int64_t>(preempted_.size());
  }

  /// Live pages in the structural KV accounting cache (active under spec
  /// decode and/or preemption; 0 otherwise, and 0 after Drain() when nothing
  /// leaked through the fork/rollback/evict paths). Device tier only — host
  /// pages held by swapped-out branches are tracked by HostKvTokensInUse.
  int64_t SpecKvLivePages() const noexcept {
    return spec_kv_ ? spec_kv_->num_live_pages() : 0;
  }

  // --- Disaggregated migration (export_at_first_token mode) -----------------
  //
  // Source-side protocol (prefill replica): the cluster driver polls
  // MigratableUnits(), picks a destination per unit, then either
  // ExtractMigratable() (the unit leaves this engine: KV charge and
  // structural pages released, accounting exact) or RetainMigratable() (no
  // decode-pool replica can take it: the unit falls back into the local
  // decode loop, charge untouched). Destination side: CanAcceptMigration()
  // gates on KV headroom + run slots; AdmitMigratedUnit() charges the KV and
  // parks the unit behind a transfer-gated zero-token prefill entry that
  // becomes runnable at the link transfer's end time, exactly like an
  // overlap-swap restore.

  /// Units parked in the exportable pool (cheap emptiness probe).
  int64_t MigratableUnitCount() const noexcept {
    return static_cast<int64_t>(exportable_.size());
  }
  /// Snapshot of every exportable unit (ids stable until extract/retain).
  std::vector<MigrationUnit> MigratableUnits() const;
  /// Removes the unit from this engine, releasing its device KV charge and
  /// structural pages (page count measured through PagedKVCache::ExportKv on
  /// the way out). The returned unit is what crosses the wire.
  MigrationUnit ExtractMigratable(int64_t unit_id);
  /// Fallback when no decode replica can accept the unit: its branches
  /// re-enter the local running set (KV charge was never released).
  void RetainMigratable(int64_t unit_id);
  /// Whether this engine can admit the unit right now (device KV headroom
  /// for the unit's full reservation + run slots for all its branches).
  bool CanAcceptMigration(const MigrationUnit& u) const noexcept;
  /// Admits a migrated unit. `xfer` is the unit's transfer on the
  /// inter-replica link (timed by the cluster's per-pair CopyStream): the
  /// branches resume decoding only once now >= xfer.end_s, and the transfer
  /// interval is metered against this replica's step windows into
  /// migration_hidden_ms (overlapped) vs migration_stall_ms (exposed).
  void AdmitMigratedUnit(const MigrationUnit& u,
                         const gpusim::CopyStream::Transfer& xfer);
  /// Accounting stream holding recorded inter-replica transfer intervals
  /// (destination side); idle/empty when no migrations were admitted.
  const gpusim::CopyStream& CopyMigrate() const noexcept { return copy_migrate_; }

  // --- Tracing --------------------------------------------------------------

  /// The recorder, or nullptr when EngineConfig::trace is disabled.
  const obs::TraceRecorder* Trace() const noexcept { return trace_.get(); }

  /// Copy of the recorded events since the last Reset(), oldest first (empty
  /// when tracing is disabled).
  std::vector<obs::TraceEvent> TraceEvents() const {
    return trace_ ? trace_->Events() : std::vector<obs::TraceEvent>{};
  }

  // --- Telemetry ------------------------------------------------------------

  /// The live metrics registry, or nullptr when EngineConfig::telemetry is
  /// disabled. Scrape with PrometheusText(Now()) / JsonSnapshot(Now()).
  const obs::MetricsRegistry* Telemetry() const noexcept { return telemetry_.get(); }

  /// The SLO burn-rate monitor, or nullptr when telemetry is disabled or no
  /// specs were configured.
  const obs::SloMonitor* Slo() const noexcept { return slo_.get(); }

 private:
  struct Branch {
    int request_id = 0;
    int group = -1;            // Parallel-generation group id, -1 if alone.
    int64_t prefix_len = 0;    // Shared prompt tokens (group != -1).
    int64_t kv_len = 0;        // Current KV length (incl. shared prefix).
    int64_t remaining = 0;     // Output tokens still to emit.
    double last_emit_s = 0.0;
    int64_t stall_steps = 0;   // Work steps survived without emitting.
    double accept_prob = 0.0;  // Spec decode: draft acceptance probability.
    int spec_seq = -1;         // Structural KV: sequence id in spec_kv_.
    int priority = 0;          // Preemption: request priority.
    int tenant = -1;           // Telemetry: owning tenant (-1 = unassigned).
    double arrival_s = 0.0;    // Preemption: victim tie-break (youngest).
    double seg_start_s = 0.0;  // Trace: start of the current decode segment.
  };

  /// Admitted request whose prompt is (possibly partially) prefilled; lives
  /// in prefilling_ until its last chunk lands and it becomes Branch(es).
  /// Restores reuse this machinery: `restore` entries either re-prefill a
  /// preempted branch's whole context (recompute: to_compute = the context
  /// to rebuild) or ride one step as a zero-token transfer chunk (swap: the
  /// branch must not decode while its KV is still in flight over PCIe). The
  /// synthetic req carries the branch's remaining output so QueuedTokens
  /// sees the backlog; completion resumes `branch` instead of emitting a
  /// first token.
  struct PrefillProgress {
    Request req;
    int64_t computed = 0;    // Uncached prompt tokens already prefilled.
    int64_t to_compute = 0;  // Total uncached prompt tokens.
    int chunks_used = 0;     // Chunks scheduled so far (metrics).
    bool restore = false;    // Restore of a preempted branch.
    bool swap_restore = false;  // Swap-in transfer (vs recompute).
    Branch branch;           // Valid when restore == true.
    /// Inbound migration (disaggregated mode): a whole unit rides one
    /// zero-token transfer-gated entry; completion materializes
    /// import_branches instead of emitting a first token (TTFT was paid on
    /// the prefill replica).
    bool migrate = false;
    std::vector<Branch> import_branches;  // Valid when migrate == true.
    double phase_start_s = 0.0;  // Trace: admission / restore-start time.
    /// Overlap-swap mode: completion time of the in-flight H2D transfer.
    /// The entry is ineligible for the step plan until now >= ready_s (its
    /// KV is still on the PCIe link); 0 for everything else.
    double ready_s = 0.0;
  };

  /// A branch evicted under KV pressure, waiting to re-enter.
  struct Preempted {
    Branch branch;
    bool swapped = false;   // Host copy exists: restore = swap-in transfer.
    int64_t reserve = 0;    // Device KV charge to re-acquire on restore.
    int64_t order = 0;      // FIFO tie-break within a priority level.
    double evicted_s = 0.0;  // Trace: eviction time (preempted-span begin).
    /// Overlap-swap mode: when the D2H swap-out finishes on the copy stream.
    /// A swap-in of this branch cannot be issued before its host copy
    /// exists; 0 in legacy mode (the swap-out already serialized).
    double swapout_done_s = 0.0;
    /// Realized stored/logical byte ratio of this branch's encoded host
    /// pages, captured at evict time — the swap-in prices the *stored*
    /// bytes it will actually move (1.0 with the codec off).
    double stored_ratio = 1.0;
  };

  /// One step's assembled work: which prefill chunks run and whether the
  /// running branches decode (or spec-verify) alongside them.
  struct StepPlan {
    struct Chunk {
      size_t prefill_idx = 0;  // Index into prefilling_.
      int64_t tokens = 0;      // Uncached prompt tokens this step.
      bool completes = false;  // Last chunk: emits the request's first token.
    };
    std::vector<Chunk> chunks;
    bool decode = false;        // Running branches contribute tokens.
    int64_t prefill_tokens = 0; // Sum of chunk tokens.
  };

  /// What one engine iteration did.
  enum class StepKind { kNone, kIdle, kWork };

  /// Executes one engine iteration: admission, plan formation, execution —
  /// or an idle skip. kNone when there is nothing left to do.
  StepKind StepOnce();

  /// Moves arrived pending requests into prefilling_ under the KV and
  /// max_running gates. Legacy mode (prefill_chunk_tokens == 0) additionally
  /// applies the per-step prefill token budget here, because admission and
  /// prefill-step formation are fused in the prefill-alone loop.
  ///
  /// Preemption hooks: preempted branches restore first (priority order,
  /// re-reserving their KV charge); an arrived request that cannot ever fit
  /// (need > total budget) is *rejected* with a metric instead of wedging
  /// the queue; an arrived request blocked by running branches of strictly
  /// lower priority preempts them (preempt-or-queue).
  void AdmitArrived();

  /// Restores preempted branches (priority desc, then eviction order) while
  /// the device budget and a run slot allow: swap-ins re-enter running_ and
  /// serialize their PCIe transfer into the next step; recompute restores
  /// re-enter prefilling_ as chunked context rebuilds.
  void RestorePreempted();

  /// Evicts lowest-priority-then-youngest running branches of priority
  /// strictly below `r.priority` until `need` fits the device budget.
  /// Returns false (evicting nothing) when even evicting every eligible
  /// victim would not make room. Grouped (parallel-n) branches share prefix
  /// KV across siblings and are never chosen.
  bool TryPreemptFor(const Request& r, int64_t need);

  /// Evicts one running branch: releases its device KV charge and either
  /// swaps its KV to the host tier or drops it for recompute, per the
  /// restore policy's cost estimate.
  void PreemptBranch(size_t running_idx);

  /// PCIe transfer time for `tokens` of KV scaled to `stored_ratio` of its
  /// logical bytes (the codec tier moves encoded bytes), microseconds.
  double SwapXferUs(int64_t tokens, double stored_ratio) const;
  /// Codec time over `tokens`' logical KV bytes at `gbps`, microseconds
  /// (0 with the codec off).
  double CodecUs(int64_t tokens, double gbps) const;
  /// Full swap-out price: D2H transfer of stored bytes + encode time.
  double SwapOutUs(int64_t tokens, double stored_ratio) const;
  /// Full swap-in price: H2D transfer of stored bytes + decode time.
  double SwapInUs(int64_t tokens, double stored_ratio) const;
  /// Stored/logical ratio estimate for pricing decisions made *before* the
  /// encode happens (kAuto crossover): the structural tier's observed ratio,
  /// worst-case bound before any eviction, 1.0 with the codec off.
  double CodecRatioEstimate() const;

  /// Estimated marginal cost of rebuilding `kv_len` context tokens via
  /// chunked prefill (GEMM above the weight-streaming floor the ride-along
  /// steps already pay, plus one attention pass over the rebuilt KV).
  double RecomputeEstimateUs(int64_t kv_len) const;

  /// Whether admission reserves each branch's full output KV up front (spec
  /// decode and preemption both require it: neither multi-token verify
  /// commits nor the preemption invariant tolerate decode over-commit).
  bool FullKvReserve() const noexcept {
    return cfg_.spec.enabled || cfg_.preemption.enabled;
  }

  /// Admission KV charge for `r` under the active reservation policy.
  int64_t KvNeed(const Request& r) const noexcept;

  /// Device KV charge a migration unit holds (source) or requires
  /// (destination): per branch its unique KV + decode slack + (full-reserve
  /// engines) the remaining-output reservation, plus the shared prefix once.
  int64_t UnitKvCharge(const MigrationUnit& u) const noexcept;

  // --- Trace emission (no-ops when tracing is disabled: one branch each). ---
  void TraceSpan(obs::TraceName n, double begin_s, double end_s, int32_t req,
                 int64_t a = 0, int64_t b = 0, int64_t c = 0) noexcept;
  void TraceInstant(obs::TraceName n, int32_t req, int64_t a = 0,
                    int64_t b = 0, int64_t c = 0) noexcept;
  void TraceCounter(obs::TraceName n, double v) noexcept;

  // --- Telemetry publication (no-ops when telemetry is disabled: every site
  // is gated on the telemetry_ pointer, mirroring the trace_ pattern). ------

  /// Cached per-(tenant, priority) instrument handles — registry lookups
  /// happen once per class, not once per sample.
  struct ClassSeries {
    obs::Counter* tokens = nullptr;  // fi_tokens_total
    obs::Sketch* ttft = nullptr;     // fi_ttft_ms
    obs::Sketch* itl = nullptr;      // fi_itl_ms
  };
  ClassSeries& SeriesFor(int tenant, int priority);
  /// Records one TTFT sample: per-class sketch + SLO monitor.
  void ObserveTtft(int tenant, int priority, double ms);
  /// Records committed output tokens + the ITL gap sample for one branch.
  void ObserveTokens(const Branch& b, int64_t tokens, double itl_ms);
  /// Publishes end-of-step gauges/counters and advances SLO alerting.
  void PublishStepTelemetry(int64_t step_output_tokens, int64_t prefill_tokens);

  /// Assembles the next step's unified batch from prefilling_ and running_.
  StepPlan FormStepPlan() const;

  /// Prices the plan as one step (single SimulateBatchAttention over the
  /// mixed qo_lens; GEMM/comm/host charged once), advances the clock, then
  /// commits decode tokens, chunk progress, and prefill completions.
  void ExecuteStepPlan(const StepPlan& plan);

  /// A completed prefill emits the request's first token and materializes
  /// its branch(es).
  void CompletePrefill(const Request& r);

  /// Vanilla decode commit: one token per running branch.
  void CommitDecode();
  /// Spec decode commit: sample acceptance, commit accepted+bonus tokens,
  /// roll rejected KV back.
  void CommitSpecDecode();
  /// KV fork/extend/rollback for one branch's verification outcome.
  void SpecCommitKv(Branch& b, int accepted, int64_t commit);
  /// Releases a finished branch's KV charge (and its spec sequence).
  void FinishBranch(const Branch& b);
  /// Releases a branch's device KV charge — unique suffix + admission slack,
  /// plus the group prefix with the last sibling — and its spec sequence.
  void ReleaseBranchKv(const Branch& b);

  /// Roofline GEMM time for one forward pass of `m` over `tokens` rows
  /// (weight-streaming floor vs compute); used for target, prefill, verify,
  /// and draft passes alike.
  double GemmUs(const ModelSpec& m, int64_t tokens) const;
  double CommStepUs(int64_t tokens) const;
  /// Prices `in` through the backend's scheduler + cost model, one plan
  /// reused across layers, plus the unfused-RoPE pass when configured.
  double AttnLaunchUs(const AttnSimInput& in) const;
  double SpecVerifyAttnUs() const;
  /// One launch's `launch_us` over every layer, plus the unfused-RoPE pass
  /// over `tokens` query rows of `in`'s head geometry when configured.
  double LayeredAttnUs(double launch_us, const AttnSimInput& in, int64_t tokens) const;
  AttnSimInput HeadGeometry() const;

  EngineConfig cfg_;
  int64_t kv_token_budget_ = 0;
  int64_t host_kv_token_budget_ = 0;
  /// Per-branch admission reserve: decode slack (8) plus, under spec decode,
  /// one tree of transient verification KV.
  int64_t slack_tokens_ = 8;
  std::unique_ptr<spec::DraftTree> tree_;  // Null when spec decode is off.
  /// Caches the lowered tree-mask BSR and tile choice across verify steps
  /// (tree shape and head geometry never change after construction).
  std::unique_ptr<spec::VerifyPricer> verify_pricer_;

  // Steppable state (reset by Reset()).
  std::deque<Request> pending_;
  std::deque<PrefillProgress> prefilling_;
  std::vector<Branch> running_;
  /// Evicted branches awaiting restore, sorted by (priority desc, order).
  std::deque<Preempted> preempted_;
  /// Finished-prefill units parked for migration (export_at_first_token
  /// mode). Branches here keep their KV charge and structural sequences
  /// alive — extraction releases both exactly; retention re-runs them.
  struct Exportable {
    int64_t unit_id = 0;
    std::vector<Branch> branches;
    bool grouped = false;
    int64_t prefix_tokens = 0;
    double export_s = 0.0;
  };
  std::deque<Exportable> exportable_;
  int64_t next_unit_id_ = 0;
  /// Wire-format snapshot of one exportable unit: unique KV tokens (shared
  /// prefix once) and the page count measured through ExportKv's real page
  /// lists when the structural cache exists (page-rounded arithmetic
  /// otherwise).
  MigrationUnit BuildUnitView(const Exportable& u) const;
  std::map<int, std::pair<int, int64_t>> group_refs_;
  ServingMetrics metrics_;
  double now_s_ = 0.0;
  int64_t kv_tokens_in_use_ = 0;
  int64_t host_kv_tokens_in_use_ = 0;
  /// Swap transfer time waiting to serialize into the next executed step
  /// (legacy mode only; overlap-swap routes through the copy streams).
  double pending_swap_us_ = 0.0;
  /// Async DMA engines for overlap-swap mode, one per PCIe direction.
  gpusim::CopyStream copy_d2h_;
  gpusim::CopyStream copy_h2d_;
  /// Inbound-migration accounting stream: externally-timed inter-replica
  /// transfer intervals recorded at AdmitMigratedUnit, metered against step
  /// windows for migration_hidden_ms. Empty outside disaggregated runs.
  gpusim::CopyStream copy_migrate_;
  int64_t next_preempt_order_ = 0;
  int next_group_ = 0;
  Rng rng_;  // Acceptance sampling; reseeded by Reset().
  /// Structural paged KV (1 head x 1 dim: page accounting, not values) that
  /// the spec path forks/extends/truncates and the preemption path
  /// evicts/restores, so rollback and swap exercise the real refcount and
  /// two-tier machinery. Null when both spec decode and preemption are off.
  std::unique_ptr<PagedKVCache> spec_kv_;
  /// Event recorder; null when EngineConfig::trace is disabled (every
  /// emission site is gated on this pointer).
  std::unique_ptr<obs::TraceRecorder> trace_;
  /// Live metrics registry + SLO monitor; null when telemetry is disabled
  /// (every publication site is gated on telemetry_).
  std::unique_ptr<obs::MetricsRegistry> telemetry_;
  std::unique_ptr<obs::SloMonitor> slo_;
  /// (tenant, priority) -> cached instrument handles, keyed by packed id.
  std::map<int64_t, ClassSeries> class_series_;
};

}  // namespace flashinfer::serving

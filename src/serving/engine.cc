#include "serving/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "spec/verify.h"
#include "util/check.h"

namespace flashinfer::serving {

namespace {

/// Prompt tokens the replica's prefix cache already holds, clamped so every
/// request prefill computes at least one token (it must emit a first token).
int64_t CachedTokens(const Request& r) {
  const int64_t max_cached = std::max<int64_t>(r.input_len - 1, 0);
  return std::min(std::max<int64_t>(r.cached_prefix_len, 0), max_cached);
}

}  // namespace

ServingEngine::ServingEngine(EngineConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.spec.seed) {
  const double hbm_bytes = cfg_.hbm_capacity_gb * 1e9;
  const double weights = cfg_.model.WeightBytesPerGpu();
  const double kv_budget_bytes = (hbm_bytes - weights) * 0.9;  // Activation slack.
  FI_CHECK_GT(kv_budget_bytes, 0.0);
  kv_token_budget_ = static_cast<int64_t>(
      kv_budget_bytes / cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype));
  if (cfg_.preemption.enabled) {
    FI_CHECK_GT(cfg_.preemption.swap_gbps, 0.0);
    host_kv_token_budget_ = static_cast<int64_t>(
        cfg_.preemption.host_capacity_gb * 1e9 /
        cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype));
  }
  if (cfg_.spec.enabled) {
    tree_ = std::make_unique<spec::DraftTree>(cfg_.spec.tree);
    // Reserve one tree of transient verify KV per branch on top of the
    // decode slack, so a verify step can never blow the budget mid-flight.
    slack_tokens_ = 8 + tree_->Size();
    verify_pricer_ = std::make_unique<spec::VerifyPricer>(cfg_.device, cfg_.backend,
                                                          HeadGeometry(), *tree_);
  }
  Reset();
}

double ServingEngine::GemmUs(const ModelSpec& m, int64_t tokens) const {
  const auto& dev = cfg_.device;
  const double flops = m.GemmFlopsPerToken() * static_cast<double>(tokens) /
                       m.tensor_parallel;
  const double t_compute = flops / (dev.fp16_tflops * cfg_.backend.gemm_eff * 1e6);
  // Every step streams the weights once; small-batch decode is bound by it,
  // large prefills by compute.
  const double t_mem = m.WeightBytesPerGpu() / (dev.hbm_gbps * 0.9 * 1e3);
  return std::max(t_compute, t_mem);
}

double ServingEngine::CommStepUs(int64_t tokens) const {
  const int tp = cfg_.model.tensor_parallel;
  if (tp <= 1) return 0.0;
  // Two ring all-reduces per layer over the hidden activations.
  const double bytes_per_layer =
      2.0 * static_cast<double>(tokens) * cfg_.model.d_model * 2.0;
  const double ring = 2.0 * (tp - 1) / tp;
  return cfg_.model.num_layers * bytes_per_layer * ring / (cfg_.nvlink_gbps * 1e3) +
         cfg_.model.num_layers * 4.0;  // Per-layer collective launch latency.
}

AttnSimInput ServingEngine::HeadGeometry() const {
  AttnSimInput in;
  in.num_qo_heads = cfg_.model.num_qo_heads / cfg_.model.tensor_parallel;
  in.num_kv_heads =
      std::max(1, cfg_.model.num_kv_heads / cfg_.model.tensor_parallel);
  in.head_dim = cfg_.model.head_dim;
  in.page_size = cfg_.page_size;
  return in;
}

double ServingEngine::LayeredAttnUs(double launch_us, const AttnSimInput& in,
                                    int64_t tokens) const {
  // Plan reuse across layers: one scheduler pass, num_layers launches.
  const int layers = cfg_.model.num_layers;
  double t = launch_us * layers;
  if (!cfg_.backend.fused_rope) {
    // Separate RoPE kernel over this step's Q and K rows (bandwidth-bound,
    // small-kernel efficiency).
    const double bytes = 2.0 *  // Read + write.
                         static_cast<double>(tokens) *
                         (in.num_qo_heads + in.num_kv_heads) * in.head_dim * 2.0;
    t += layers * (bytes / (cfg_.device.hbm_gbps * 0.45 * 1e3) +
                   cfg_.device.kernel_launch_us);
  }
  return t;
}

double ServingEngine::AttnLaunchUs(const AttnSimInput& in) const {
  int64_t tokens = 0;
  for (int64_t q : in.qo_lens) tokens += q;
  return LayeredAttnUs(SimulateBatchAttention(cfg_.device, cfg_.backend, in).time_us, in,
                       tokens);
}

double ServingEngine::SpecVerifyAttnUs() const {
  std::vector<int64_t> context_lens;
  context_lens.reserve(running_.size());
  for (const auto& b : running_) context_lens.push_back(b.kv_len);
  return LayeredAttnUs(verify_pricer_->Price(context_lens).time_us, HeadGeometry(),
                       static_cast<int64_t>(running_.size()) * tree_->Size());
}

void ServingEngine::TraceSpan(obs::TraceName n, double begin_s, double end_s,
                              int32_t req, int64_t a, int64_t b,
                              int64_t c) noexcept {
  if (!trace_) return;
  obs::TraceEvent e;
  e.ts_us = begin_s * 1e6;
  e.dur_us = (end_s - begin_s) * 1e6;
  e.name = n;
  e.req = req;
  e.a = a;
  e.b = b;
  e.c = c;
  trace_->Record(e);
}

void ServingEngine::TraceInstant(obs::TraceName n, int32_t req, int64_t a,
                                 int64_t b, int64_t c) noexcept {
  if (!trace_) return;
  obs::TraceEvent e;
  e.ts_us = now_s_ * 1e6;
  e.name = n;
  e.req = req;
  e.a = a;
  e.b = b;
  e.c = c;
  trace_->Record(e);
}

void ServingEngine::TraceCounter(obs::TraceName n, double v) noexcept {
  if (!trace_) return;
  obs::TraceEvent e;
  e.ts_us = now_s_ * 1e6;
  e.name = n;
  e.v = v;
  trace_->Record(e);
}

ServingEngine::ClassSeries& ServingEngine::SeriesFor(int tenant, int priority) {
  const int64_t key = (static_cast<int64_t>(tenant) << 32) ^
                      (static_cast<int64_t>(priority) & 0xffffffff);
  auto [it, inserted] = class_series_.try_emplace(key);
  if (inserted) {
    const obs::LabelSet labels = obs::ClassLabels(tenant, priority);
    it->second.tokens = telemetry_->GetCounter("fi_tokens_total", labels);
    it->second.ttft = telemetry_->GetSketch("fi_ttft_ms", labels);
    it->second.itl = telemetry_->GetSketch("fi_itl_ms", labels);
  }
  return it->second;
}

void ServingEngine::ObserveTtft(int tenant, int priority, double ms) {
  if (!telemetry_) return;
  ClassSeries& s = SeriesFor(tenant, priority);
  s.ttft->Observe(now_s_, ms);
  s.tokens->Inc(now_s_);  // The request's first token.
  if (slo_) slo_->Observe(obs::SloSignal::kTtft, tenant, priority, ms, now_s_);
}

void ServingEngine::ObserveTokens(const Branch& b, int64_t tokens, double itl_ms) {
  if (!telemetry_) return;
  ClassSeries& s = SeriesFor(b.tenant, b.priority);
  s.tokens->Inc(now_s_, static_cast<double>(tokens));
  // One ITL sample per committed token, mirroring ServingMetrics::AddItl:
  // the first closes the gap since the last emission, the rest (spec-decode
  // burst delivery) land at zero — so the registry's sample count reconciles
  // exactly with the run-final metrics.
  for (int64_t t = 0; t < tokens; ++t) {
    const double gap = t == 0 ? itl_ms : 0.0;
    s.itl->Observe(now_s_, gap);
    if (slo_) slo_->Observe(obs::SloSignal::kItl, b.tenant, b.priority, gap, now_s_);
  }
}

void ServingEngine::PublishStepTelemetry(int64_t step_output_tokens,
                                         int64_t prefill_tokens) {
  if (!telemetry_) return;
  telemetry_->GetCounter("fi_steps_total")->Inc(now_s_);
  telemetry_->GetCounter("fi_output_tokens_total")
      ->Inc(now_s_, static_cast<double>(step_output_tokens));
  telemetry_->GetCounter("fi_prefill_tokens_total")
      ->Inc(now_s_, static_cast<double>(prefill_tokens));
  telemetry_->GetGauge("fi_kv_device_tokens")
      ->Set(now_s_, static_cast<double>(kv_tokens_in_use_));
  telemetry_->GetGauge("fi_kv_host_tokens")
      ->Set(now_s_, static_cast<double>(host_kv_tokens_in_use_));
  // Estimated bytes the host tier actually stores for the resident logical
  // tokens (logical KV bytes scaled by the cache's observed codec ratio;
  // exactly the logical bytes with the codec off).
  telemetry_->GetGauge("fi_kv_host_stored_bytes")
      ->Set(now_s_, static_cast<double>(host_kv_tokens_in_use_) *
                        cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype) *
                        CodecRatioEstimate());
  telemetry_->GetGauge("fi_queue_depth")->Set(now_s_, static_cast<double>(pending_.size()));
  telemetry_->GetGauge("fi_running_branches")
      ->Set(now_s_, static_cast<double>(running_.size()));
  telemetry_->GetGauge("fi_preempted_branches")
      ->Set(now_s_, static_cast<double>(preempted_.size()));
  if (slo_) slo_->Evaluate(now_s_);
}

void ServingEngine::Reset() {
  pending_.clear();
  prefilling_.clear();
  running_.clear();
  preempted_.clear();
  group_refs_.clear();
  metrics_ = ServingMetrics{};
  now_s_ = 0.0;
  kv_tokens_in_use_ = 0;
  host_kv_tokens_in_use_ = 0;
  pending_swap_us_ = 0.0;
  copy_d2h_.Reset();
  copy_h2d_.Reset();
  copy_migrate_.Reset();
  exportable_.clear();
  next_unit_id_ = 0;
  next_preempt_order_ = 0;
  next_group_ = 0;
  rng_ = Rng(cfg_.spec.seed);
  if (cfg_.trace.enabled) {
    if (trace_ && trace_->capacity() == cfg_.trace.capacity) {
      trace_->Clear();
    } else {
      trace_ = std::make_unique<obs::TraceRecorder>(cfg_.trace.capacity);
    }
  } else {
    trace_.reset();
  }
  class_series_.clear();
  if (cfg_.telemetry.enabled) {
    telemetry_ = std::make_unique<obs::MetricsRegistry>(cfg_.telemetry.window);
    slo_ = cfg_.telemetry.slos.empty()
               ? nullptr
               : std::make_unique<obs::SloMonitor>(cfg_.telemetry.slos, trace_.get());
    metrics_.bounded_itl = cfg_.telemetry.bounded_itl;
  } else {
    telemetry_.reset();
    slo_.reset();
  }
  if (cfg_.spec.enabled || cfg_.preemption.enabled) {
    if (cfg_.spec.enabled) {
      metrics_.accepted_len_hist.assign(static_cast<size_t>(tree_->Depth()) + 1, 0);
    }
    // Structural cache: 1 head x 1 dim (page accounting, not values). Sized
    // for the token budget plus page-rounding and transient-fork headroom;
    // the host tier holds its own budget plus per-branch page rounding.
    const int64_t branching = cfg_.spec.enabled ? cfg_.spec.tree.branching : 0;
    const int64_t pages = kv_token_budget_ / cfg_.page_size +
                          static_cast<int64_t>(cfg_.max_running) * (2 + branching) + 64;
    const int64_t host_pages =
        cfg_.preemption.enabled
            ? host_kv_token_budget_ / cfg_.page_size +
                  static_cast<int64_t>(cfg_.max_running) * 2 + 64
            : 0;
    // Synthetic fill only matters with the codec on: it gives the encoder
    // real element payloads (for compression ratio and the quantization-MSE
    // proxy) without perturbing the codec-off structural-only fast path.
    spec_kv_ = std::make_unique<PagedKVCache>(
        DType::kF16, /*num_kv_heads=*/1, /*head_dim=*/1, cfg_.page_size, pages,
        host_pages, cfg_.preemption.host_codec,
        /*synthetic_fill=*/cfg_.preemption.host_codec.enabled());
  }
}

void ServingEngine::Admit(const Request& r) {
  // Keep the queue sorted by (arrival, id) so the admission loop below never
  // stalls behind a later arrival. The id tie-break makes simultaneous
  // arrivals (bursts) order-independent of the Admit() call order: an
  // unsorted admission sequence yields the exact same schedule as a sorted
  // one.
  auto it = std::upper_bound(
      pending_.begin(), pending_.end(), r, [](const Request& a, const Request& b) {
        return a.arrival_s != b.arrival_s ? a.arrival_s < b.arrival_s : a.id < b.id;
      });
  pending_.insert(it, r);
}

double ServingEngine::NextEventTime() const noexcept {
  // Preempted branches are runnable now: the next step's admission pass
  // restores them as soon as budget frees (and if nothing else is live, the
  // budget IS free).
  if (!running_.empty() || !preempted_.empty()) return now_s_;
  // Prefilling entries are runnable now — except overlap-swap transfers
  // whose KV is still on the PCIe link (ready_s in the future).
  double ready_min = std::numeric_limits<double>::infinity();
  for (const auto& p : prefilling_) {
    if (p.ready_s <= now_s_) return now_s_;
    ready_min = std::min(ready_min, p.ready_s);
  }
  if (!pending_.empty()) {
    const double arrival = pending_.front().arrival_s;
    if (arrival > now_s_) {
      ready_min = std::min(ready_min, arrival);
    } else {
      // An already-arrived head that is still pending: admission at `now` is
      // an event only when it would actually do something — reject the
      // request (its need exceeds the total budget) or admit it (a run slot
      // and KV headroom exist). This must mirror AdmitArrived exactly: the
      // old unconditional "blocked on the transfers' reserve" assumption
      // missed the wake where a completed step freed enough KV for the head
      // while every prefilling entry was still transfer-gated — StepTo slept
      // to the transfer completion while Run() admitted and worked at now,
      // diverging the two. Conversely, returning `now` for a head that is
      // genuinely blocked would busy-spin StepTo; then the only events are a
      // transfer completion (ready_min) or, in disaggregated mode, the
      // cluster driver extracting an exportable unit (external: +inf here).
      const int64_t need = KvNeed(pending_.front());
      const bool slot =
          static_cast<int>(running_.size() + prefilling_.size()) < cfg_.max_running;
      if (need > kv_token_budget_ ||
          (slot && kv_tokens_in_use_ + need <= kv_token_budget_)) {
        return now_s_;
      }
    }
  }
  return ready_min;  // +inf when fully drained.
}

int64_t ServingEngine::StepTo(double deadline_s) {
  int64_t work_steps = 0;
  while (!Finished() && NextEventTime() <= deadline_s) {
    const StepKind kind = StepOnce();
    if (kind == StepKind::kNone) break;
    if (kind == StepKind::kWork) ++work_steps;
  }
  return work_steps;
}

void ServingEngine::Drain() { StepTo(std::numeric_limits<double>::infinity()); }

int64_t ServingEngine::QueuedTokens() const noexcept {
  int64_t total = 0;
  for (const auto& r : pending_) {
    total += r.input_len + r.output_len * std::max(1, r.parallel_n);
  }
  // Partially prefilled requests still owe their un-prefilled remainder and
  // their whole output — a router must see that backlog, not just pending_.
  // (Restore entries count the same way: their synthetic req carries the
  // context left to rebuild and the branch's remaining output.)
  for (const auto& p : prefilling_) {
    total += (p.to_compute - p.computed) +
             p.req.output_len * std::max(1, p.req.parallel_n);
  }
  // Preempted branches owe their remaining output plus, for recompute
  // restores, the whole context rebuild.
  for (const auto& p : preempted_) {
    total += p.branch.remaining + (p.swapped ? 0 : p.branch.kv_len);
  }
  return total;
}

int64_t ServingEngine::RunningTokens() const noexcept {
  int64_t total = 0;
  for (const auto& b : running_) total += b.remaining;
  return total;
}

void ServingEngine::ReleaseBranchKv(const Branch& b) {
  if (b.group < 0) {
    // Release the branch's pages plus its admission slack (charged as
    // parallel_n * slack_tokens_ at admission; leaking it would shrink
    // effective capacity forever and can wedge admission on long-lived
    // engines).
    kv_tokens_in_use_ -= b.kv_len + slack_tokens_;
  } else {
    // Grouped branch: release the unique suffix; the shared prefix goes
    // with the last sibling.
    kv_tokens_in_use_ -= b.kv_len - b.prefix_len + slack_tokens_;
    auto& [refs, prefix] = group_refs_[b.group];
    if (--refs == 0) {
      kv_tokens_in_use_ -= prefix;
      group_refs_.erase(b.group);
    }
  }
  if (b.spec_seq >= 0) spec_kv_->DropSequence(b.spec_seq);
}

void ServingEngine::FinishBranch(const Branch& b) {
  TraceSpan(obs::TraceName::kReqDecode, b.seg_start_s, now_s_, b.request_id,
            b.kv_len);
  TraceInstant(obs::TraceName::kReqFinish, b.request_id);
  ReleaseBranchKv(b);
  metrics_.branch_stalls.push_back(b.stall_steps);
}

int64_t ServingEngine::KvNeed(const Request& r) const noexcept {
  // Spec decode and preemption reserve every branch's full output KV at
  // admission: verify steps commit several tokens at once with no per-token
  // budget gate, and the preemption invariant (device budget never violated)
  // cannot tolerate decode-time over-commit. Reserving up front trades
  // admission aggressiveness for a guarantee that the structural page pool
  // can never run out mid-run.
  const int64_t full_out =
      FullKvReserve() ? r.parallel_n * std::max<int64_t>(r.output_len, 1) : 0;
  return r.input_len + r.parallel_n * slack_tokens_ + full_out;
}

int64_t ServingEngine::UnitKvCharge(const MigrationUnit& u) const noexcept {
  // Mirrors the charge the branches hold mid-decode: unique suffix + slack
  // per branch (+ the remaining-output reservation on full-reserve engines),
  // shared prefix once. Extraction releases exactly this; admission on the
  // destination re-acquires it.
  int64_t total = u.grouped ? u.prefix_tokens : 0;
  for (const auto& b : u.branches) {
    total += b.kv_len - (u.grouped ? b.prefix_len : 0) + slack_tokens_;
    if (FullKvReserve()) total += b.remaining;
  }
  return total;
}

MigrationUnit ServingEngine::BuildUnitView(const Exportable& u) const {
  MigrationUnit m;
  m.unit_id = u.unit_id;
  m.grouped = u.grouped;
  m.prefix_tokens = u.prefix_tokens;
  m.export_s = u.export_s;
  m.kv_tokens = u.grouped ? u.prefix_tokens : 0;
  for (const Branch& b : u.branches) {
    MigratedBranch mb;
    mb.request_id = b.request_id;
    mb.prefix_len = b.prefix_len;
    mb.kv_len = b.kv_len;
    mb.remaining = b.remaining;
    mb.accept_prob = b.accept_prob;
    mb.priority = b.priority;
    mb.tenant = b.tenant;
    mb.arrival_s = b.arrival_s;
    mb.last_emit_s = b.last_emit_s;
    mb.stall_steps = b.stall_steps;
    m.kv_tokens += b.kv_len - b.prefix_len;
    m.branches.push_back(mb);
  }
  if (spec_kv_) {
    // Real page lists via ExportKv: sibling branches share prefix pages, so
    // the union is what crosses the wire.
    std::vector<int64_t> pages;
    for (const Branch& b : u.branches) {
      const sparse::RequestKv kv = spec_kv_->ExportKv(b.spec_seq);
      pages.insert(pages.end(), kv.pages.begin(), kv.pages.end());
    }
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    m.pages = static_cast<int64_t>(pages.size());
  } else {
    m.pages = (m.kv_tokens + cfg_.page_size - 1) / cfg_.page_size;
  }
  m.kv_charge = UnitKvCharge(m);
  return m;
}

std::vector<MigrationUnit> ServingEngine::MigratableUnits() const {
  std::vector<MigrationUnit> out;
  out.reserve(exportable_.size());
  for (const auto& u : exportable_) out.push_back(BuildUnitView(u));
  return out;
}

MigrationUnit ServingEngine::ExtractMigratable(int64_t unit_id) {
  auto it = std::find_if(exportable_.begin(), exportable_.end(),
                         [unit_id](const Exportable& u) { return u.unit_id == unit_id; });
  FI_CHECK(it != exportable_.end());
  MigrationUnit m = BuildUnitView(*it);
  for (const Branch& b : it->branches) {
    ReleaseBranchKv(b);
    if (FullKvReserve()) kv_tokens_in_use_ -= b.remaining;
  }
  ++metrics_.num_migrations_out;
  metrics_.migrated_kv_tokens += m.kv_tokens;
  TraceInstant(obs::TraceName::kReqMigrateOut, m.branches.front().request_id,
               m.kv_tokens, m.pages, static_cast<int64_t>(m.branches.size()));
  if (telemetry_) {
    telemetry_->GetCounter("fi_migrations_out_total")->Inc(now_s_);
    telemetry_->GetCounter("fi_migrated_kv_tokens_total")
        ->Inc(now_s_, static_cast<double>(m.kv_tokens));
    // Extraction frees KV outside any step; without this the device-KV gauge
    // stays stale at the pre-export value until the next executed step — on a
    // fully-exported prefill replica, forever.
    telemetry_->GetGauge("fi_kv_device_tokens")
        ->Set(now_s_, static_cast<double>(kv_tokens_in_use_));
  }
  exportable_.erase(it);
  return m;
}

void ServingEngine::RetainMigratable(int64_t unit_id) {
  auto it = std::find_if(exportable_.begin(), exportable_.end(),
                         [unit_id](const Exportable& u) { return u.unit_id == unit_id; });
  FI_CHECK(it != exportable_.end());
  // Fallback: the branches re-enter the local decode loop. Their KV charge
  // and structural sequences never left, and seg_start_s still points at the
  // first token, so the decode span absorbs the parked time.
  running_.insert(running_.end(), it->branches.begin(), it->branches.end());
  ++metrics_.num_migrations_retained;
  if (telemetry_) telemetry_->GetCounter("fi_migrations_retained_total")->Inc(now_s_);
  exportable_.erase(it);
}

bool ServingEngine::CanAcceptMigration(const MigrationUnit& u) const noexcept {
  const int64_t slots = static_cast<int64_t>(running_.size() + prefilling_.size()) +
                        static_cast<int64_t>(u.branches.size());
  return slots <= cfg_.max_running &&
         kv_tokens_in_use_ + UnitKvCharge(u) <= kv_token_budget_;
}

void ServingEngine::AdmitMigratedUnit(const MigrationUnit& u,
                                      const gpusim::CopyStream::Transfer& xfer) {
  FI_CHECK(!u.branches.empty());
  FI_CHECK(CanAcceptMigration(u));
  kv_tokens_in_use_ += UnitKvCharge(u);
  int group = -1;
  if (u.grouped) {
    group = next_group_++;
    group_refs_[group] = {static_cast<int>(u.branches.size()), u.prefix_tokens};
  }
  PrefillProgress pp;
  pp.migrate = true;
  pp.phase_start_s = now_s_;
  // The unit rides one zero-token transfer-gated entry, exactly like an
  // overlap-swap restore: ineligible for the step plan until the link
  // transfer lands (which may already have, if this replica's clock ran
  // ahead of the transfer end).
  pp.ready_s = xfer.end_s;
  pp.req.id = u.branches.front().request_id;
  pp.req.arrival_s = now_s_;
  pp.req.input_len = 0;
  pp.to_compute = 0;
  int64_t out = 0;
  int priority = u.branches.front().priority;
  for (const MigratedBranch& mb : u.branches) {
    Branch b;
    b.request_id = mb.request_id;
    b.group = group;
    b.prefix_len = u.grouped ? u.prefix_tokens : 0;
    b.kv_len = mb.kv_len;
    b.remaining = mb.remaining;
    b.last_emit_s = mb.last_emit_s;
    b.stall_steps = mb.stall_steps;
    b.accept_prob = mb.accept_prob;
    b.priority = mb.priority;
    b.tenant = mb.tenant;
    b.arrival_s = mb.arrival_s;
    pp.import_branches.push_back(b);
    out += mb.remaining;
    priority = std::max(priority, mb.priority);
  }
  // The synthetic req carries the unit's remaining output so QueuedTokens
  // sees the inbound backlog before the transfer lands.
  pp.req.output_len = out;
  pp.req.priority = priority;
  ++metrics_.num_migrations_in;
  metrics_.total_migration_ms += (xfer.end_s - xfer.begin_s) * 1e3;
  copy_migrate_.Record(xfer);
  TraceSpan(obs::TraceName::kCopyMigrate, xfer.begin_s, xfer.end_s, pp.req.id,
            u.kv_tokens, u.pages,
            static_cast<int64_t>((xfer.begin_s - u.export_s) * 1e6));
  if (telemetry_) {
    telemetry_->GetCounter("fi_migrations_in_total")->Inc(now_s_);
    telemetry_->GetCounter("fi_migration_ms_total")
        ->Inc(now_s_, (xfer.end_s - xfer.begin_s) * 1e3);
    // Admission charges KV outside any step — keep the gauge current.
    telemetry_->GetGauge("fi_kv_device_tokens")
        ->Set(now_s_, static_cast<double>(kv_tokens_in_use_));
  }
  prefilling_.push_back(std::move(pp));
}

double ServingEngine::SwapXferUs(int64_t tokens, double stored_ratio) const {
  // PCIe time for the bytes that actually cross the link: with the host
  // codec on, that is the *stored* (quantized/compressed) byte count, i.e.
  // the logical KV bytes scaled by stored_ratio. Latency and per-page
  // overhead are unaffected by the codec.
  const double bytes = static_cast<double>(tokens) *
                       cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype) *
                       stored_ratio;
  const double pages = std::ceil(static_cast<double>(tokens) / cfg_.page_size);
  return cfg_.preemption.swap_latency_us +
         pages * cfg_.preemption.swap_page_overhead_us +
         bytes / (cfg_.preemption.swap_gbps * 1e3);
}

double ServingEngine::CodecUs(int64_t tokens, double gbps) const {
  // Encode/decode touches every logical byte regardless of how small the
  // stored blob ends up. Zero with the codec off, so codec-off swap pricing
  // is bit-identical to the plain two-tier path.
  if (!cfg_.preemption.host_codec.enabled()) return 0.0;
  const double bytes = static_cast<double>(tokens) *
                       cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype);
  return bytes / (gbps * 1e3);
}

double ServingEngine::SwapOutUs(int64_t tokens, double stored_ratio) const {
  return SwapXferUs(tokens, stored_ratio) +
         CodecUs(tokens, cfg_.preemption.codec_encode_gbps);
}

double ServingEngine::SwapInUs(int64_t tokens, double stored_ratio) const {
  return SwapXferUs(tokens, stored_ratio) +
         CodecUs(tokens, cfg_.preemption.codec_decode_gbps);
}

double ServingEngine::CodecRatioEstimate() const {
  // Prospective stored/logical ratio for branches not yet evicted: the
  // cache's cumulative observed ratio (falls back to the worst-case encoded
  // bound before any eviction; exactly 1.0 with the codec off).
  return spec_kv_ ? spec_kv_->ObservedStoredRatio() : 1.0;
}

double ServingEngine::RecomputeEstimateUs(int64_t kv_len) const {
  // Marginal GEMM: the chunks ride along steps that stream the weights
  // anyway, so each chunk's free allowance is the weight-streaming floor
  // (GemmUs(0) tokens) it shares. Above that, prefill is compute-bound.
  const int64_t chunk = cfg_.prefill_chunk_tokens > 0
                            ? std::min(cfg_.prefill_chunk_tokens, cfg_.max_prefill_tokens)
                            : kv_len;
  const int64_t nchunks = std::max<int64_t>(1, (kv_len + chunk - 1) / std::max<int64_t>(chunk, 1));
  const double compute_us =
      cfg_.model.GemmFlopsPerToken() * static_cast<double>(kv_len) /
      cfg_.model.tensor_parallel /
      (cfg_.device.fp16_tflops * cfg_.backend.gemm_eff * 1e6);
  const double floor_us = GemmUs(cfg_.model, 0) * static_cast<double>(nchunks);
  // One pass over the rebuilt KV for the chunks' attention reads.
  const double attn_us =
      static_cast<double>(kv_len) * cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype) /
      (cfg_.device.hbm_gbps * 0.85 * 1e3);
  return std::max(0.0, compute_us - floor_us) + attn_us;
}

void ServingEngine::AdmitArrived() {
  RestorePreempted();
  const bool legacy = cfg_.prefill_chunk_tokens == 0;
  // Legacy prefill-alone fuses admission with prefill-step formation: this
  // step prefills exactly what it admits, so the per-step token budget gates
  // admission (an oversized request still admits alone — otherwise it would
  // starve forever). Chunked admission is budget-free: pacing is
  // FormStepPlan's job, and an admitted request waits in prefilling_ with
  // its KV already reserved.
  int64_t step_tokens = 0;
  int admitted = 0;
  while (!pending_.empty() && pending_.front().arrival_s <= now_s_ &&
         static_cast<int>(running_.size() + prefilling_.size()) < cfg_.max_running) {
    const Request& r = pending_.front();
    const int64_t new_tokens = r.input_len - CachedTokens(r);
    if (legacy && admitted > 0 &&
        step_tokens + new_tokens > cfg_.max_prefill_tokens) {
      break;
    }
    const int64_t need = KvNeed(r);
    if (need > kv_token_budget_) {
      // This request could never run, even on an empty engine: admitting it
      // would wedge the queue forever (the pre-preemption engine aborted on
      // an FI_CHECK when this state was reached). Refuse it and move on.
      ++metrics_.rejected_requests;
      TraceInstant(obs::TraceName::kReqReject, r.id, need, kv_token_budget_);
      if (telemetry_) telemetry_->GetCounter("fi_requests_rejected_total")->Inc(now_s_);
      pending_.pop_front();
      continue;
    }
    if (!preempted_.empty() && r.priority <= preempted_.front().branch.priority) {
      // Anti-starvation: an evicted branch outranks (or ties) this arrival
      // and is still waiting for capacity. Admitting the newcomer into every
      // freed increment would starve the victim forever — freed capacity
      // drains to the restore queue first; only a strictly higher-priority
      // arrival may jump it (and preempt for room).
      break;
    }
    if (kv_tokens_in_use_ + need > kv_token_budget_) {
      // Preempt-or-queue: evict strictly-lower-priority running branches if
      // that makes room; otherwise the request waits (FIFO) for capacity.
      if (!cfg_.preemption.enabled || !TryPreemptFor(r, need)) break;
    }
    kv_tokens_in_use_ += need;
    step_tokens += new_tokens;
    ++admitted;
    TraceSpan(obs::TraceName::kReqQueued, r.arrival_s, now_s_, r.id);
    TraceInstant(obs::TraceName::kReqAdmit, r.id, new_tokens, need);
    PrefillProgress p;
    p.req = r;
    p.to_compute = new_tokens;
    p.phase_start_s = now_s_;
    prefilling_.push_back(std::move(p));
    pending_.pop_front();
  }
}

void ServingEngine::RestorePreempted() {
  // preempted_ is kept sorted by (priority desc, eviction order): the most
  // important victim re-enters first. Head-blocking within the deque is
  // deliberate — restoring a cheaper, lower-priority victim over a blocked
  // higher-priority one would invert the policy the evictions enforced.
  while (!preempted_.empty() &&
         static_cast<int>(running_.size() + prefilling_.size()) < cfg_.max_running) {
    Preempted& p = preempted_.front();
    if (kv_tokens_in_use_ + p.reserve > kv_token_budget_) break;
    kv_tokens_in_use_ += p.reserve;
    Branch b = p.branch;
    TraceSpan(obs::TraceName::kReqPreempted, p.evicted_s, now_s_, b.request_id,
              b.kv_len, p.swapped ? 1 : 0);
    TraceInstant(p.swapped ? obs::TraceName::kKvRestoreSwap
                           : obs::TraceName::kKvRestoreRecompute,
                 b.request_id, b.kv_len);
    PrefillProgress pp;
    pp.restore = true;
    pp.branch = b;
    pp.phase_start_s = now_s_;
    pp.req.id = b.request_id;
    pp.req.arrival_s = now_s_;
    pp.req.output_len = b.remaining;
    pp.req.priority = b.priority;
    if (p.swapped) {
      // Swap-in: the branch rides a step as a zero-token transfer chunk —
      // it cannot decode while its KV is still in flight. Legacy mode
      // serializes the PCIe transfer into the next executed step; overlap
      // mode enqueues it on the async H2D stream and gates the entry's step
      // eligibility on the transfer completion time instead, so other work
      // keeps stepping under the DMA. The structural pages come back when
      // the transfer completes.
      host_kv_tokens_in_use_ -= b.kv_len;
      // Swap-in moves the branch's *stored* bytes (realized ratio captured
      // at eviction) and pays the decode pass to re-materialize the pages;
      // both ride inside t_us so the legacy and overlap paths price alike.
      const double t_us = SwapInUs(b.kv_len, p.stored_ratio);
      const double decode_ms =
          CodecUs(b.kv_len, cfg_.preemption.codec_decode_gbps) * 1e-3;
      metrics_.codec_decode_ms += decode_ms;
      if (telemetry_) {
        telemetry_->GetCounter("fi_codec_decode_ms_total")->Inc(now_s_, decode_ms);
      }
      if (cfg_.preemption.host_codec.enabled()) {
        TraceInstant(obs::TraceName::kKvDecode, b.request_id, b.kv_len,
                     static_cast<int64_t>(decode_ms * 1e3));
      }
      if (cfg_.preemption.overlap_swap) {
        // The host copy must fully exist before it can stream back.
        const double issue_s = std::max(now_s_, p.swapout_done_s);
        const auto xfer = copy_h2d_.Enqueue(issue_s, t_us);
        pp.ready_s = xfer.end_s;
        TraceSpan(obs::TraceName::kCopyH2D, xfer.begin_s, xfer.end_s,
                  b.request_id, b.kv_len,
                  (b.kv_len + cfg_.page_size - 1) / cfg_.page_size,
                  static_cast<int64_t>((xfer.begin_s - now_s_) * 1e6));
      } else {
        pending_swap_us_ += t_us;
      }
      metrics_.total_swap_ms += t_us * 1e-3;
      ++metrics_.num_swap_restores;
      if (telemetry_) {
        telemetry_->GetCounter("fi_swap_restores_total")->Inc(now_s_);
        telemetry_->GetCounter("fi_swap_ms_total")->Inc(now_s_, t_us * 1e-3);
      }
      pp.swap_restore = true;
      pp.req.input_len = 0;
      pp.to_compute = 0;
    } else {
      // Recompute: the whole context (prompt + generated tokens) re-enters
      // the chunked-prefill path as a synthetic request; the branch resumes
      // once the last chunk lands.
      ++metrics_.num_recompute_restores;
      if (telemetry_) telemetry_->GetCounter("fi_recompute_restores_total")->Inc(now_s_);
      pp.req.input_len = b.kv_len;
      pp.to_compute = b.kv_len;
    }
    prefilling_.push_back(std::move(pp));
    preempted_.pop_front();
  }
}

bool ServingEngine::TryPreemptFor(const Request& r, int64_t need) {
  // Reclaimable KV across eligible victims: strictly lower priority,
  // non-grouped (parallel-n siblings share prefix KV and are never evicted).
  int64_t reclaimable = 0;
  for (const auto& b : running_) {
    if (b.priority < r.priority && b.group < 0) {
      reclaimable += b.kv_len + b.remaining + slack_tokens_;
    }
  }
  if (kv_tokens_in_use_ - reclaimable + need > kv_token_budget_) return false;
  while (kv_tokens_in_use_ + need > kv_token_budget_) {
    // Victim: lowest priority, then youngest (latest arrival, then highest
    // id — the branch that has the least sunk service time to protect).
    int victim = -1;
    for (size_t i = 0; i < running_.size(); ++i) {
      const Branch& b = running_[i];
      if (b.priority >= r.priority || b.group >= 0) continue;
      if (victim < 0) {
        victim = static_cast<int>(i);
        continue;
      }
      const Branch& v = running_[static_cast<size_t>(victim)];
      if (b.priority != v.priority ? b.priority < v.priority
          : b.arrival_s != v.arrival_s ? b.arrival_s > v.arrival_s
                                       : b.request_id > v.request_id) {
        victim = static_cast<int>(i);
      }
    }
    FI_CHECK_GE(victim, 0);  // Guaranteed by the reclaimable pre-check.
    PreemptBranch(static_cast<size_t>(victim));
  }
  return true;
}

void ServingEngine::PreemptBranch(size_t running_idx) {
  Branch b = running_[running_idx];
  running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(running_idx));
  // Full-reservation invariant: the branch holds its admission charge
  // input + slack + output == kv_len + remaining + slack.
  const int64_t reserve = b.kv_len + b.remaining + slack_tokens_;
  kv_tokens_in_use_ -= reserve;
  ++metrics_.num_preemptions;
  const int64_t evicted_pages = (b.kv_len + cfg_.page_size - 1) / cfg_.page_size;
  metrics_.evicted_pages += evicted_pages;
  if (telemetry_) {
    telemetry_->GetCounter("fi_preemptions_total")->Inc(now_s_);
    telemetry_->GetCounter("fi_evicted_pages_total")
        ->Inc(now_s_, static_cast<double>(evicted_pages));
  }
  // The eviction closes the branch's current decode segment.
  TraceSpan(obs::TraceName::kReqDecode, b.seg_start_s, now_s_, b.request_id,
            b.kv_len);

  // Swap vs recompute, decided at eviction time (the host copy either exists
  // later or it does not): swap pays two transfers + latency; recompute pays
  // marginal prefill. Host-tier exhaustion forces recompute.
  bool swap = false;
  switch (cfg_.preemption.restore) {
    case RestorePolicy::kSwap: swap = true; break;
    case RestorePolicy::kRecompute: swap = false; break;
    case RestorePolicy::kAuto: {
      // Price the round trip on the bytes that will actually move: stored
      // bytes for both transfers (via the cache's observed ratio) plus the
      // encode/decode passes over the logical bytes. Codec-off this reduces
      // exactly to the historical 2*SwapUs(kv_len) crossover.
      const double est = CodecRatioEstimate();
      swap = SwapOutUs(b.kv_len, est) + SwapInUs(b.kv_len, est) <
             RecomputeEstimateUs(b.kv_len);
      break;
    }
  }
  // Logical-token budget gate: with the codec on, host capacity is metered
  // in stored bytes (HostCanHold below), so the logical token count may
  // legitimately exceed the nominal budget by the compression factor.
  if (swap && !cfg_.preemption.host_codec.enabled() &&
      host_kv_tokens_in_use_ + b.kv_len > host_kv_token_budget_) {
    swap = false;
  }
  // Capacity gate: many short evicted branches can exhaust the host pool
  // (one page each) long before the token budget — per the PagedKVCache
  // contract, check admissibility before evicting. Codec-off this is the
  // free-host-page check; codec-on it meters worst-case stored bytes.
  if (swap && spec_kv_ && b.spec_seq >= 0 &&
      !spec_kv_->HostCanHold(spec_kv_->ExclusivePages(b.spec_seq))) {
    swap = false;
  }

  TraceInstant(swap ? obs::TraceName::kKvEvictSwap : obs::TraceName::kKvEvictDrop,
               b.request_id, b.kv_len, evicted_pages);

  Preempted p;
  p.swapped = swap;
  p.reserve = reserve;
  p.order = next_preempt_order_++;
  p.evicted_s = now_s_;
  if (swap) {
    host_kv_tokens_in_use_ += b.kv_len;
    // Evict (and encode) first: the codec runs at eviction time, so the
    // branch's transfers are priced on its *realized* stored/logical ratio —
    // the observed-ratio estimate only steers the kAuto decision above.
    double stored_ratio = 1.0;
    if (spec_kv_ && b.spec_seq >= 0) {
      const auto st = spec_kv_->EvictSequenceEx(b.spec_seq);
      if (st.logical_bytes > 0) {
        stored_ratio = static_cast<double>(st.stored_bytes) /
                       static_cast<double>(st.logical_bytes);
      }
      const double logical_bytes =
          static_cast<double>(b.kv_len) *
          cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype);
      const double stored_bytes = logical_bytes * stored_ratio;
      const double encode_ms =
          CodecUs(b.kv_len, cfg_.preemption.codec_encode_gbps) * 1e-3;
      metrics_.evicted_logical_bytes += logical_bytes;
      metrics_.evicted_stored_bytes += stored_bytes;
      metrics_.codec_encode_ms += encode_ms;
      metrics_.quant_mse_sum += st.mse_sum;
      metrics_.quant_mse_pages += st.mse_pages;
      if (telemetry_) {
        telemetry_->GetCounter("fi_kv_evicted_logical_bytes_total")
            ->Inc(now_s_, logical_bytes);
        telemetry_->GetCounter("fi_kv_evicted_stored_bytes_total")
            ->Inc(now_s_, stored_bytes);
        telemetry_->GetCounter("fi_codec_encode_ms_total")->Inc(now_s_, encode_ms);
        telemetry_->GetCounter("fi_quant_mse_sum_total")->Inc(now_s_, st.mse_sum);
        telemetry_->GetCounter("fi_quant_mse_pages_total")
            ->Inc(now_s_, static_cast<double>(st.mse_pages));
      }
      if (cfg_.preemption.host_codec.enabled()) {
        TraceInstant(obs::TraceName::kKvEncode, b.request_id,
                     static_cast<int64_t>(logical_bytes),
                     static_cast<int64_t>(stored_bytes));
      }
    }
    p.stored_ratio = stored_ratio;
    const double t_us = SwapOutUs(b.kv_len, stored_ratio);
    if (cfg_.preemption.overlap_swap) {
      // Async D2H: the eviction itself blocks nothing — the freed budget is
      // usable immediately (the victim's pages are a snapshot in flight),
      // and only a later swap-in of this branch must wait for the host copy.
      const auto xfer = copy_d2h_.Enqueue(now_s_, t_us);
      p.swapout_done_s = xfer.end_s;
      TraceSpan(obs::TraceName::kCopyD2H, xfer.begin_s, xfer.end_s,
                b.request_id, b.kv_len, evicted_pages,
                static_cast<int64_t>((xfer.begin_s - now_s_) * 1e6));
    } else {
      pending_swap_us_ += t_us;  // Swap-out serializes into the next step.
    }
    metrics_.total_swap_ms += t_us * 1e-3;
    if (telemetry_) telemetry_->GetCounter("fi_swap_ms_total")->Inc(now_s_, t_us * 1e-3);
  } else if (spec_kv_ && b.spec_seq >= 0) {
    // Dropped for recompute: the structural pages free immediately; a fresh
    // sequence is rebuilt when the recompute restore completes.
    spec_kv_->DropSequence(b.spec_seq);
    b.spec_seq = -1;
  }
  p.branch = b;
  // Keep preempted_ sorted by (priority desc, eviction order asc).
  auto it = std::upper_bound(preempted_.begin(), preempted_.end(), p,
                             [](const Preempted& a, const Preempted& x) {
                               return a.branch.priority != x.branch.priority
                                          ? a.branch.priority > x.branch.priority
                                          : a.order < x.order;
                             });
  preempted_.insert(it, std::move(p));
}

ServingEngine::StepPlan ServingEngine::FormStepPlan() const {
  StepPlan plan;
  if (cfg_.prefill_chunk_tokens == 0) {
    // Legacy prefill-alone: every admitted request prefills its whole prompt
    // this step, and decodes run only in steps with no prefill (running
    // branches stall behind it — the head-of-line blocking mixed batching
    // removes).
    for (size_t i = 0; i < prefilling_.size(); ++i) {
      if (prefilling_[i].ready_s > now_s_) continue;  // Transfer in flight.
      plan.chunks.push_back(
          {i, prefilling_[i].to_compute - prefilling_[i].computed, true});
    }
    plan.decode = plan.chunks.empty() && !running_.empty();
  } else {
    // Mixed batch: chunks ride along with every running branch's decode
    // token. Decode-priority spends at most one chunk's worth of prefill per
    // step; throughput-priority packs chunks up to the per-step budget. The
    // max(1, ...) guarantees the head request always advances even under a
    // degenerate budget.
    int64_t budget = std::max<int64_t>(
        1, cfg_.batch_policy == BatchPolicy::kDecodePriority
               ? std::min(cfg_.prefill_chunk_tokens, cfg_.max_prefill_tokens)
               : cfg_.max_prefill_tokens);
    for (size_t i = 0; i < prefilling_.size() && budget > 0; ++i) {
      if (prefilling_[i].ready_s > now_s_) continue;  // Transfer in flight.
      const int64_t remaining = prefilling_[i].to_compute - prefilling_[i].computed;
      const int64_t take = std::min({remaining, cfg_.prefill_chunk_tokens, budget});
      plan.chunks.push_back({i, take, take == remaining});
      budget -= take;
    }
    plan.decode = !running_.empty();
  }
  for (const auto& c : plan.chunks) plan.prefill_tokens += c.tokens;
  return plan;
}

ServingEngine::StepKind ServingEngine::StepOnce() {
  if (Finished()) return StepKind::kNone;

  AdmitArrived();
  // Admission may have *rejected* the only remaining work (a request whose
  // KV need exceeds the total budget): the engine can finish right here.
  if (Finished()) return StepKind::kNone;
  const StepPlan plan = FormStepPlan();

  if (plan.chunks.empty() && !plan.decode) {
    // Idle: jump to the next event. The wake candidates MUST mirror
    // NextEventTime's (computed on the same post-admission state), so an
    // idle skip never jumps past the deadline StepTo admitted us under.
    //
    // Overlap-swap mode can idle with in-flight H2D transfers: every
    // prefilling entry has ready_s in the future (eligible entries would
    // have formed chunks), and the earliest completion is a wake candidate.
    // An already-arrived pending head is NOT one — it is blocked on the
    // transfers' reserve, and waking "now" would spin forever.
    double ready_min = std::numeric_limits<double>::infinity();
    bool migrate_wait = false;
    for (const auto& p : prefilling_) {
      if (p.ready_s < ready_min) {
        ready_min = p.ready_s;
        migrate_wait = p.migrate;
      }
    }
    const bool copy_wait = !prefilling_.empty();
    if (!copy_wait && !exportable_.empty()) {
      // Disaggregated mode: exportable units hold the only KV (and possibly
      // block an arrived head or a preempted restore). No internal event can
      // unblock this engine — the cluster driver's extract/retain will; hand
      // control back instead of idling or tripping the checks below.
      const bool arrived_head =
          !pending_.empty() && pending_.front().arrival_s <= now_s_;
      if (pending_.empty() || arrived_head || !preempted_.empty()) {
        return StepKind::kNone;
      }
    }
    double wake_s = ready_min;
    if (!pending_.empty() &&
        (pending_.front().arrival_s > now_s_ || !copy_wait)) {
      wake_s = std::min(wake_s, std::max(now_s_, pending_.front().arrival_s));
    }
    if (!copy_wait) {
      // Without transfers the only idle cause is a future arrival: an
      // arrived head can no longer strand us here — AdmitArrived rejects
      // requests whose KV need exceeds the total budget (the old wedge this
      // FI_CHECK used to trip on) and preempts or queues the rest, and
      // preempted branches restore whenever the budget is free.
      FI_CHECK(preempted_.empty());
      FI_CHECK(!pending_.empty());
      FI_CHECK_GT(pending_.front().arrival_s, now_s_);
    }
    FI_CHECK(std::isfinite(wake_s));
    FI_CHECK_GT(wake_s, now_s_);
    const double skip_s = wake_s - now_s_;
    if (copy_wait && ready_min <= wake_s) {
      // The engine is genuinely stalled on a transfer link: nothing runnable
      // until the earliest in-flight KV lands. Attributed to the link that
      // gates the earliest entry — the inter-replica migration link or the
      // PCIe swap link (the overlap-mode analogue of the legacy serialized
      // swap stall).
      if (migrate_wait) {
        metrics_.migration_stall_ms += skip_s * 1e3;
        if (telemetry_) {
          telemetry_->GetCounter("fi_migration_stall_ms_total")
              ->Inc(now_s_, skip_s * 1e3);
        }
      } else {
        metrics_.swap_stall_ms += skip_s * 1e3;
        if (telemetry_) {
          telemetry_->GetCounter("fi_swap_stall_ms_total")->Inc(now_s_, skip_s * 1e3);
        }
      }
    }
    now_s_ = wake_s;
    metrics_.total_idle_s += skip_s;
    ++metrics_.num_idle_skips;
    metrics_.makespan_s = std::max(metrics_.makespan_s, now_s_);
    return StepKind::kIdle;
  }

  ExecuteStepPlan(plan);
  return StepKind::kWork;
}

void ServingEngine::ExecuteStepPlan(const StepPlan& plan) {
  const double t0_s = now_s_;
  const int64_t toks_before = metrics_.total_output_tokens;
  const bool spec_step = plan.decode && cfg_.spec.enabled;
  const size_t decode_branches = plan.decode ? running_.size() : 0;
  const int64_t decode_tokens =
      spec_step ? static_cast<int64_t>(decode_branches) * tree_->Size()
                : static_cast<int64_t>(decode_branches);

  // --- Attention: ONE simulated launch over the step's mixed qo_lens
  // (decode rows first, then prefill-chunk rows), reused across layers.
  // Spec verify tokens are the exception: their ancestor-masked attention is
  // priced through the tree-kernel path (SpecVerifyAttnUs) and added here.
  AttnSimInput in = HeadGeometry();
  if (plan.decode && !spec_step) {
    for (const auto& b : running_) {
      in.qo_lens.push_back(1);
      in.kv_lens.push_back(b.kv_len);
    }
    // Identify parallel-generation sibling groups (contiguous by
    // construction; members index the decode rows, which come first).
    std::map<int, AttnSimInput::Group> groups;
    for (size_t i = 0; i < running_.size(); ++i) {
      if (running_[i].group < 0) continue;
      auto& grp = groups[running_[i].group];
      grp.prefix_len = running_[i].prefix_len;
      grp.members.push_back(static_cast<int>(i));
    }
    for (auto& [id, grp] : groups) {
      if (grp.members.size() < 2 || grp.prefix_len < cfg_.page_size) continue;
      if (cfg_.backend.composable) in.groups.push_back(grp);
    }
    // Without composable-format support the engine materializes each
    // branch's prompt KV separately (Sec. 5.1: prior shared-prefix systems
    // need separate prefix/suffix cache management), so sibling reads hit
    // distinct HBM addresses — no L2 dedup credit for the single format.
  }
  for (const auto& c : plan.chunks) {
    if (c.tokens == 0) continue;  // Swap-in transfer chunk: no attention rows.
    const auto& p = prefilling_[c.prefill_idx];
    // A chunk's query covers its new prompt tokens while KV spans everything
    // prefilled so far (cached prefix + earlier chunks + this chunk) —
    // exactly the incremental "append" kernel shape. KV memory was charged
    // for the full prompt at admission (no cross-request page dedup).
    in.qo_lens.push_back(c.tokens);
    in.kv_lens.push_back(CachedTokens(p.req) + p.computed + c.tokens);
  }
  double attn_us = in.qo_lens.empty() ? 0.0 : AttnLaunchUs(in);
  if (spec_step) attn_us += SpecVerifyAttnUs();

  // --- Draft phase (spec only): `depth` sequential forward passes of the
  // draft model, level l proposing branching^l candidates per branch. The
  // draft's own attention/KV cost is folded into the per-pass launch
  // overhead (the draft is ~100x smaller than the target).
  double draft_us = 0.0;
  if (spec_step) {
    const spec::DraftTree& tree = *tree_;
    for (int level = 1; level <= tree.Depth(); ++level) {
      draft_us += GemmUs(cfg_.spec.draft_model,
                         static_cast<int64_t>(decode_branches) * tree.LevelWidth(level));
    }
    draft_us += tree.Depth() * (cfg_.backend.use_cuda_graph
                                    ? 10.0
                                    : cfg_.spec.draft_model.num_layers * 2.0);
  }

  // --- GEMM, comm, host: charged once over the whole mixed step. Steps with
  // prefill chunks never replay graphs (their shapes change every step).
  const int64_t step_tokens = plan.prefill_tokens + decode_tokens;
  const double host_us =
      cfg_.backend.host_us_per_step +
      cfg_.backend.host_us_per_req *
          static_cast<double>(decode_branches + plan.chunks.size()) +
      (plan.chunks.empty() && cfg_.backend.use_cuda_graph
           ? 10.0
           : cfg_.model.num_layers * 2.0);
  const double gemm_us = GemmUs(cfg_.model, step_tokens);
  const double comm_us = CommStepUs(step_tokens);
  // Swap transfers (preemption evictions/restores decided at admission)
  // serialize into this step in legacy mode: conservative — the PCIe time
  // is charged where it was incurred and every running branch pays it.
  // Overlap-swap mode never accumulates pending_swap_us_ (transfers ride
  // the copy streams), so swap_us is 0 and the stall shows up only as
  // copy-wait idle time.
  const double swap_us = pending_swap_us_;
  pending_swap_us_ = 0.0;
  if (swap_us > 0.0) {
    metrics_.swap_stall_ms += swap_us * 1e-3;
    if (telemetry_) {
      telemetry_->GetCounter("fi_swap_stall_ms_total")->Inc(now_s_, swap_us * 1e-3);
    }
  }
  const double step_s =
      (draft_us + host_us + gemm_us + attn_us + comm_us + swap_us) * 1e-6;
  now_s_ += step_s;
  // Overlap accounting: copy-stream busy time inside this step's window was
  // hidden under compute (the step would have run regardless).
  if (cfg_.preemption.overlap_swap) {
    const double hidden_s =
        copy_d2h_.BusyWithin(t0_s, now_s_) + copy_h2d_.BusyWithin(t0_s, now_s_);
    if (hidden_s > 0.0) {
      metrics_.swap_hidden_ms += hidden_s * 1e3;
      if (telemetry_) {
        telemetry_->GetCounter("fi_swap_hidden_ms_total")->Inc(now_s_, hidden_s * 1e3);
      }
    }
  }
  // Inbound-migration transfer time inside this step's window was hidden
  // under compute the destination ran anyway (conservative: link time before
  // the first post-admission step is neither hidden nor stalled here).
  if (copy_migrate_.num_transfers() > 0) {
    const double mig_hidden_s = copy_migrate_.BusyWithin(t0_s, now_s_);
    if (mig_hidden_s > 0.0) {
      metrics_.migration_hidden_ms += mig_hidden_s * 1e3;
      if (telemetry_) {
        telemetry_->GetCounter("fi_migration_hidden_ms_total")
            ->Inc(now_s_, mig_hidden_s * 1e3);
      }
    }
  }

  metrics_.total_draft_ms += draft_us * 1e-3;
  metrics_.total_gemm_ms += gemm_us * 1e-3;
  metrics_.total_attention_ms += attn_us * 1e-3;
  metrics_.total_host_ms += host_us * 1e-3;
  metrics_.total_comm_ms += comm_us * 1e-3;
  ++metrics_.num_steps;
  if (spec_step) ++metrics_.spec_steps;
  if (!plan.chunks.empty() && plan.decode) {
    ++metrics_.mixed_steps;
  } else if (!plan.chunks.empty()) {
    ++metrics_.prefill_only_steps;
  } else {
    ++metrics_.decode_only_steps;
  }
  for (const auto& c : plan.chunks) {
    if (c.tokens > 0) ++metrics_.prefill_chunks;  // Transfer chunks excluded.
  }

  // --- Stall accounting: running branches shut out of a prefill-alone step
  // emitted nothing — the head-of-line blocking chunked batching removes.
  if (!plan.decode && !running_.empty()) {
    for (auto& b : running_) ++b.stall_steps;
    metrics_.itl_stall_steps += static_cast<int64_t>(running_.size());
    ++metrics_.steps_with_stalls;
  }
  // Preempted branches sat this work step out entirely.
  metrics_.preempt_stall_steps += static_cast<int64_t>(preempted_.size());

  if (trace_) {
    const int64_t stalled = (!plan.decode && !running_.empty())
                                ? static_cast<int64_t>(running_.size())
                                : 0;
    obs::TraceEvent step;
    step.ts_us = t0_s * 1e6;
    step.dur_us = step_s * 1e6;
    step.name = obs::TraceName::kStep;
    step.flags = static_cast<uint16_t>((spec_step ? obs::kStepFlagSpec : 0) |
                                       (swap_us > 0.0 ? obs::kStepFlagSwap : 0));
    step.a = plan.prefill_tokens;
    step.b = static_cast<int64_t>(decode_branches);
    step.c = stalled;
    step.d = static_cast<int64_t>(preempted_.size());
    trace_->Record(step);
    // Phase spans laid end-to-end inside the step: step_s is exactly their
    // sum, so they tile [t0, t1] (zero-cost phases are skipped).
    double t_us = t0_s * 1e6;
    auto phase = [this, &t_us](obs::TraceName n, double us) {
      if (us > 0.0) {
        obs::TraceEvent e;
        e.ts_us = t_us;
        e.dur_us = us;
        e.name = n;
        trace_->Record(e);
      }
      t_us += us;
    };
    phase(obs::TraceName::kPhaseDraft, draft_us);
    phase(obs::TraceName::kPhaseAttn, attn_us);
    phase(obs::TraceName::kPhaseGemm, gemm_us);
    phase(obs::TraceName::kPhaseComm, comm_us);
    phase(obs::TraceName::kPhaseSwap, swap_us);
    phase(obs::TraceName::kPhaseHost, host_us);
    for (const auto& c : plan.chunks) {
      const auto& p = prefilling_[c.prefill_idx];
      TraceInstant(obs::TraceName::kChunk, p.req.id, c.tokens,
                   c.completes ? 1 : 0,
                   p.migrate ? 3 : p.restore ? (p.swap_restore ? 2 : 1) : 0);
    }
  }

  // --- Decode commit. ------------------------------------------------------
  if (plan.decode) {
    if (spec_step) {
      CommitSpecDecode();
    } else {
      CommitDecode();
    }
  }

  // --- Prefill progress and completions (FIFO order). ----------------------
  int64_t step_prefill_tokens = 0;  // Prompt work only (restores excluded).
  for (const auto& c : plan.chunks) {
    auto& p = prefilling_[c.prefill_idx];
    p.computed += c.tokens;
    ++p.chunks_used;
    if (p.restore) {
      metrics_.recompute_tokens += c.tokens;
      if (telemetry_ && c.tokens > 0) {
        telemetry_->GetCounter("fi_recompute_tokens_total")
            ->Inc(now_s_, static_cast<double>(c.tokens));
      }
    } else {
      metrics_.total_prefill_tokens += c.tokens;
      step_prefill_tokens += c.tokens;
    }
  }
  std::vector<size_t> done;
  for (const auto& c : plan.chunks) {
    if (!c.completes) continue;
    auto& p = prefilling_[c.prefill_idx];
    FI_CHECK_EQ(p.computed, p.to_compute);
    if (p.migrate) {
      // Inbound migration landed: materialize the unit's branches — grouped
      // units rebuild the shared prefix once and fork it per sibling, so the
      // destination's structural pages mirror the source's sharing — and
      // resume them. No first-token emission: TTFT was paid on the prefill
      // replica; last_emit_s carried over, so the migration latency surfaces
      // as one inter-token gap on this replica's ITL distribution.
      int prefix_seq = -1;
      const Branch& first = p.import_branches.front();
      if (spec_kv_ && first.group >= 0) {
        prefix_seq = spec_kv_->CreateSequence();
        spec_kv_->ExtendSequence(prefix_seq, first.prefix_len);
      }
      int64_t unit_kv = 0;
      for (Branch b : p.import_branches) {
        if (spec_kv_) {
          if (prefix_seq >= 0) {
            b.spec_seq = spec_kv_->ForkSequence(prefix_seq);
            spec_kv_->ExtendSequence(b.spec_seq, b.kv_len - b.prefix_len);
          } else {
            b.spec_seq = spec_kv_->CreateSequence();
            spec_kv_->ExtendSequence(b.spec_seq, b.kv_len);
          }
        }
        b.seg_start_s = now_s_;
        unit_kv += b.kv_len;
        running_.push_back(b);
      }
      if (prefix_seq >= 0) spec_kv_->DropSequence(prefix_seq);
      TraceSpan(obs::TraceName::kReqMigrateIn, p.phase_start_s, now_s_,
                p.req.id, unit_kv,
                static_cast<int64_t>(p.import_branches.size()));
    } else if (p.restore) {
      // Restore finished: re-materialize the structural KV — swap-ins pull
      // their pages back from the host tier, recomputes rebuild a fresh
      // sequence to the branch's context length — and put the branch back
      // in the decode batch. No first-token emission: the request's TTFT
      // was paid long ago.
      Branch b = p.branch;
      if (spec_kv_) {
        if (p.swap_restore && b.spec_seq >= 0) {
          const auto st = spec_kv_->RestoreSequenceEx(b.spec_seq);
          // The engine re-reserved the branch's full budget before queueing
          // the restore, so the structural device pool can never come up
          // short here (RestoreSequenceEx returns pages == -1 if it would).
          FI_CHECK_GE(st.pages, 0);
          metrics_.restored_pages += st.pages;
          if (telemetry_) {
            telemetry_->GetCounter("fi_restored_pages_total")
                ->Inc(now_s_, static_cast<double>(st.pages));
          }
        } else {
          b.spec_seq = spec_kv_->CreateSequence();
          spec_kv_->ExtendSequence(b.spec_seq, b.kv_len);
        }
      }
      TraceSpan(p.swap_restore ? obs::TraceName::kReqSwapIn
                               : obs::TraceName::kReqRecompute,
                p.phase_start_s, now_s_, b.request_id, b.kv_len);
      b.seg_start_s = now_s_;  // The restored decode segment starts here.
      running_.push_back(b);
    } else {
      if (p.chunks_used > 1) ++metrics_.chunked_requests;
      TraceSpan(obs::TraceName::kReqPrefill, p.phase_start_s, now_s_, p.req.id,
                p.computed, CachedTokens(p.req), p.chunks_used);
      TraceInstant(obs::TraceName::kReqFirstToken, p.req.id);
      CompletePrefill(p.req);
    }
    done.push_back(c.prefill_idx);
  }
  // Completed entries are not necessarily a prefix of prefilling_ (a huge
  // head prompt can stay in flight while a short one behind it finishes);
  // erase back-to-front so indices stay valid.
  for (auto it = done.rbegin(); it != done.rend(); ++it) {
    prefilling_.erase(prefilling_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  metrics_.makespan_s = now_s_;

  if (trace_) {
    // Post-step state snapshot, one sample per counter per executed step.
    TraceCounter(obs::TraceName::kCtrKvDevice,
                 static_cast<double>(kv_tokens_in_use_));
    TraceCounter(obs::TraceName::kCtrKvHost,
                 static_cast<double>(host_kv_tokens_in_use_));
    TraceCounter(obs::TraceName::kCtrHostStoredBytes,
                 static_cast<double>(host_kv_tokens_in_use_) *
                     cfg_.model.KvBytesPerToken(cfg_.backend.kv_dtype) *
                     CodecRatioEstimate());
    TraceCounter(obs::TraceName::kCtrQueueDepth,
                 static_cast<double>(pending_.size()));
    TraceCounter(obs::TraceName::kCtrRunning, static_cast<double>(running_.size()));
    TraceCounter(obs::TraceName::kCtrPreempted,
                 static_cast<double>(preempted_.size()));
    TraceCounter(obs::TraceName::kCtrTokPerS,
                 step_s > 0.0 ? static_cast<double>(metrics_.total_output_tokens -
                                                    toks_before) /
                                    step_s
                              : 0.0);
  }

  PublishStepTelemetry(metrics_.total_output_tokens - toks_before, step_prefill_tokens);
}

void ServingEngine::CompletePrefill(const Request& r) {
  // The request's first token is produced by its last chunk.
  metrics_.AddTtft((now_s_ - r.arrival_s) * 1e3, r.priority);
  ObserveTtft(r.tenant, r.priority, (now_s_ - r.arrival_s) * 1e3);
  ++metrics_.total_output_tokens;
  metrics_.cached_prefix_tokens += CachedTokens(r);
  const size_t running_before = running_.size();
  const int group = r.parallel_n > 1 ? next_group_++ : -1;
  if (group >= 0) group_refs_[group] = {r.parallel_n, r.input_len};
  // Spec decode: materialize the prompt KV structurally; parallel branches
  // fork it (retained pages) instead of re-owning it.
  int prefix_seq = -1;
  if (spec_kv_ && r.parallel_n > 1) {
    prefix_seq = spec_kv_->CreateSequence();
    spec_kv_->ExtendSequence(prefix_seq, r.input_len);
  }
  for (int n = 0; n < r.parallel_n; ++n) {
    Branch b;
    b.request_id = r.id;
    b.group = group;
    b.prefix_len = r.parallel_n > 1 ? r.input_len : 0;
    b.kv_len = r.input_len + 1;
    b.remaining = std::max<int64_t>(r.output_len - 1, 0);
    b.last_emit_s = now_s_;
    b.priority = r.priority;
    b.tenant = r.tenant;
    b.arrival_s = r.arrival_s;
    b.seg_start_s = now_s_;  // First decode segment opens at the first token.
    if (spec_kv_) {
      b.accept_prob =
          r.accept_prob >= 0.0 ? r.accept_prob : cfg_.spec.default_accept_prob;
      if (prefix_seq >= 0) {
        b.spec_seq = spec_kv_->ForkSequence(prefix_seq);
        spec_kv_->ExtendSequence(b.spec_seq, 1);
      } else {
        b.spec_seq = spec_kv_->CreateSequence();
        spec_kv_->ExtendSequence(b.spec_seq, r.input_len + 1);
      }
    }
    running_.push_back(b);
    // Full-reserve engines (spec, preemption) charged the whole output at
    // admission; vanilla charges tokens as they are emitted.
    if (!FullKvReserve()) kv_tokens_in_use_ += 1;
    // A zero-remaining branch never reaches a decode step; settle its charge
    // now (vanilla decode releases via the decode loop, but spec prefill
    // must not leave its sequence behind).
    if (b.remaining == 0 && spec_kv_) {
      FinishBranch(b);
      running_.pop_back();
    }
  }
  if (prefix_seq >= 0) spec_kv_->DropSequence(prefix_seq);
  if (cfg_.export_at_first_token) {
    // Disaggregated prefill pool: the finished prefill's branches do not
    // decode here — they park as one exportable unit (KV charge and
    // structural sequences intact) for the cluster driver to migrate to a
    // decode replica. Branches with nothing left to emit already finished
    // above and stay out of the unit.
    Exportable u;
    u.grouped = group >= 0;
    u.prefix_tokens = group >= 0 ? r.input_len : 0;
    u.export_s = now_s_;
    size_t keep = running_before;
    for (size_t i = running_before; i < running_.size(); ++i) {
      if (running_[i].remaining > 0) {
        u.branches.push_back(running_[i]);
      } else {
        running_[keep++] = running_[i];
      }
    }
    running_.resize(keep);
    if (!u.branches.empty()) {
      u.unit_id = next_unit_id_++;
      exportable_.push_back(std::move(u));
    }
  }
}

void ServingEngine::CommitDecode() {
  std::vector<Branch> still_running;
  still_running.reserve(running_.size());
  for (auto& b : running_) {
    const double gap_ms = (now_s_ - b.last_emit_s) * 1e3;
    metrics_.AddItl(gap_ms);
    ObserveTokens(b, /*tokens=*/1, gap_ms);
    b.last_emit_s = now_s_;
    // Preemption-enabled engines track the decode structurally too, so an
    // eviction swaps exactly the pages this branch's KV occupies.
    if (spec_kv_ && b.spec_seq >= 0) spec_kv_->ExtendSequence(b.spec_seq, 1);
    b.kv_len += 1;
    if (!FullKvReserve()) kv_tokens_in_use_ += 1;
    ++metrics_.total_output_tokens;
    b.remaining -= 1;
    if (b.remaining > 0) {
      still_running.push_back(b);
    } else {
      FinishBranch(b);
    }
  }
  running_ = std::move(still_running);
}

void ServingEngine::CommitSpecDecode() {
  const spec::DraftTree& tree = *tree_;
  std::vector<Branch> still_running;
  still_running.reserve(running_.size());
  for (auto& b : running_) {
    const int accepted = spec::SampleAcceptedLen(rng_, tree, b.accept_prob);
    ++metrics_.accepted_len_hist[static_cast<size_t>(accepted)];
    // Accepted draft prefix + the target's bonus/correction token, capped by
    // the branch's output budget.
    const int64_t commit = std::min<int64_t>(accepted + 1, b.remaining);
    SpecCommitKv(b, accepted, commit);
    // Tokens of one verify step surface together: the first closes the gap
    // since the last emission, the rest arrive at (simulated) zero ITL —
    // exactly the burst delivery real spec decoding produces.
    const double gap_ms = (now_s_ - b.last_emit_s) * 1e3;
    for (int64_t t = 0; t < commit; ++t) {
      metrics_.AddItl(t == 0 ? gap_ms : 0.0);
    }
    ObserveTokens(b, commit, gap_ms);
    b.last_emit_s = now_s_;
    b.kv_len += commit;  // Budget-wise already reserved at admission.
    metrics_.total_output_tokens += commit;
    metrics_.spec_committed_tokens += commit;
    b.remaining -= commit;
    if (b.remaining > 0) {
      still_running.push_back(b);
    } else {
      FinishBranch(b);
    }
  }
  running_ = std::move(still_running);
}

void ServingEngine::SpecCommitKv(Branch& b, int accepted, int64_t commit) {
  PagedKVCache& kv = *spec_kv_;
  const spec::DraftTree& tree = *tree_;
  const int64_t len0 = kv.SequenceLength(b.spec_seq);
  FI_CHECK_EQ(len0, b.kv_len);

  if (tree.Branching() == 1) {
    // Chain draft: the speculative tail extends the branch in place; the
    // rejected suffix rolls back by truncation.
    kv.ExtendSequence(b.spec_seq, tree.Size());
    kv.TruncateSequence(b.spec_seq, len0 + std::min<int64_t>(commit, tree.Size()));
  } else {
    // Tree draft: each top-level subtree speculates on its own fork of the
    // committed KV (full pages shared via refcount, partial tail page CoW).
    // The winning subtree replaces the branch's sequence; every loser — and
    // the winner's own rejected suffix — unwinds through ReleasePage.
    std::vector<int> forks(static_cast<size_t>(tree.Branching()));
    for (auto& f : forks) {
      f = kv.ForkSequence(b.spec_seq);
      kv.ExtendSequence(f, tree.SubtreeSize());
    }
    if (accepted > 0) {
      kv.DropSequence(b.spec_seq);
      // Which subtree won is structurally irrelevant; take the first.
      b.spec_seq = forks[0];
      for (size_t j = 1; j < forks.size(); ++j) kv.DropSequence(forks[j]);
      kv.TruncateSequence(b.spec_seq,
                          len0 + std::min<int64_t>(commit, tree.SubtreeSize()));
    } else {
      for (int f : forks) kv.DropSequence(f);
    }
  }
  // Bonus/correction token (and chain full-acceptance overflow): append the
  // remainder the rollback could not cover.
  const int64_t target = len0 + commit;
  const int64_t have = kv.SequenceLength(b.spec_seq);
  if (have < target) kv.ExtendSequence(b.spec_seq, target - have);
  FI_CHECK_EQ(kv.SequenceLength(b.spec_seq), target);
}

ServingMetrics ServingEngine::Run(const std::vector<Request>& workload) {
  Reset();
  for (const auto& r : workload) Admit(r);
  Drain();
  return metrics_;
}

}  // namespace flashinfer::serving

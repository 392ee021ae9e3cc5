#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <set>

#include "gpusim/executor.h"
#include "runtime/scheduler.h"
#include "test_util.h"

namespace flashinfer {
namespace {

using test::MakeProblem;
using test::ProblemSpec;

ProblemSpec SkewedSpec() {
  ProblemSpec spec;
  spec.qo_lens = {1, 1, 1, 1, 1, 1, 1, 1};
  spec.kv_lens = {400, 3, 5, 2, 7, 4, 6, 3};  // One giant, seven tiny.
  spec.num_qo_heads = 2;
  spec.num_kv_heads = 2;
  spec.page_size = 4;
  spec.tile_q = 1;
  return spec;
}

/// Collects (block_row, head, kv position) coverage from a plan.
std::map<std::tuple<int, int, int>, std::vector<std::pair<int64_t, int64_t>>> Coverage(
    const Plan& plan) {
  std::map<std::tuple<int, int, int>, std::vector<std::pair<int64_t, int64_t>>> cov;
  for (int c = 0; c < plan.NumCtas(); ++c) {
    for (const auto& item : plan.Queue(c)) {
      cov[{item.block_row, item.kv_head, item.qo_head}].push_back(
          {item.kv_begin, item.kv_end});
    }
  }
  return cov;
}

TEST(BalancedPlan, CoversEveryUnitExactlyOnce) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  const auto plan = MakeBalancedPlan(p, cfg, 8, 1 << 20);

  auto cov = Coverage(plan);
  const auto units = EnumerateWorkUnits(p);
  EXPECT_EQ(cov.size(), units.size());
  for (const auto& u : units) {
    auto ranges = cov.at({u.block_row, u.kv_head, u.qo_head});
    std::sort(ranges.begin(), ranges.end());
    // Ranges tile [0, kv_len) without gaps or overlaps.
    int64_t cursor = 0;
    for (const auto& [lo, hi] : ranges) {
      EXPECT_EQ(lo, cursor);
      EXPECT_LT(lo, hi);
      cursor = hi;
    }
    EXPECT_EQ(cursor, u.kv_len);
  }
}

TEST(BalancedPlan, BalancesSkewedWork) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  const int ctas = 8;
  const auto balanced = MakeBalancedPlan(p, cfg, ctas, 1 << 20);
  const auto naive = MakeNaivePlan(EnumerateWorkUnits(p));

  // Balanced: the 400-token request splits across CTAs, so the busiest CTA
  // carries far less than the whole request.
  const double balanced_max = balanced.MaxCtaCost(cfg.tile_q);
  double naive_max = 0;
  for (int cta = 0; cta < naive.NumCtas(); ++cta) {
    double c = 0;
    for (const auto& it : naive.Queue(cta)) c += static_cast<double>(it.kv_end - it.kv_begin);
    naive_max = std::max(naive_max, c);
  }
  EXPECT_LT(balanced_max, naive_max * 0.5);
  // And the spread between busiest and idlest CTA is bounded by one chunk.
  EXPECT_LE(balanced_max - balanced.MinCtaCost(cfg.tile_q),
            static_cast<double>(balanced.lkv_chunk) + cfg.tile_q + 1.0);
}

TEST(BalancedPlan, ChunkCapMatchesAlgorithmLine3) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  const int ctas = 8;
  const auto plan = MakeBalancedPlan(p, cfg, ctas, 1 << 20);
  int64_t total_kv = 0;
  for (const auto& u : EnumerateWorkUnits(p)) total_kv += u.kv_len;
  const int64_t expect =
      ((total_kv + ctas - 1) / ctas + cfg.tile_kv - 1) / cfg.tile_kv * cfg.tile_kv;
  EXPECT_EQ(plan.lkv_chunk, expect);
  for (const auto& item : plan.items) {
    EXPECT_LE(item.kv_end - item.kv_begin, plan.lkv_chunk);
  }
}

TEST(BalancedPlan, Deterministic) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  const auto a = MakeBalancedPlan(p, cfg, 6, 1 << 20);
  const auto b = MakeBalancedPlan(p, cfg, 6, 1 << 20);
  ASSERT_EQ(a.NumCtas(), b.NumCtas());
  for (int c = 0; c < a.NumCtas(); ++c) {
    const auto qa = a.Queue(c);
    const auto qb = b.Queue(c);
    ASSERT_EQ(qa.size(), qb.size());
    for (size_t i = 0; i < qa.size(); ++i) {
      EXPECT_EQ(qa[i].block_row, qb[i].block_row);
      EXPECT_EQ(qa[i].kv_begin, qb[i].kv_begin);
      EXPECT_EQ(qa[i].dest, qb[i].dest);
    }
  }
  // Reduction maps identical too.
  ASSERT_EQ(a.rmap.tasks.size(), b.rmap.tasks.size());
  EXPECT_EQ(a.rmap.slots, b.rmap.slots);
}

TEST(BalancedPlan, WritethroughForUnsplitUnits) {
  // Uniform tiny requests: nothing splits, everything writes through.
  ProblemSpec spec;
  spec.qo_lens = {1, 1, 1, 1};
  spec.kv_lens = {8, 8, 8, 8};
  spec.num_qo_heads = 2;
  spec.num_kv_heads = 2;
  spec.tile_q = 1;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 16;
  const auto plan = MakeBalancedPlan(p, cfg, 4, 1 << 20);
  EXPECT_EQ(plan.num_partial_rows, 0);
  EXPECT_TRUE(plan.rmap.Empty());
  EXPECT_EQ(plan.NumWorkItems(), 8);
  for (const auto& it : plan.items) EXPECT_EQ(it.dest, -1);
}

TEST(BalancedPlan, PartialRowsWithinAppendixD3Bound) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  for (int ctas : {2, 4, 16, 64}) {
    const auto plan = MakeBalancedPlan(p, cfg, ctas, 1 << 30);
    EXPECT_LE(plan.num_partial_rows, 2LL * ctas * cfg.tile_q)
        << "ctas=" << ctas;
  }
}

TEST(BalancedPlan, ReductionMapBijective) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  const auto plan = MakeBalancedPlan(p, cfg, 8, 1 << 20);

  // Every partial row appears in exactly one merge task.
  std::set<int32_t> seen;
  for (int32_t s : plan.rmap.slots) {
    EXPECT_TRUE(seen.insert(s).second) << "slot " << s << " referenced twice";
    EXPECT_LT(s, plan.num_partial_rows);
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), plan.num_partial_rows);

  // No merge task targets an output also written through.
  std::set<std::pair<int64_t, int>> merged_outputs;
  for (const auto& t : plan.rmap.tasks) {
    EXPECT_TRUE(merged_outputs.insert({t.token_row, t.qo_head}).second);
  }
}

TEST(NaivePlan, OneCtaPerUnitNoSplits) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  const auto plan = MakeNaivePlan(EnumerateWorkUnits(p));
  EXPECT_EQ(plan.NumWorkItems(), static_cast<int64_t>(EnumerateWorkUnits(p).size()));
  EXPECT_EQ(plan.NumCtas(), static_cast<int>(plan.NumWorkItems()));
  EXPECT_TRUE(plan.rmap.Empty());
}

TEST(FixedSplitPlan, SplitsLongRequests) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  const auto plan = MakeFixedSplitPlan(p, EnumerateWorkUnits(p), cfg, 8, 4, 1 << 20);
  auto cov = Coverage(plan);
  // The 400-token unit must be in 4 chunks; 3-token units in 1.
  bool found_long = false;
  for (const auto& [key, ranges] : cov) {
    int64_t total = 0;
    for (auto [lo, hi] : ranges) total += hi - lo;
    if (total == 400) {
      EXPECT_EQ(ranges.size(), 4u);
      found_long = true;
    }
    if (total == 3) {
      EXPECT_EQ(ranges.size(), 1u);
    }
  }
  EXPECT_TRUE(found_long);
}

TEST(EnumerateUnits, HeadFusionChangesMultiplicity) {
  ProblemSpec spec;
  spec.qo_lens = {2};
  spec.kv_lens = {8};
  spec.num_qo_heads = 8;
  spec.num_kv_heads = 2;
  spec.tile_q = 16;

  spec.head_fusion = true;
  auto fused = MakeProblem(spec);
  auto pf = fused.Params();
  EXPECT_EQ(EnumerateWorkUnits(pf).size(), 2u * 1);  // kv heads x 1 tile.

  spec.head_fusion = false;
  auto unfused = MakeProblem(spec);
  auto pu = unfused.Params();
  EXPECT_EQ(EnumerateWorkUnits(pu).size(), 8u * 1);  // qo heads x 1 tile.
}

TEST(BalancedPlan, ZeroLengthKvHandled) {
  ProblemSpec spec;
  spec.qo_lens = {1, 1};
  spec.kv_lens = {0, 6};
  spec.num_qo_heads = 1;
  spec.num_kv_heads = 1;
  spec.tile_q = 1;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  const auto plan = MakeBalancedPlan(p, cfg, 2, 1 << 20);
  // Both units present; the empty one is a zero-width writethrough item.
  EXPECT_EQ(plan.NumWorkItems(), 2);
}

// --- Oracles: the pre-CSR planner, kept as reference implementations --------
//
// The planner keeps its queues CTA-major in one array, sorts (cost, index)
// pairs, counts KV reuse in a flat vector and skips the makespan heap for a
// single wave. Each oracle below is the straightforward form it replaced;
// the optimized code must reproduce it exactly.

using RefQueues = std::vector<std::vector<WorkItem>>;

struct RefPlan {
  RefQueues queues;
  ReductionMap rmap;
  int64_t num_partial_rows = 0;
  int64_t lkv_chunk = 0;
};

void RefAppendMergeTasks(const AttentionParams& p, const WorkUnit& unit,
                         const std::vector<int32_t>& chunk_bases, ReductionMap* rmap) {
  const int g = p.head_fusion ? p.GroupSize() : 1;
  const int64_t row0 = p.bsr->row_start[static_cast<size_t>(unit.block_row)];
  const int64_t fused_begin = p.FusedBegin(unit.request);
  for (int i = 0; i < unit.rows; ++i) {
    const int64_t local = row0 + i - fused_begin;
    const int64_t token_local = p.head_fusion ? local / g : local;
    ReductionMap::Task task;
    task.token_row = p.qo_indptr[static_cast<size_t>(unit.request)] + token_local;
    task.qo_head =
        p.head_fusion ? unit.kv_head * g + static_cast<int>(local % g) : unit.qo_head;
    task.begin = static_cast<int32_t>(rmap->slots.size());
    task.count = static_cast<int32_t>(chunk_bases.size());
    for (int32_t base : chunk_bases) rmap->slots.push_back(base + i);
    rmap->tasks.push_back(task);
  }
}

RefPlan RefBalancedPlan(const AttentionParams& p, const KernelConfig& cfg, int num_ctas,
                        double alpha, double beta) {
  struct Chunk {
    WorkItem item;
    int rows;
    int64_t kv_tokens;
  };
  const auto cost_of = [&](const Chunk& c) {
    return alpha * static_cast<double>(c.rows) + beta * static_cast<double>(c.kv_tokens);
  };
  RefPlan plan;
  plan.queues.resize(static_cast<size_t>(num_ctas));
  const auto units = EnumerateWorkUnits(p);
  int64_t total_kv = 0;
  for (const auto& u : units) total_kv += u.kv_len;
  int64_t lkv = (total_kv + num_ctas - 1) / num_ctas;
  const int64_t tile_kv = std::max(1, cfg.tile_kv);
  lkv = std::max<int64_t>(((lkv + tile_kv - 1) / tile_kv) * tile_kv, tile_kv);
  plan.lkv_chunk = lkv;
  std::vector<Chunk> chunks;
  int32_t next_partial_row = 0;
  for (const auto& u : units) {
    const int64_t n_chunks = u.kv_len <= lkv ? 1 : (u.kv_len + lkv - 1) / lkv;
    if (n_chunks == 1) {
      chunks.push_back(
          {WorkItem{u.block_row, u.request, u.kv_head, u.qo_head, 0, u.kv_len, -1}, u.rows,
           u.kv_len});
      continue;
    }
    std::vector<int32_t> bases;
    for (int64_t k = 0; k < n_chunks; ++k) {
      const int64_t lo = k * lkv;
      const int64_t hi = std::min<int64_t>(u.kv_len, lo + lkv);
      chunks.push_back(
          {WorkItem{u.block_row, u.request, u.kv_head, u.qo_head, lo, hi, next_partial_row},
           u.rows, hi - lo});
      bases.push_back(next_partial_row);
      next_partial_row += u.rows;
    }
    RefAppendMergeTasks(p, u, bases, &plan.rmap);
  }
  plan.num_partial_rows = next_partial_row;
  std::sort(chunks.begin(), chunks.end(), [&](const Chunk& a, const Chunk& b) {
    const double ca = cost_of(a);
    const double cb = cost_of(b);
    if (ca != cb) return ca > cb;
    if (a.item.block_row != b.item.block_row) return a.item.block_row < b.item.block_row;
    if (a.item.kv_head != b.item.kv_head) return a.item.kv_head < b.item.kv_head;
    if (a.item.qo_head != b.item.qo_head) return a.item.qo_head < b.item.qo_head;
    return a.item.kv_begin < b.item.kv_begin;
  });
  using HeapEntry = std::pair<double, int>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  for (int c = 0; c < num_ctas; ++c) heap.emplace(0.0, c);
  for (const auto& chunk : chunks) {
    auto [cost, cta] = heap.top();
    heap.pop();
    plan.queues[static_cast<size_t>(cta)].push_back(chunk.item);
    heap.emplace(cost + cost_of(chunk), cta);
  }
  return plan;
}

RefPlan RefNaivePlan(const AttentionParams& p) {
  RefPlan plan;
  for (const auto& u : EnumerateWorkUnits(p)) {
    plan.queues.push_back(
        {WorkItem{u.block_row, u.request, u.kv_head, u.qo_head, 0, u.kv_len, -1}});
  }
  return plan;
}

RefPlan RefFixedSplitPlan(const AttentionParams& p, const KernelConfig& cfg, int num_ctas,
                          int num_splits) {
  RefPlan plan;
  plan.queues.resize(static_cast<size_t>(num_ctas));
  const int64_t tile_kv = std::max(1, cfg.tile_kv);
  int32_t next_partial_row = 0;
  int cta = 0;
  for (const auto& u : EnumerateWorkUnits(p)) {
    int64_t chunk_len = (u.kv_len + num_splits - 1) / num_splits;
    chunk_len = std::max<int64_t>(((chunk_len + tile_kv - 1) / tile_kv) * tile_kv, tile_kv);
    const int64_t n_chunks =
        u.kv_len <= chunk_len ? 1 : (u.kv_len + chunk_len - 1) / chunk_len;
    if (n_chunks == 1) {
      plan.queues[static_cast<size_t>(cta)].push_back(
          WorkItem{u.block_row, u.request, u.kv_head, u.qo_head, 0, u.kv_len, -1});
      cta = (cta + 1) % num_ctas;
      continue;
    }
    std::vector<int32_t> bases;
    for (int64_t k = 0; k < n_chunks; ++k) {
      const int64_t lo = k * chunk_len;
      const int64_t hi = std::min<int64_t>(u.kv_len, lo + chunk_len);
      plan.queues[static_cast<size_t>(cta)].push_back(WorkItem{
          u.block_row, u.request, u.kv_head, u.qo_head, lo, hi, next_partial_row});
      bases.push_back(next_partial_row);
      next_partial_row += u.rows;
      cta = (cta + 1) % num_ctas;
    }
    RefAppendMergeTasks(p, u, bases, &plan.rmap);
  }
  plan.num_partial_rows = next_partial_row;
  return plan;
}

double RefIntraBatchKvReuseFraction(const AttentionParams& p) {
  std::map<std::pair<int32_t, int32_t>, int64_t> unique;
  double total = 0.0;
  for (const auto& u : EnumerateWorkUnits(p)) {
    auto& mx = unique[{u.request, u.kv_head}];
    mx = std::max(mx, u.kv_len);
    total += static_cast<double>(u.kv_len);
  }
  if (total <= 0.0) return 0.0;
  double unique_total = 0.0;
  for (const auto& [key, mx] : unique) unique_total += static_cast<double>(mx);
  return std::max(0.0, 1.0 - unique_total / total);
}

double RefMakespan(const std::vector<double>& cta_times, int slots) {
  if (cta_times.empty()) return 0.0;
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int i = 0; i < std::max(slots, 1); ++i) free_at.push(0.0);
  double makespan = 0.0;
  for (double t : cta_times) {
    const double end = free_at.top() + t;
    free_at.pop();
    free_at.push(end);
    if (end > makespan) makespan = end;
  }
  return makespan;
}

bool SameItem(const WorkItem& a, const WorkItem& b) {
  return a.block_row == b.block_row && a.request == b.request && a.kv_head == b.kv_head &&
         a.qo_head == b.qo_head && a.kv_begin == b.kv_begin && a.kv_end == b.kv_end &&
         a.dest == b.dest;
}

::testing::AssertionResult SamePlan(const Plan& plan, const RefPlan& ref) {
  if (plan.NumCtas() != static_cast<int>(ref.queues.size())) {
    return ::testing::AssertionFailure()
           << plan.NumCtas() << " CTAs, oracle " << ref.queues.size();
  }
  for (int c = 0; c < plan.NumCtas(); ++c) {
    const auto queue = plan.Queue(c);
    const auto& want = ref.queues[static_cast<size_t>(c)];
    if (queue.size() != want.size()) {
      return ::testing::AssertionFailure()
             << "CTA " << c << " runs " << queue.size() << " items, oracle " << want.size();
    }
    for (size_t i = 0; i < queue.size(); ++i) {
      if (!SameItem(queue[i], want[i])) {
        return ::testing::AssertionFailure() << "CTA " << c << " item " << i << " differs";
      }
    }
  }
  if (plan.num_partial_rows != ref.num_partial_rows) {
    return ::testing::AssertionFailure() << "num_partial_rows differs";
  }
  if (plan.rmap.slots != ref.rmap.slots || plan.rmap.tasks.size() != ref.rmap.tasks.size()) {
    return ::testing::AssertionFailure() << "reduction map differs";
  }
  for (size_t t = 0; t < ref.rmap.tasks.size(); ++t) {
    const auto& a = plan.rmap.tasks[t];
    const auto& b = ref.rmap.tasks[t];
    if (a.token_row != b.token_row || a.qo_head != b.qo_head || a.begin != b.begin ||
        a.count != b.count) {
      return ::testing::AssertionFailure() << "merge task " << t << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// A random ragged batch: decode rows, prefill chunks and, with `uniform`,
/// identical requests (so equal-cost chunks exercise the tie-break).
ProblemSpec RandomBatch(Rng& rng, bool fused, bool uniform) {
  ProblemSpec spec;
  const int n = static_cast<int>(rng.UniformInt(1, 10));
  const int64_t shared_qo = rng.UniformInt(1, 9);
  const int64_t shared_kv = shared_qo + rng.UniformInt(0, 300);
  for (int i = 0; i < n; ++i) {
    // A third of ragged requests are prefill chunks; the rest decode.
    const int64_t ragged_qo = rng.UniformInt(0, 2) == 0 ? rng.UniformInt(2, 40) : 1;
    const int64_t qo = uniform ? shared_qo : ragged_qo;
    spec.qo_lens.push_back(qo);
    spec.kv_lens.push_back(uniform ? shared_kv : qo + rng.UniformInt(0, 600));
  }
  spec.num_kv_heads = static_cast<int>(rng.UniformInt(1, 2));
  spec.num_qo_heads = spec.num_kv_heads * static_cast<int>(rng.UniformInt(1, 4));
  spec.head_dim = 4;
  spec.page_size = static_cast<int>(rng.UniformInt(1, 16));
  spec.tile_q = static_cast<int>(1 << rng.UniformInt(0, 4));
  spec.head_fusion = fused;
  spec.seed = rng.NextU64();
  return spec;
}

TEST(PlanOracle, BalancedMatchesFourKeyComparatorPlanner) {
  Rng rng(2024);
  int split_plans = 0, unsplit_plans = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const bool fused = trial % 2 == 0;
    auto prob = MakeProblem(RandomBatch(rng, fused, trial % 3 == 0));
    auto p = prob.Params();
    p.variant.causal = trial % 4 < 2;
    KernelConfig cfg;
    cfg.tile_q = prob.spec.tile_q;
    cfg.tile_kv = static_cast<int>(16 << rng.UniformInt(0, 2));
    // Few CTAs force splitting; many leave every unit whole.
    const int num_ctas = static_cast<int>(trial % 5 == 0 ? rng.UniformInt(200, 1200)
                                                         : rng.UniformInt(1, 40));
    const double alpha = trial % 7 == 0 ? 0.0 : rng.Uniform(0.0, 4.0);
    const double beta = trial % 11 == 0 ? 1.0 : rng.Uniform(0.25, 2.0);
    const auto units = EnumerateWorkUnits(p);
    const auto plan = MakeBalancedPlan(p, units, cfg, num_ctas, int64_t{1} << 40, alpha, beta);
    const auto ref = RefBalancedPlan(p, cfg, num_ctas, alpha, beta);
    ASSERT_TRUE(SamePlan(plan, ref)) << "trial " << trial;
    EXPECT_EQ(plan.lkv_chunk, ref.lkv_chunk);
    // The units-free overload is the same planner.
    ASSERT_TRUE(
        SamePlan(MakeBalancedPlan(p, cfg, num_ctas, int64_t{1} << 40, alpha, beta), ref));
    (plan.rmap.Empty() ? unsplit_plans : split_plans)++;
  }
  EXPECT_GT(split_plans, 20);
  EXPECT_GT(unsplit_plans, 20);
}

TEST(PlanOracle, NaiveAndFixedSplitMatchPerCtaVectorPlanners) {
  Rng rng(77);
  for (int trial = 0; trial < 120; ++trial) {
    auto prob = MakeProblem(RandomBatch(rng, trial % 2 == 0, trial % 3 == 0));
    auto p = prob.Params();
    p.variant.causal = trial % 4 < 2;
    KernelConfig cfg;
    cfg.tile_q = prob.spec.tile_q;
    cfg.tile_kv = static_cast<int>(16 << rng.UniformInt(0, 2));
    const auto units = EnumerateWorkUnits(p);
    ASSERT_TRUE(SamePlan(MakeNaivePlan(units), RefNaivePlan(p))) << "trial " << trial;
    const int num_ctas = static_cast<int>(rng.UniformInt(1, 150));
    const int splits = static_cast<int>(rng.UniformInt(1, 6));
    ASSERT_TRUE(SamePlan(MakeFixedSplitPlan(p, units, cfg, num_ctas, splits, int64_t{1} << 40),
                         RefFixedSplitPlan(p, cfg, num_ctas, splits)))
        << "trial " << trial;
  }
}

TEST(PlanOracle, KvReuseFractionMatchesMapCountExactly) {
  Rng rng(5);
  int reused = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto prob = MakeProblem(RandomBatch(rng, trial % 2 == 0, trial % 3 == 0));
    auto p = prob.Params();
    p.variant.causal = trial % 4 < 2;
    const double got = IntraBatchKvReuseFraction(p, EnumerateWorkUnits(p));
    ASSERT_EQ(got, RefIntraBatchKvReuseFraction(p)) << "trial " << trial;
    reused += got > 0.0 ? 1 : 0;
  }
  EXPECT_GT(reused, 20);
}

TEST(PlanOracle, MakespanMatchesHeapAtEverySlotCount) {
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    const int slots = static_cast<int>(rng.UniformInt(1, 300));
    // n < slots, n == slots, n > slots.
    for (const int64_t n : {rng.UniformInt(1, slots), int64_t{slots},
                            slots + rng.UniformInt(1, 400)}) {
      std::vector<double> times(static_cast<size_t>(n));
      for (auto& t : times) t = rng.UniformInt(0, 9) == 0 ? 0.0 : rng.Uniform(0.0, 50.0);
      ASSERT_EQ(gpusim::SimExecutor::Makespan(times, slots), RefMakespan(times, slots))
          << "slots " << slots << " n " << n;
    }
  }
  EXPECT_EQ(gpusim::SimExecutor::Makespan({}, 4), 0.0);
  EXPECT_EQ(gpusim::SimExecutor::Makespan({3.0, 1.0}, 0), RefMakespan({3.0, 1.0}, 0));
}

}  // namespace
}  // namespace flashinfer

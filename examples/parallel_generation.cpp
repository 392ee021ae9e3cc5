// Parallel generation with shared prefixes (Sec. 4.4): the OpenAI "n"
// parameter forks n continuations of one prompt. The radix tree caches the
// prompt's pages; each branch adopts them by reference (no copies) and
// appends its own suffix. Decoding uses the two-level composable format
// (Sec. 3.1.2): the shared prefix is processed once per group at Br = n x g,
// the unique suffixes at Br = 1, and the two partial states merge with ⊕.
#include <cstdio>
#include <numeric>

#include "kvcache/radix.h"
#include "kvcache/ragged.h"
#include "runtime/batch_handle.h"
#include "serving/backends.h"
#include "sparse/composable.h"
#include "util/rng.h"

using namespace flashinfer;

int main() {
  const int heads = 32, kv_heads = 8, head_dim = 128, page_size = 16;
  const int n = 16;                  // Parallel branches.
  const int64_t prompt_len = 8192;   // Shared prompt.
  const int64_t suffix_len = 128;    // Already-decoded unique tokens.

  PagedKVCache cache(DType::kF16, kv_heads, head_dim, page_size, 1024);
  RadixTree radix(page_size);
  Rng rng(9);

  // --- Prefill the prompt once and publish it in the radix tree. -----------
  std::vector<int32_t> prompt_tokens(static_cast<size_t>(prompt_len));
  for (auto& tok : prompt_tokens) tok = static_cast<int32_t>(rng.UniformInt(0, 31999));
  const int prompt_seq = cache.CreateSequence();
  {
    std::vector<float> k(static_cast<size_t>(prompt_len) * kv_heads * head_dim);
    std::vector<float> v(k.size());
    for (auto& x : k) x = static_cast<float>(rng.Normal(0, 1));
    for (auto& x : v) x = static_cast<float>(rng.Normal(0, 1));
    cache.AppendTokens(prompt_seq, k.data(), v.data(), prompt_len);
  }
  radix.Insert(prompt_tokens, cache.SequencePages(prompt_seq));
  // The radix cache holds its own reference on every published page; evicting
  // a tree node is what finally releases it.
  for (int64_t page : cache.SequencePages(prompt_seq)) cache.RetainPage(page);
  std::printf("radix tree: %lld cached pages after prompt insert\n",
              static_cast<long long>(radix.TotalCachedPages()));

  // --- Fork n branches: each matches the cached prefix and adopts it. ------
  std::vector<int> branch_seqs;
  for (int b = 0; b < n; ++b) {
    const auto match = radix.MatchPrefix(prompt_tokens);
    const int seq = cache.CreateSequence();
    cache.AdoptPrefix(seq, match.pages, match.matched_tokens);
    std::vector<float> k(static_cast<size_t>(suffix_len) * kv_heads * head_dim);
    std::vector<float> v(k.size());
    for (auto& x : k) x = static_cast<float>(rng.Normal(0, 1));
    for (auto& x : v) x = static_cast<float>(rng.Normal(0, 1));
    cache.AppendTokens(seq, k.data(), v.data(), suffix_len);
    branch_seqs.push_back(seq);
  }
  std::printf("prefix page refcount after forking %d branches: %d\n", n,
              cache.RefCount(cache.SequencePages(prompt_seq)[0]));

  // --- Decode step over the composable format. -----------------------------
  const int group = heads / kv_heads;
  std::vector<int64_t> fused_lens(static_cast<size_t>(n), group);  // 1 token x g.
  const auto fused_indptr = BuildIndptr(fused_lens);
  const auto qo_indptr = BuildIndptr(std::vector<int64_t>(static_cast<size_t>(n), 1));

  // Level 0 (shared prefix) + level 1 (unique suffixes).
  sparse::PrefixGroup grp;
  grp.pages = cache.SequencePages(prompt_seq);
  grp.last_page_len = page_size;
  for (int b = 0; b < n; ++b) grp.members.push_back(b);
  std::vector<sparse::RequestKv> unique_kv;
  for (int b = 0; b < n; ++b) {
    auto kv = cache.ExportKv(branch_seqs[static_cast<size_t>(b)]);
    // Drop the shared prefix pages from the unique view.
    kv.pages.erase(kv.pages.begin(), kv.pages.begin() + static_cast<long>(grp.pages.size()));
    kv.pos_offset = prompt_len;
    unique_kv.push_back(kv);
  }
  const auto fmt =
      sparse::BuildSharedPrefixComposable(fused_indptr, unique_kv, {grp}, page_size, group);
  std::printf("composable format: level0 Br=%d (%lld prefix blocks), level1 Br=%d\n",
              fmt.levels[0].bsr.br, static_cast<long long>(fmt.levels[0].bsr.Nnz()),
              fmt.levels[1].bsr.br);

  // Price the step both ways on the simulated H100 (same machinery the
  // serving engine uses), matching Fig. 10's single-vs-composable question.
  serving::AttnSimInput in;
  in.qo_lens.assign(static_cast<size_t>(n), 1);
  in.kv_lens.assign(static_cast<size_t>(n), prompt_len + suffix_len);
  in.num_qo_heads = heads;
  in.num_kv_heads = kv_heads;
  in.head_dim = head_dim;
  serving::AttnSimInput::Group g;
  g.prefix_len = prompt_len;
  g.members.resize(static_cast<size_t>(n));
  std::iota(g.members.begin(), g.members.end(), 0);
  in.groups.push_back(g);

  auto single = serving::FlashInferBackend();
  auto comp = serving::FlashInferBackend();
  comp.composable = true;
  const auto dev = gpusim::H100Sxm80GB();
  const double t_single = serving::SimulateBatchAttention(dev, single, in).time_us;
  const double t_comp = serving::SimulateBatchAttention(dev, comp, in).time_us;
  std::printf("decode attention per layer: single format %.2f us, composable %.2f us "
              "(%.1f%% faster)\n",
              t_single, t_comp, 100.0 * (t_single - t_comp) / t_single);

  // Cleanup: branches release their suffix pages and prefix references.
  for (int seq : branch_seqs) cache.DropSequence(seq);
  cache.DropSequence(prompt_seq);
  std::printf("live pages after teardown: %lld (radix still pins %lld)\n",
              static_cast<long long>(cache.num_live_pages()),
              static_cast<long long>(radix.TotalCachedPages()));
  return 0;
}

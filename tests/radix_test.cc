#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>

#include "kvcache/radix.h"
#include "util/rng.h"

namespace flashinfer {
namespace {

std::vector<int32_t> Tokens(std::initializer_list<int32_t> t) { return t; }

TEST(Radix, MatchEmptyTree) {
  RadixTree tree(2);
  const auto m = tree.MatchPrefix(Tokens({1, 2, 3, 4}));
  EXPECT_EQ(m.matched_tokens, 0);
  EXPECT_TRUE(m.pages.empty());
}

TEST(Radix, InsertAndMatchFullPrefix) {
  RadixTree tree(2);
  EXPECT_EQ(tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{10, 11}), 2);
  const auto m = tree.MatchPrefix(Tokens({1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(m.matched_tokens, 4);
  EXPECT_EQ(m.pages, (std::vector<int64_t>{10, 11}));
}

TEST(Radix, PartialPageNeverShared) {
  RadixTree tree(4);
  // Only 1 full page of 4 tokens; the trailing 2 tokens are not cacheable.
  EXPECT_EQ(tree.Insert(Tokens({1, 2, 3, 4, 5, 6}), std::vector<int64_t>{7, 8}), 1);
  EXPECT_EQ(tree.TotalCachedPages(), 1);
  const auto m = tree.MatchPrefix(Tokens({1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(m.matched_tokens, 4);
}

TEST(Radix, DivergingBranches) {
  RadixTree tree(2);
  tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{1, 2});
  tree.Insert(Tokens({1, 2, 9, 9}), std::vector<int64_t>{1, 3});  // Shares page 1.
  EXPECT_EQ(tree.TotalCachedPages(), 3);  // {1,2} node + two children.
  const auto a = tree.MatchPrefix(Tokens({1, 2, 3, 4}));
  EXPECT_EQ(a.pages, (std::vector<int64_t>{1, 2}));
  const auto b = tree.MatchPrefix(Tokens({1, 2, 9, 9}));
  EXPECT_EQ(b.pages, (std::vector<int64_t>{1, 3}));
  const auto c = tree.MatchPrefix(Tokens({1, 2, 5, 5}));
  EXPECT_EQ(c.matched_tokens, 2);  // Only the shared trunk.
}

TEST(Radix, InsertExistingReturnsZeroNew) {
  RadixTree tree(2);
  tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{1, 2});
  EXPECT_EQ(tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{5, 6}), 0);
  // Original pages kept.
  EXPECT_EQ(tree.MatchPrefix(Tokens({1, 2, 3, 4})).pages, (std::vector<int64_t>{1, 2}));
}

TEST(Radix, EvictLruFreesLeafFirst) {
  RadixTree tree(2);
  tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{1, 2});
  tree.Insert(Tokens({5, 6}), std::vector<int64_t>{3});
  // Touch the {1,2,...} path so {5,6} becomes LRU.
  tree.MatchPrefix(Tokens({1, 2, 3, 4}));
  const auto freed = tree.EvictLru(1);
  EXPECT_EQ(freed, (std::vector<int64_t>{3}));
  EXPECT_EQ(tree.TotalCachedPages(), 2);
  // Evicting more removes the deepest leaf of the remaining path first.
  const auto freed2 = tree.EvictLru(2);
  EXPECT_EQ(freed2.size(), 2u);
  EXPECT_EQ(tree.TotalCachedPages(), 0);
}

TEST(Radix, LockPreventsEviction) {
  RadixTree tree(2);
  tree.Insert(Tokens({1, 2, 3, 4}), std::vector<int64_t>{1, 2});
  auto m = tree.MatchPrefix(Tokens({1, 2, 3, 4}));
  tree.Lock(m.node_path);
  EXPECT_TRUE(tree.EvictLru(10).empty());
  tree.Unlock(m.node_path);
  EXPECT_EQ(tree.EvictLru(10).size(), 2u);
}

TEST(Radix, DeepSharedPrefixAcrossManyRequests) {
  RadixTree tree(4);
  std::vector<int32_t> base(64);
  std::iota(base.begin(), base.end(), 0);
  std::vector<int64_t> pages(16);
  std::iota(pages.begin(), pages.end(), 100);
  tree.Insert(base, pages);
  // 50 requests share the 64-token prefix then diverge.
  for (int r = 0; r < 50; ++r) {
    auto tokens = base;
    for (int i = 0; i < 8; ++i) tokens.push_back(1000 + r * 8 + i);
    const auto m = tree.MatchPrefix(tokens);
    EXPECT_EQ(m.matched_tokens, 64);
    std::vector<int64_t> new_pages = m.pages;
    new_pages.push_back(500 + r * 2);
    new_pages.push_back(501 + r * 2);
    tree.Insert(tokens, new_pages);
  }
  EXPECT_EQ(tree.TotalCachedPages(), 16 + 50 * 2);
}

// --- Differential check against the tree-walk evictor ------------------------
//
// RadixTree keeps its evictable leaves in an ordered index. DfsRadixTree is
// the same cache with the original evictor, which walks the whole tree for
// every page it frees; it is the oracle for which pages go, in which order.

class DfsRadixTree {
 public:
  explicit DfsRadixTree(int page_size) : page_size_(page_size) {}

  RadixTree::MatchResult MatchPrefix(std::span<const int32_t> tokens) {
    RadixTree::MatchResult result;
    Node* node = &root_;
    ++clock_;
    for (int64_t p = 0; p < static_cast<int64_t>(tokens.size()) / page_size_; ++p) {
      const auto it = node->children.find(Chunk(tokens, p));
      if (it == node->children.end()) break;
      node = it->second.get();
      node->last_access = clock_;
      result.pages.push_back(node->page);
      result.matched_tokens += page_size_;
      result.node_path.push_back(node);
    }
    return result;
  }

  int64_t Insert(std::span<const int32_t> tokens, std::span<const int64_t> pages) {
    Node* node = &root_;
    int64_t inserted = 0;
    ++clock_;
    for (int64_t p = 0; p < static_cast<int64_t>(tokens.size()) / page_size_; ++p) {
      auto chunk = Chunk(tokens, p);
      auto it = node->children.find(chunk);
      if (it == node->children.end()) {
        auto child = std::make_unique<Node>();
        child->chunk = chunk;
        child->page = pages[static_cast<size_t>(p)];
        child->parent = node;
        it = node->children.emplace(std::move(chunk), std::move(child)).first;
        ++inserted;
        ++total_pages_;
      }
      it->second->last_access = clock_;
      node = it->second.get();
    }
    return inserted;
  }

  void Lock(const std::vector<void*>& path, int delta) {
    for (void* p : path) static_cast<Node*>(p)->lock_count += delta;
  }

  std::vector<int64_t> EvictLru(int64_t max_pages) {
    std::vector<int64_t> freed;
    while (static_cast<int64_t>(freed.size()) < max_pages) {
      Node* victim = nullptr;
      uint64_t best = UINT64_MAX;
      std::vector<Node*> stack{&root_};
      while (!stack.empty()) {
        Node* n = stack.back();
        stack.pop_back();
        for (auto& [key, child] : n->children) stack.push_back(child.get());
        if (n != &root_ && n->children.empty() && n->lock_count == 0 &&
            n->last_access < best) {
          best = n->last_access;
          victim = n;
        }
      }
      if (victim == nullptr) break;
      freed.push_back(victim->page);
      --total_pages_;
      victim->parent->children.erase(victim->chunk);
    }
    return freed;
  }

  int64_t TotalCachedPages() const { return total_pages_; }

 private:
  struct Node {
    std::vector<int32_t> chunk;
    int64_t page = -1;
    int lock_count = 0;
    uint64_t last_access = 0;
    Node* parent = nullptr;
    std::map<std::vector<int32_t>, std::unique_ptr<Node>> children;
  };

  std::vector<int32_t> Chunk(std::span<const int32_t> tokens, int64_t p) const {
    return {tokens.begin() + p * page_size_, tokens.begin() + (p + 1) * page_size_};
  }

  int page_size_;
  uint64_t clock_ = 0;
  int64_t total_pages_ = 0;
  Node root_;
};

/// Drives a RadixTree and the oracle through the same operations.
struct TreePair {
  explicit TreePair(int page_size) : fast(page_size), oracle(page_size) {}

  ::testing::AssertionResult Insert(const std::vector<int32_t>& tokens) {
    std::vector<int64_t> pages(tokens.size());
    std::iota(pages.begin(), pages.end(), next_page);
    next_page += static_cast<int64_t>(pages.size());
    const int64_t a = fast.Insert(tokens, pages);
    const int64_t b = oracle.Insert(tokens, pages);
    if (a != b) return ::testing::AssertionFailure() << "Insert " << a << " vs " << b;
    return Same();
  }

  ::testing::AssertionResult Match(const std::vector<int32_t>& tokens, bool lock) {
    auto a = fast.MatchPrefix(tokens);
    auto b = oracle.MatchPrefix(tokens);
    if (a.pages != b.pages || a.matched_tokens != b.matched_tokens) {
      return ::testing::AssertionFailure() << "MatchPrefix differs";
    }
    if (fast.PeekPrefixTokens(tokens) != a.matched_tokens) {
      return ::testing::AssertionFailure() << "PeekPrefixTokens differs";
    }
    if (lock && !a.node_path.empty()) {
      fast.Lock(a.node_path);
      oracle.Lock(b.node_path, +1);
      held.emplace_back(std::move(a.node_path), std::move(b.node_path));
    }
    return Same();
  }

  void UnlockOne(size_t i) {
    fast.Unlock(held[i].first);
    oracle.Lock(held[i].second, -1);
    held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
  }

  ::testing::AssertionResult Evict(int64_t max_pages) {
    const auto a = fast.EvictLru(max_pages);
    const auto b = oracle.EvictLru(max_pages);
    if (a != b) return ::testing::AssertionFailure() << "EvictLru freed different pages";
    freed += static_cast<int64_t>(a.size());
    return Same();
  }

  ::testing::AssertionResult Same() const {
    if (fast.TotalCachedPages() != oracle.TotalCachedPages()) {
      return ::testing::AssertionFailure()
             << "TotalCachedPages " << fast.TotalCachedPages() << " vs "
             << oracle.TotalCachedPages();
    }
    return ::testing::AssertionSuccess();
  }

  RadixTree fast;
  DfsRadixTree oracle;
  int64_t next_page = 0;
  int64_t freed = 0;
  std::vector<std::pair<std::vector<void*>, std::vector<void*>>> held;
};

/// A prompt over a tiny vocabulary, so prompts share and fork prefixes.
std::vector<int32_t> RandomPrompt(Rng& rng, int page_size) {
  std::vector<int32_t> tokens(static_cast<size_t>(rng.UniformInt(0, 7 * page_size)));
  for (auto& t : tokens) t = static_cast<int32_t>(rng.UniformInt(0, 2));
  return tokens;
}

TEST(RadixDifferential, IndexedEvictorFreesTheTreeWalkOrder) {
  Rng rng(1234);
  int64_t total_freed = 0;
  int64_t locked_ops = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int page_size = static_cast<int>(rng.UniformInt(1, 4));
    TreePair trees(page_size);
    std::vector<std::vector<int32_t>> prompts;
    for (int op = 0; op < 120; ++op) {
      const int64_t kind = rng.UniformInt(0, 9);
      if (kind <= 3 || prompts.empty()) {
        prompts.push_back(RandomPrompt(rng, page_size));
        ASSERT_TRUE(trees.Insert(prompts.back())) << "trial " << trial << " op " << op;
      } else if (kind <= 5) {
        // Re-match an earlier prompt (refreshes its path) or a fresh one.
        const auto tokens = rng.UniformInt(0, 1) == 0
                                ? prompts[static_cast<size_t>(rng.UniformInt(
                                      0, static_cast<int64_t>(prompts.size()) - 1))]
                                : RandomPrompt(rng, page_size);
        ASSERT_TRUE(trees.Match(tokens, rng.UniformInt(0, 2) == 0))
            << "trial " << trial << " op " << op;
      } else if (kind == 6 && !trees.held.empty()) {
        trees.UnlockOne(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(trees.held.size()) - 1)));
      } else {
        ASSERT_TRUE(trees.Evict(rng.UniformInt(0, 6))) << "trial " << trial << " op " << op;
      }
      locked_ops += trees.held.empty() ? 0 : 1;
    }
    while (!trees.held.empty()) trees.UnlockOne(0);
    ASSERT_TRUE(trees.Evict(trees.fast.TotalCachedPages() + 1)) << "trial " << trial;
    EXPECT_EQ(trees.fast.TotalCachedPages(), 0);
    total_freed += trees.freed;
  }
  EXPECT_GT(total_freed, 10000);
  EXPECT_GT(locked_ops, 5000);
}

TEST(RadixDifferential, EveryLeafLockedFreesNothingThenEverything) {
  Rng rng(99);
  for (int page_size = 1; page_size <= 4; ++page_size) {
    TreePair trees(page_size);
    std::vector<std::vector<int32_t>> prompts;
    for (int i = 0; i < 40; ++i) {
      prompts.push_back(RandomPrompt(rng, page_size));
      ASSERT_TRUE(trees.Insert(prompts.back()));
    }
    // Locking every inserted prompt's path pins every leaf.
    for (const auto& tokens : prompts) ASSERT_TRUE(trees.Match(tokens, /*lock=*/true));
    ASSERT_GT(trees.fast.TotalCachedPages(), 0);
    ASSERT_TRUE(trees.Evict(trees.fast.TotalCachedPages()));
    EXPECT_EQ(trees.freed, 0);
    // Unlock one path at a time; each eviction must match the oracle's.
    while (!trees.held.empty()) {
      trees.UnlockOne(0);
      ASSERT_TRUE(trees.Evict(1));
    }
    ASSERT_TRUE(trees.Evict(trees.fast.TotalCachedPages()));
    EXPECT_EQ(trees.fast.TotalCachedPages(), 0);
  }
}

}  // namespace
}  // namespace flashinfer

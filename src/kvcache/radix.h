// Radix-tree prefix cache (RadixAttention, Zheng et al. 2023 / SGLang).
//
// Maps token-id prefixes to cached KV pages so that requests sharing a
// prefix reuse pages instead of recomputing them, and so the serving engine
// can discover shared-prefix groups for composable formats (Sec. 3.1.2).
// Sharing granularity is one page: the tree stores one node per full page of
// tokens. Nodes are reference-counted by in-flight requests; eviction walks
// unlocked leaves in LRU order through an ordered index of exactly those
// leaves, so evicting k pages costs O(k log n) rather than a tree walk per
// page.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

namespace flashinfer {

class RadixTree {
 public:
  explicit RadixTree(int page_size);

  struct MatchResult {
    /// Cached pages covering the matched prefix, in order.
    std::vector<int64_t> pages;
    /// Matched token count (always a multiple of page_size).
    int64_t matched_tokens = 0;
    /// Opaque handle for Lock/Unlock; empty when nothing matched.
    std::vector<void*> node_path;
  };

  /// Finds the longest cached prefix of `tokens` (page-aligned) and bumps
  /// the LRU stamp of every node on the path.
  MatchResult MatchPrefix(std::span<const int32_t> tokens);

  /// Length of the longest cached prefix of `tokens` without touching LRU
  /// stamps — a read-only probe (e.g. a router scoring replicas it may not
  /// pick must not refresh their caches).
  int64_t PeekPrefixTokens(std::span<const int32_t> tokens) const;

  /// Inserts the page-aligned prefix of `tokens` into the tree, reusing any
  /// existing path; `pages[i]` backs tokens [i*page_size, (i+1)*page_size).
  /// Returns how many of `pages` were newly inserted (the tail); previously
  /// present pages are NOT adopted (caller keeps or frees its duplicates).
  int64_t Insert(std::span<const int32_t> tokens, std::span<const int64_t> pages);

  /// Pins every node on `path` (from MatchPrefix/Insert) against eviction.
  void Lock(const std::vector<void*>& path);
  void Unlock(const std::vector<void*>& path);

  /// Evicts up to `max_pages` unlocked LRU leaves; returns the freed pages
  /// (caller releases them from the PagedKVCache).
  std::vector<int64_t> EvictLru(int64_t max_pages);

  int64_t TotalCachedPages() const noexcept { return total_pages_; }

 private:
  struct Node {
    std::vector<int32_t> chunk;  // Exactly page_size tokens.
    int64_t page = -1;
    int lock_count = 0;
    uint64_t last_access = 0;
    Node* parent = nullptr;
    std::map<std::vector<int32_t>, std::unique_ptr<Node>> children;
  };

  /// Whether `n` belongs in `evictable_`: an unlocked non-root leaf.
  bool Evictable(const Node* n) const noexcept {
    return n != &root_ && n->children.empty() && n->lock_count == 0;
  }
  /// Applies `mutate` to `n`, keeping `evictable_` in step with it.
  template <typename Mutate>
  void Update(Node* n, Mutate mutate);

  int page_size_;
  uint64_t clock_ = 0;
  int64_t total_pages_ = 0;
  Node root_;
  /// Every evictable node, oldest first. One MatchPrefix/Insert stamps one
  /// root path, so at most one leaf holds any stamp and the order is the
  /// LRU order alone (the pointer never breaks a tie).
  std::set<std::pair<uint64_t, Node*>> evictable_;
};

}  // namespace flashinfer

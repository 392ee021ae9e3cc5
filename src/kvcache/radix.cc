#include "kvcache/radix.h"

#include <algorithm>

#include "util/check.h"

namespace flashinfer {

RadixTree::RadixTree(int page_size) : page_size_(page_size) {
  FI_CHECK_GE(page_size, 1);
}

template <typename Mutate>
void RadixTree::Update(Node* n, Mutate mutate) {
  if (Evictable(n)) evictable_.erase({n->last_access, n});
  mutate(n);
  if (Evictable(n)) evictable_.emplace(n->last_access, n);
}

RadixTree::MatchResult RadixTree::MatchPrefix(std::span<const int32_t> tokens) {
  MatchResult result;
  Node* node = &root_;
  const int64_t full_pages = static_cast<int64_t>(tokens.size()) / page_size_;
  ++clock_;
  for (int64_t p = 0; p < full_pages; ++p) {
    std::vector<int32_t> chunk(tokens.begin() + p * page_size_,
                               tokens.begin() + (p + 1) * page_size_);
    const auto it = node->children.find(chunk);
    if (it == node->children.end()) break;
    node = it->second.get();
    Update(node, [this](Node* n) { n->last_access = clock_; });
    result.pages.push_back(node->page);
    result.matched_tokens += page_size_;
    result.node_path.push_back(node);
  }
  return result;
}

int64_t RadixTree::PeekPrefixTokens(std::span<const int32_t> tokens) const {
  const Node* node = &root_;
  const int64_t full_pages = static_cast<int64_t>(tokens.size()) / page_size_;
  int64_t matched = 0;
  for (int64_t p = 0; p < full_pages; ++p) {
    std::vector<int32_t> chunk(tokens.begin() + p * page_size_,
                               tokens.begin() + (p + 1) * page_size_);
    const auto it = node->children.find(chunk);
    if (it == node->children.end()) break;
    node = it->second.get();
    matched += page_size_;
  }
  return matched;
}

int64_t RadixTree::Insert(std::span<const int32_t> tokens, std::span<const int64_t> pages) {
  const int64_t full_pages = static_cast<int64_t>(tokens.size()) / page_size_;
  FI_CHECK_LE(full_pages, static_cast<int64_t>(pages.size()));
  Node* node = &root_;
  int64_t inserted = 0;
  ++clock_;
  for (int64_t p = 0; p < full_pages; ++p) {
    std::vector<int32_t> chunk(tokens.begin() + p * page_size_,
                               tokens.begin() + (p + 1) * page_size_);
    auto it = node->children.find(chunk);
    if (it == node->children.end()) {
      auto child = std::make_unique<Node>();
      child->chunk = chunk;
      child->page = pages[static_cast<size_t>(p)];
      child->parent = node;
      child->last_access = clock_;
      Update(node, [&](Node* n) {
        it = n->children.emplace(std::move(chunk), std::move(child)).first;
      });
      evictable_.emplace(clock_, it->second.get());
      ++inserted;
      ++total_pages_;
    } else {
      Update(it->second.get(), [this](Node* n) { n->last_access = clock_; });
    }
    node = it->second.get();
  }
  return inserted;
}

void RadixTree::Lock(const std::vector<void*>& path) {
  for (void* p : path) {
    Update(static_cast<Node*>(p), [](Node* n) { ++n->lock_count; });
  }
}

void RadixTree::Unlock(const std::vector<void*>& path) {
  for (void* p : path) {
    Update(static_cast<Node*>(p), [](Node* n) {
      FI_CHECK_GT(n->lock_count, 0);
      --n->lock_count;
    });
  }
}

std::vector<int64_t> RadixTree::EvictLru(int64_t max_pages) {
  std::vector<int64_t> freed;
  while (static_cast<int64_t>(freed.size()) < max_pages && !evictable_.empty()) {
    Node* victim = evictable_.begin()->second;
    evictable_.erase(evictable_.begin());
    freed.push_back(victim->page);
    --total_pages_;
    // Erasing the victim may leave its parent an evictable leaf.
    Update(victim->parent,
           [victim](Node* n) { n->children.erase(n->children.find(victim->chunk)); });
  }
  return freed;
}

}  // namespace flashinfer

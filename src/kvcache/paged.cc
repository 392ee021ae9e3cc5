#include "kvcache/paged.h"

#include <algorithm>
#include <utility>

namespace flashinfer {

PagedKVCache::PagedKVCache(DType dtype, int num_kv_heads, int head_dim, int page_size,
                           int64_t max_pages, int64_t max_host_pages, KvCodecConfig codec,
                           bool synthetic_fill)
    : dtype_(dtype),
      num_kv_heads_(num_kv_heads),
      head_dim_(head_dim),
      page_size_(page_size),
      max_pages_(max_pages),
      max_host_pages_(max_host_pages),
      codec_(codec),
      synthetic_fill_(synthetic_fill) {
  FI_CHECK_GE(num_kv_heads, 1);
  FI_CHECK_GE(head_dim, 1);
  FI_CHECK_GE(page_size, 1);
  FI_CHECK_GE(max_pages, 1);
  FI_CHECK_GE(max_host_pages, 0);
  elems_per_page_ = 2LL * num_kv_heads_ * page_size_ * head_dim_;
  data_.resize(static_cast<size_t>(elems_per_page_ * max_pages_ * DTypeBytes(dtype_)));
  ref_.assign(static_cast<size_t>(max_pages_), 0);
  free_list_.reserve(static_cast<size_t>(max_pages_));
  for (int64_t p = max_pages_ - 1; p >= 0; --p) free_list_.push_back(p);
  if (!codec_.enabled()) {
    // Raw host tier: a fixed pool of page-sized slots. The codec tier stores
    // variable-size blobs instead and charges bytes, so it skips this
    // allocation entirely.
    host_data_.resize(
        static_cast<size_t>(elems_per_page_ * max_host_pages_ * DTypeBytes(dtype_)));
    host_free_list_.reserve(static_cast<size_t>(max_host_pages_));
    for (int64_t p = max_host_pages_ - 1; p >= 0; --p) host_free_list_.push_back(p);
  }
}

bool PagedKVCache::HostCanHold(int64_t pages) const noexcept {
  if (!codec_.enabled()) return pages <= static_cast<int64_t>(host_free_list_.size());
  const int64_t bound = static_cast<int64_t>(
      util::EncodedPageBound(static_cast<size_t>(elems_per_page_), dtype_, codec_));
  return pages * bound <= host_byte_capacity() - host_bytes_in_use_;
}

double PagedKVCache::ObservedStoredRatio() const noexcept {
  if (!codec_.enabled()) return 1.0;
  if (cum_logical_bytes_ > 0) {
    return static_cast<double>(cum_stored_bytes_) / static_cast<double>(cum_logical_bytes_);
  }
  const double bound = static_cast<double>(
      util::EncodedPageBound(static_cast<size_t>(elems_per_page_), dtype_, codec_));
  return bound / static_cast<double>(PageBytes());
}

int64_t PagedKVCache::AllocPage() {
  FI_CHECK(!free_list_.empty());
  const int64_t page = free_list_.back();
  free_list_.pop_back();
  ref_[static_cast<size_t>(page)] = 1;
  return page;
}

void PagedKVCache::RetainPage(int64_t page) {
  FI_CHECK_GT(ref_[static_cast<size_t>(page)], 0);
  ++ref_[static_cast<size_t>(page)];
}

void PagedKVCache::ReleasePage(int64_t page) {
  auto& r = ref_[static_cast<size_t>(page)];
  FI_CHECK_GT(r, 0);
  if (--r == 0) free_list_.push_back(page);
}

int PagedKVCache::RefCount(int64_t page) const {
  return ref_[static_cast<size_t>(page)];
}

int64_t PagedKVCache::AllocHostPage() {
  FI_CHECK(!host_free_list_.empty());
  const int64_t page = host_free_list_.back();
  host_free_list_.pop_back();
  return page;
}

int64_t PagedKVCache::AllocBlobSlot() {
  if (!host_blob_free_.empty()) {
    const int64_t slot = host_blob_free_.back();
    host_blob_free_.pop_back();
    return slot;
  }
  host_blobs_.emplace_back();
  return static_cast<int64_t>(host_blobs_.size()) - 1;
}

void PagedKVCache::FreeBlobSlot(int64_t slot) {
  auto& blob = host_blobs_.at(static_cast<size_t>(slot));
  host_bytes_in_use_ -= static_cast<int64_t>(blob.size());
  --live_host_pages_;
  blob = {};
  host_blob_free_.push_back(slot);
}

int PagedKVCache::CreateSequence() {
  Sequence fresh;
  fresh.live = true;
  // Reuse a dead slot if any.
  for (size_t i = 0; i < seqs_.size(); ++i) {
    if (!seqs_[i].live) {
      seqs_[i] = std::move(fresh);
      return static_cast<int>(i);
    }
  }
  seqs_.push_back(std::move(fresh));
  return static_cast<int>(seqs_.size() - 1);
}

void PagedKVCache::AppendTokens(int seq, const float* k, const float* v, int64_t count) {
  auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  FI_CHECK(!s.evicted);
  for (int64_t t = 0; t < count; ++t) {
    const int slot = static_cast<int>(s.length % page_size_);
    if (slot == 0) {
      s.pages.push_back(AllocPage());
    } else {
      // Appending into a partially-filled page requires exclusive ownership:
      // writing a shared page would corrupt every other holder's KV. Shared
      // tails come from AdoptPrefix misuse or truncating a fork below its
      // copy-on-write point — both API-contract violations; fail loudly.
      FI_CHECK_EQ(ref_[static_cast<size_t>(s.pages.back())], 1);
    }
    const int64_t page = s.pages.back();
    SetToken(page, slot, k + t * num_kv_heads_ * head_dim_, v + t * num_kv_heads_ * head_dim_);
    ++s.length;
  }
}

void PagedKVCache::AdoptPrefix(int seq, const std::vector<int64_t>& pages, int64_t token_count) {
  auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  FI_CHECK(!s.evicted);
  FI_CHECK_EQ(s.length, 0);
  FI_CHECK_LE(token_count, static_cast<int64_t>(pages.size()) * page_size_);
  // Shared prefixes must end on a page boundary: a partially-filled shared
  // page cannot be appended to by two sequences.
  FI_CHECK_EQ(token_count % page_size_, 0);
  for (int64_t p : pages) RetainPage(p);
  s.pages = pages;
  s.length = token_count;
}

void PagedKVCache::FillSlotSynthetic(int64_t page, int slot) {
  for (int h = 0; h < num_kv_heads_; ++h) {
    const int64_t koff = KOffset(page, h, slot);
    const int64_t voff = VOffset(page, h, slot);
    for (int d = 0; d < head_dim_; ++d) {
      // Deterministic pseudo-values keyed by the element's storage position:
      // page reuse, forks, and Run≡StepTo twins all see identical bytes. A
      // small value alphabet in [-1, 1) keeps the encoded pages compressible
      // enough to behave like real (correlated) KV.
      for (const int64_t off : {koff + d, voff + d}) {
        uint64_t x = static_cast<uint64_t>(off) * 0x9E3779B97F4A7C15ull;
        x ^= x >> 29;
        x *= 0xBF58476D1CE4E5B9ull;
        x ^= x >> 32;
        StoreElem(off, static_cast<float>((x >> 11) & 0xF) / 8.0f - 1.0f);
      }
    }
  }
}

void PagedKVCache::ExtendSequence(int seq, int64_t count) {
  auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  FI_CHECK(!s.evicted);
  FI_CHECK_GE(count, 0);
  if (count > 0 && s.length % page_size_ != 0) {
    // Same exclusivity contract as AppendTokens: growing into a shared
    // partial page would collide with the other holder's slots.
    FI_CHECK_EQ(ref_[static_cast<size_t>(s.pages.back())], 1);
  }
  for (int64_t t = 0; t < count; ++t) {
    if (s.length % page_size_ == 0) s.pages.push_back(AllocPage());
    if (synthetic_fill_) {
      FillSlotSynthetic(s.pages.back(), static_cast<int>(s.length % page_size_));
    }
    ++s.length;
  }
}

int PagedKVCache::ForkSequence(int seq) {
  // Read the parent's state up front: CreateSequence() may grow seqs_ and
  // invalidate references into it.
  const std::vector<int64_t> parent_pages = seqs_.at(static_cast<size_t>(seq)).pages;
  const int64_t parent_len = seqs_.at(static_cast<size_t>(seq)).length;
  FI_CHECK(seqs_.at(static_cast<size_t>(seq)).live);
  FI_CHECK(!seqs_.at(static_cast<size_t>(seq)).evicted);

  const int64_t full_pages = parent_len / page_size_;
  const int tail_len = static_cast<int>(parent_len % page_size_);
  const int fork = CreateSequence();
  auto& f = seqs_.at(static_cast<size_t>(fork));
  f.pages.reserve(parent_pages.size());
  for (int64_t p = 0; p < full_pages; ++p) {
    RetainPage(parent_pages[static_cast<size_t>(p)]);
    f.pages.push_back(parent_pages[static_cast<size_t>(p)]);
  }
  if (tail_len > 0) {
    // Copy-on-write: both sides append into their own tail page.
    const int64_t src = parent_pages[static_cast<size_t>(full_pages)];
    const int64_t dst = AllocPage();
    const int64_t bytes_per_elem = DTypeBytes(dtype_);
    std::copy_n(data_.begin() + src * elems_per_page_ * bytes_per_elem,
                elems_per_page_ * bytes_per_elem,
                data_.begin() + dst * elems_per_page_ * bytes_per_elem);
    f.pages.push_back(dst);
  }
  f.length = parent_len;
  return fork;
}

void PagedKVCache::TruncateSequence(int seq, int64_t new_len) {
  auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  FI_CHECK(!s.evicted);
  FI_CHECK_GE(new_len, 0);
  FI_CHECK_LE(new_len, s.length);
  const int64_t keep_pages = (new_len + page_size_ - 1) / page_size_;
  while (static_cast<int64_t>(s.pages.size()) > keep_pages) {
    ReleasePage(s.pages.back());
    s.pages.pop_back();
  }
  s.length = new_len;
}

void PagedKVCache::DropSequence(int seq) {
  auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  for (int64_t p : s.pages) {
    if (p >= 0) ReleasePage(p);
  }
  for (int64_t h : s.host_slots) {
    if (h < 0) continue;
    if (codec_.enabled()) {
      FreeBlobSlot(h);
    } else {
      host_free_list_.push_back(h);
    }
  }
  s = Sequence{};
}

int64_t PagedKVCache::EvictSequence(int seq) { return EvictSequenceEx(seq).pages; }

PagedKVCache::CodecStats PagedKVCache::EvictSequenceEx(int seq) {
  auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  FI_CHECK(!s.evicted);
  const int64_t bytes_per_elem = DTypeBytes(dtype_);
  s.host_slots.assign(s.pages.size(), -1);
  CodecStats out;
  for (size_t i = 0; i < s.pages.size(); ++i) {
    const int64_t p = s.pages[i];
    if (ref_[static_cast<size_t>(p)] > 1) continue;  // Shared: stays resident.
    if (codec_.enabled()) {
      util::PageCodecStats ps;
      auto blob = util::EncodePage(data_.data() + p * elems_per_page_ * bytes_per_elem,
                                   static_cast<size_t>(elems_per_page_), dtype_, codec_, &ps);
      FI_CHECK_LE(host_bytes_in_use_ + static_cast<int64_t>(blob.size()),
                  host_byte_capacity());
      const int64_t slot = AllocBlobSlot();
      host_bytes_in_use_ += static_cast<int64_t>(blob.size());
      ++live_host_pages_;
      host_blobs_[static_cast<size_t>(slot)] = std::move(blob);
      s.host_slots[i] = slot;
      out.stored_bytes += ps.stored_bytes;
      out.logical_bytes += ps.logical_bytes;
      if (codec_.quant != KvQuantFormat::kNone) {
        out.mse_sum += ps.mse;
        ++out.mse_pages;
      }
    } else {
      const int64_t h = AllocHostPage();
      std::copy_n(data_.begin() + p * elems_per_page_ * bytes_per_elem,
                  elems_per_page_ * bytes_per_elem,
                  host_data_.begin() + h * elems_per_page_ * bytes_per_elem);
      s.host_slots[i] = h;
      out.stored_bytes += PageBytes();
      out.logical_bytes += PageBytes();
    }
    ReleasePage(p);
    s.pages[i] = -1;
    ++out.pages;
  }
  s.evicted = true;
  if (codec_.enabled()) {
    cum_stored_bytes_ += out.stored_bytes;
    cum_logical_bytes_ += out.logical_bytes;
  }
  s.host_stats.pages += out.pages;
  s.host_stats.stored_bytes += out.stored_bytes;
  s.host_stats.logical_bytes += out.logical_bytes;
  s.host_stats.mse_sum += out.mse_sum;
  s.host_stats.mse_pages += out.mse_pages;
  return out;
}

int64_t PagedKVCache::RestoreSequence(int seq) { return RestoreSequenceEx(seq).pages; }

PagedKVCache::CodecStats PagedKVCache::RestoreSequenceEx(int seq) {
  auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  FI_CHECK(s.evicted);
  // Transactional: check the whole device need up front. A mid-loop
  // allocation failure would strand a half-restored sequence — some pages
  // device-resident, some still in the host tier, the frozen flag ambiguous
  // — and leak its host pages. With the precheck, a shortfall mutates
  // nothing: the caller sees -1, the sequence stays evicted and intact.
  int64_t needed = 0;
  for (const int64_t h : s.host_slots) {
    if (h >= 0) ++needed;
  }
  if (needed > num_free_pages()) {
    CodecStats fail;
    fail.pages = -1;
    return fail;
  }
  const int64_t bytes_per_elem = DTypeBytes(dtype_);
  CodecStats out = s.host_stats;
  out.pages = 0;
  for (size_t i = 0; i < s.pages.size(); ++i) {
    const int64_t h = s.host_slots[i];
    if (h < 0) continue;  // Stayed resident (shared page).
    const int64_t p = AllocPage();
    if (codec_.enabled()) {
      const auto& blob = host_blobs_.at(static_cast<size_t>(h));
      util::DecodePage(blob.data(), blob.size(),
                       data_.data() + p * elems_per_page_ * bytes_per_elem,
                       static_cast<size_t>(elems_per_page_), dtype_);
      FreeBlobSlot(h);
    } else {
      std::copy_n(host_data_.begin() + h * elems_per_page_ * bytes_per_elem,
                  elems_per_page_ * bytes_per_elem,
                  data_.begin() + p * elems_per_page_ * bytes_per_elem);
      host_free_list_.push_back(h);
    }
    s.pages[i] = p;
    ++out.pages;
  }
  s.host_slots.clear();
  s.host_stats = CodecStats{};
  s.evicted = false;
  return out;
}

bool PagedKVCache::IsEvicted(int seq) const {
  return seqs_.at(static_cast<size_t>(seq)).evicted;
}

int64_t PagedKVCache::ExclusivePages(int seq) const {
  const auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  int64_t n = 0;
  for (int64_t p : s.pages) {
    if (p >= 0 && ref_[static_cast<size_t>(p)] == 1) ++n;
  }
  return n;
}

int64_t PagedKVCache::HostPagesHeld(int seq) const {
  const auto& s = seqs_.at(static_cast<size_t>(seq));
  int64_t n = 0;
  for (int64_t h : s.host_slots) {
    if (h >= 0) ++n;
  }
  return n;
}

int64_t PagedKVCache::SequenceLength(int seq) const {
  return seqs_.at(static_cast<size_t>(seq)).length;
}

const std::vector<int64_t>& PagedKVCache::SequencePages(int seq) const {
  return seqs_.at(static_cast<size_t>(seq)).pages;
}

int PagedKVCache::LastPageLen(int seq) const {
  const auto& s = seqs_.at(static_cast<size_t>(seq));
  if (s.length == 0) return 0;
  const int rem = static_cast<int>(s.length % page_size_);
  return rem == 0 ? page_size_ : rem;
}

sparse::RequestKv PagedKVCache::ExportKv(int seq, int64_t pos_offset) const {
  const auto& s = seqs_.at(static_cast<size_t>(seq));
  FI_CHECK(s.live);
  FI_CHECK(!s.evicted);
  sparse::RequestKv kv;
  kv.pages = s.pages;
  kv.last_page_len = LastPageLen(seq);
  kv.pos_offset = pos_offset;
  return kv;
}

float PagedKVCache::LoadElem(int64_t elem_offset) const noexcept {
  switch (dtype_) {
    case DType::kF32:
      return reinterpret_cast<const float*>(data_.data())[elem_offset];
    case DType::kF16:
      return ToFloat(reinterpret_cast<const half_t*>(data_.data())[elem_offset]);
    case DType::kBF16:
      return ToFloat(reinterpret_cast<const bf16_t*>(data_.data())[elem_offset]);
    case DType::kFP8_E4M3:
      return ToFloat(reinterpret_cast<const fp8_e4m3_t*>(data_.data())[elem_offset]);
    case DType::kFP8_E5M2:
      return ToFloat(reinterpret_cast<const fp8_e5m2_t*>(data_.data())[elem_offset]);
  }
  return 0.0f;
}

void PagedKVCache::StoreElem(int64_t elem_offset, float v) noexcept {
  switch (dtype_) {
    case DType::kF32:
      reinterpret_cast<float*>(data_.data())[elem_offset] = v;
      return;
    case DType::kF16:
      reinterpret_cast<half_t*>(data_.data())[elem_offset] = half_t(v);
      return;
    case DType::kBF16:
      reinterpret_cast<bf16_t*>(data_.data())[elem_offset] = bf16_t(v);
      return;
    case DType::kFP8_E4M3:
      reinterpret_cast<fp8_e4m3_t*>(data_.data())[elem_offset] = fp8_e4m3_t(v);
      return;
    case DType::kFP8_E5M2:
      reinterpret_cast<fp8_e5m2_t*>(data_.data())[elem_offset] = fp8_e5m2_t(v);
      return;
  }
}

float PagedKVCache::KAt(int64_t page, int head, int slot, int d) const noexcept {
  return LoadElem(KOffset(page, head, slot) + d);
}

float PagedKVCache::VAt(int64_t page, int head, int slot, int d) const noexcept {
  return LoadElem(VOffset(page, head, slot) + d);
}

void PagedKVCache::SetToken(int64_t page, int slot, const float* k, const float* v) {
  FI_CHECK_GE(page, 0);
  FI_CHECK_LT(page, max_pages_);
  FI_CHECK_GE(slot, 0);
  FI_CHECK_LT(slot, page_size_);
  for (int h = 0; h < num_kv_heads_; ++h) {
    const int64_t koff = KOffset(page, h, slot);
    const int64_t voff = VOffset(page, h, slot);
    for (int d = 0; d < head_dim_; ++d) {
      StoreElem(koff + d, k[h * head_dim_ + d]);
      StoreElem(voff + d, v[h * head_dim_ + d]);
    }
  }
}

}  // namespace flashinfer

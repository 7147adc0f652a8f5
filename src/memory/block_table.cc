#include "src/memory/block_table.h"

#include "src/common/logging.h"

namespace skywalker {

void BlockTable::SetSkew(int32_t skew) {
  SKYWALKER_CHECK(blocks_.empty() && tokens_ == 0) << "skew on live table";
  SKYWALKER_CHECK(skew >= 0) << "negative skew";
  skew_ = skew;
}

int64_t BlockTable::Truncate(BlockAllocator& alloc, int32_t block_size,
                             int64_t tokens) {
  SKYWALKER_CHECK(tokens >= 0 && tokens <= tokens_) << "truncate range";
  tokens_ -= tokens;
  // Truncation drops from the back: the base (and so the skew) is
  // unchanged even when the table empties.
  int64_t keep = tokens_ == 0
                     ? 0
                     : (skew_ + tokens_ + block_size - 1) / block_size;
  int64_t released = 0;
  while (num_blocks() > keep) {
    if (blocks_.back() == cow_exempt_) {
      cow_exempt_ = kInvalidBlockId;  // The exemption dies with the page.
    }
    alloc.Release(blocks_.back());
    blocks_.pop_back();
    ++released;
  }
  return released;
}

int64_t BlockTable::ReleasePrefix(BlockAllocator& alloc, int32_t block_size,
                                  int64_t tokens) {
  SKYWALKER_CHECK(tokens >= 0 && tokens <= tokens_) << "prefix range";
  if (tokens == 0) {
    return 0;
  }
  tokens_ -= tokens;
  const int64_t drop = skew_ + tokens;
  int64_t released = 0;
  if (tokens_ == 0) {
    // Everything published/dropped: nothing of ours remains in any page,
    // but the table's path alignment advances past the dropped span — a
    // re-materialized token (RestoreDecodedTokens) must land at its true
    // path position, so skew survives the empty state.
    for (BlockId id : blocks_) {
      if (id == cow_exempt_) {
        cow_exempt_ = kInvalidBlockId;
      }
      alloc.Release(id);
      ++released;
    }
    blocks_.clear();
    skew_ = static_cast<int32_t>(drop % block_size);
    return released;
  }
  // Path offset of the new start within the current block frame; pages
  // fully before it hold only published content and drop here. A straddled
  // boundary page stays (its later slots are still ours; its earlier slots
  // now belong to the cache, which holds its own reference).
  const int64_t full = drop / block_size;
  for (int64_t i = 0; i < full; ++i) {
    if (blocks_[static_cast<size_t>(i)] == cow_exempt_) {
      cow_exempt_ = kInvalidBlockId;  // The exemption dies with the page.
    }
    alloc.Release(blocks_[static_cast<size_t>(i)]);
    ++released;
  }
  blocks_.erase(blocks_.begin(), blocks_.begin() + full);
  skew_ = static_cast<int32_t>(drop % block_size);
  return released;
}

int64_t BlockTable::Clear(BlockAllocator& alloc) {
  int64_t released = static_cast<int64_t>(blocks_.size());
  for (BlockId id : blocks_) {
    alloc.Release(id);
  }
  blocks_.clear();  // Capacity retained for pooled reuse.
  tokens_ = 0;
  skew_ = 0;
  cow_exempt_ = kInvalidBlockId;
  return released;
}

}  // namespace skywalker

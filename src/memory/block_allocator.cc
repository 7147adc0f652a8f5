#include "src/memory/block_allocator.h"

#include <algorithm>

#include "src/common/logging.h"

namespace skywalker {

BlockAllocator::BlockAllocator(int64_t capacity_blocks)
    : capacity_blocks_(capacity_blocks) {
  SKYWALKER_CHECK(capacity_blocks > 0) << "allocator needs capacity";
}

void BlockAllocator::Reserve(int64_t blocks) {
  refs_.reserve(static_cast<size_t>(blocks));
  free_list_.reserve(static_cast<size_t>(blocks));
}

void BlockAllocator::AllocateSpan(int64_t n, BlockId* out) {
  int64_t i = 0;
  const int64_t from_free =
      std::min<int64_t>(n, static_cast<int64_t>(free_list_.size()));
  for (; i < from_free; ++i) {
    BlockId id = free_list_.back();
    free_list_.pop_back();
    refs_[static_cast<size_t>(id)] = 1;
    out[i] = id;
  }
  for (; i < n; ++i) {
    BlockId id = static_cast<BlockId>(refs_.size());
    refs_.push_back(1);
    out[i] = id;
  }
  used_blocks_ += n;
  stats_.allocated += n;
  stats_.peak_used_blocks = std::max(stats_.peak_used_blocks, used_blocks_);
}

int64_t BlockAllocator::ReleaseSpan(const BlockId* ids, int64_t n) {
  int64_t freed = 0;
  for (int64_t i = 0; i < n; ++i) {
    int32_t& ref = refs_[static_cast<size_t>(ids[i])];
    SKYWALKER_CHECK(ref > 0) << "release dead block";
    if (--ref == 0) {
      free_list_.push_back(ids[i]);
      ++freed;
    }
  }
  used_blocks_ -= freed;
  stats_.freed += freed;
  return freed;
}

int64_t BlockAllocator::live_refs() const {
  int64_t total = 0;
  for (int32_t ref : refs_) {
    total += ref;
  }
  return total;
}

bool BlockAllocator::CheckInvariants() const {
  int64_t live = 0;
  for (int32_t ref : refs_) {
    if (ref < 0) {
      return false;
    }
    if (ref > 0) {
      ++live;
    }
  }
  if (live != used_blocks_) {
    return false;
  }
  if (free_list_.size() != refs_.size() - static_cast<size_t>(live)) {
    return false;
  }
  for (BlockId id : free_list_) {
    if (refs_[static_cast<size_t>(id)] != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace skywalker

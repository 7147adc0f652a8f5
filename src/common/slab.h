// Chunked object arena with stable addresses, 32-bit ids, and a free list.
//
// The radix structures link nodes by SlabId instead of pointers: ids are half
// the size of pointers (children lists stay compact), and allocation is a
// free-list pop or a bump within a chunk — no per-node malloc. Chunks are
// never deallocated while the slab lives, so `T&` references remain valid
// across Alloc/Free; freed objects are NOT destroyed, they are recycled
// as-is so their internal buffers (e.g. a spilled child vector's capacity)
// survive for the next user. Callers reset logical state on reuse.

#ifndef SKYWALKER_COMMON_SLAB_H_
#define SKYWALKER_COMMON_SLAB_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace skywalker {

using SlabId = uint32_t;
inline constexpr SlabId kNilSlabId = UINT32_MAX;

template <typename T, size_t kChunkSizeLog2 = 8>
class Slab {
 public:
  static constexpr size_t kChunkSize = size_t{1} << kChunkSizeLog2;
  static constexpr size_t kChunkMask = kChunkSize - 1;

  Slab() = default;
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  // Returns a recycled object (state as left by its previous user) or a
  // freshly default-constructed one.
  SlabId Alloc() {
    ++live_;
    if (free_head_ != kNilSlabId) {
      SlabId id = free_head_;
      free_head_ = free_next_[id];
      return id;
    }
    SlabId id = static_cast<SlabId>(high_water_++);
    if ((id >> kChunkSizeLog2) == chunks_.size()) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
      free_next_.resize(chunks_.size() << kChunkSizeLog2, kNilSlabId);
    }
    return id;
  }

  // Returns the object to the free list. Does not run its destructor; the
  // object must already be in a reusable state.
  void Free(SlabId id) {
    assert(id < high_water_);
    free_next_[id] = free_head_;
    free_head_ = id;
    --live_;
  }

  T& operator[](SlabId id) {
    return chunks_[id >> kChunkSizeLog2][id & kChunkMask];
  }
  const T& operator[](SlabId id) const {
    return chunks_[id >> kChunkSizeLog2][id & kChunkMask];
  }

  // Base address of one chunk (for the cursors).
  T* ChunkBase(uint32_t chunk) { return chunks_[chunk].get(); }
  const T* ChunkBase(uint32_t chunk) const { return chunks_[chunk].get(); }

  // Walk-local id->address cache. Tree walks visit runs of nodes from the
  // same chunk (ids are allocated roughly in insertion order), so caching
  // the last chunk base replaces a dependent pointer load on the hot path
  // with a predictable compare. ConstCursor is the read-only variant for
  // const walks (e.g. a trie match), which must not obtain mutable nodes.
  template <typename SlabPtr, typename Ptr>
  class BasicCursor {
   public:
    explicit BasicCursor(SlabPtr slab) : slab_(slab) {}
    Ptr Deref(SlabId id) {
      const uint32_t chunk = id >> kChunkSizeLog2;
      if (chunk != chunk_index_) {
        chunk_index_ = chunk;
        base_ = slab_->ChunkBase(chunk);
      }
      return base_ + (id & kChunkMask);
    }

   private:
    SlabPtr slab_;
    uint32_t chunk_index_ = UINT32_MAX;
    Ptr base_ = nullptr;
  };
  using Cursor = BasicCursor<Slab*, T*>;
  using ConstCursor = BasicCursor<const Slab*, const T*>;

  // Objects currently allocated (excludes free-listed ones).
  size_t live() const { return live_; }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  // Free-list links live outside T so recycled objects keep their state.
  std::vector<SlabId> free_next_;
  SlabId free_head_ = kNilSlabId;
  size_t high_water_ = 0;
  size_t live_ = 0;
};

}  // namespace skywalker

#endif  // SKYWALKER_COMMON_SLAB_H_

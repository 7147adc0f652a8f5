#include "src/cache/prefix_cache.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/common/logging.h"

namespace skywalker {

namespace {
// Path-page index of the first page covering positions >= d.
inline int64_t PageFloor(int64_t d, int32_t block_size) {
  return d / block_size;
}
// Path-page index one past the last page covering positions < d.
inline int64_t PageCeil(int64_t d, int32_t block_size) {
  return (d + block_size - 1) / block_size;
}
}  // namespace

PrefixCache::PrefixCache(int64_t capacity_tokens, BlockAllocator* alloc,
                         int32_t block_size_tokens, EvictionPolicy policy)
    : capacity_tokens_(capacity_tokens),
      block_size_(block_size_tokens),
      policy_(policy),
      maintain_aggregates_(policy == EvictionPolicy::kColdSubtree) {
  SKYWALKER_CHECK(block_size_ >= 1) << "block size";
  if (alloc == nullptr) {
    owned_alloc_ = std::make_unique<BlockAllocator>(
        std::max<int64_t>(1, capacity_tokens / block_size_));
    alloc = owned_alloc_.get();
  }
  alloc_ = alloc;
  root_ = nodes_.Alloc();
}

PrefixCache::~PrefixCache() {
  // Return every page reference to the (possibly shared) allocator so a
  // replica teardown leaves the pool consistent. Slices into the owned
  // pools die with the pools themselves.
  std::vector<SlabId> stack{root_};
  while (!stack.empty()) {
    SlabId id = stack.back();
    stack.pop_back();
    const Node& n = node(id);
    for (const auto& [token, child] : n.children) {
      (void)token;
      stack.push_back(child);
    }
    alloc_->ReleaseSpan(n.blocks.data,
                        static_cast<int64_t>(n.blocks.size()));
  }
}

SlabId PrefixCache::SplitAbove(SlabId id, size_t keep) {
  SlabId top = nodes_.Alloc();
  Node& lower = node(id);
  Node& upper = node(top);
  assert(keep > 0 && keep < lower.edge.size());

  upper.edge = lower.edge.Prefix(keep);
  pool_.AddRef(upper.edge);
  upper.parent = lower.parent;
  // Both halves are covered by exactly the pins that covered the original
  // node (pin boundaries are node-aligned, so no pin ends strictly inside);
  // pins keep referencing `id`, which stays the deepest covered node.
  upper.ref_count = lower.ref_count;
  upper.last_access = lower.last_access;
  upper.children.Clear();
  upper.children.Set(lower.edge[keep], id);

  // Split the page span at the same point. Pages are path-aligned, so the
  // upper half keeps pages up to PageCeil(mid) and the lower half keeps
  // pages from PageFloor(mid); a page straddling `mid` appears in both
  // spans and gains one allocator reference — a split costs zero new pages.
  // The upper half keeps the original head (and its duplicate flag); the
  // lower half's head is a duplicate exactly when it is the straddled page,
  // so held and pinned page counts are unchanged.
  const int64_t first = PageFloor(lower.start, block_size_);
  const int64_t mid = lower.start + static_cast<int64_t>(keep);
  const int64_t upper_len = PageCeil(mid, block_size_) - first;
  const int64_t lower_from = PageFloor(mid, block_size_) - first;
  upper.blocks = lower.blocks.Prefix(static_cast<size_t>(upper_len));
  block_pool_.AddRef(upper.blocks);  // One slice view became two.
  upper.start = lower.start;
  upper.dup_head = lower.dup_head;
  lower.dup_head = mid % block_size_ != 0;
  if (lower.dup_head) {
    alloc_->AddRef(lower.blocks[static_cast<size_t>(lower_from)]);
    ++block_refs_;
    ++dup_heads_;
  }
  lower.blocks = lower.blocks.Suffix(static_cast<size_t>(lower_from));
  lower.start = mid;

  *node(lower.parent).children.Find(lower.edge.front()) = top;
  lower.edge = lower.edge.Suffix(keep);  // Keeps the original chunk ref.
  lower.parent = top;
  ++num_nodes_;  // Token count is unchanged; one extra node exists.
  if (maintain_aggregates_) {
    // The upper subtree is the lower subtree plus the upper node itself, so
    // its access aggregates are a copy; the page aggregates move the pages
    // the upper half took out of the lower half, and a straddled boundary
    // page (one extra reference) propagates +1 to every ancestor.
    lower.sub_blocks -= static_cast<int32_t>(lower_from);
    upper.sub_blocks = lower.sub_blocks + static_cast<int32_t>(upper_len);
    upper.sub_last_access = lower.sub_last_access;
    upper.sub_hits = lower.sub_hits;
    upper.sub_hit_stamp = lower.sub_hit_stamp;
    if (mid % block_size_ != 0) {
      PropagateSubBlocks(top, 1);
    }
  }
  return top;
}

int64_t PrefixCache::WalkAndSplit(const TokenSeq& seq, SimTime now,
                                  SlabId* deepest) {
  // The walk carries a raw node pointer alongside the id (slab chunks have
  // stable addresses) and derefs ids through a chunk-caching cursor.
  Slab<Node, 6>::Cursor cursor(&nodes_);
  SlabId cur = root_;
  Node* cur_node = &node(cur);
  size_t pos = 0;
  if (now > newest_access_) {
    newest_access_ = now;  // Eviction judges coldness against this clock.
  }
  while (pos < seq.size()) {
    const SlabId* child_slot = cur_node->children.Find(seq[pos]);
    if (child_slot == nullptr) {
      break;
    }
    SlabId child = *child_slot;
    Node* child_node = cursor.Deref(child);
    const size_t n =
        std::min<size_t>(child_node->edge.size(), seq.size() - pos);
    // The child is keyed by its edge's first token, so that token is already
    // known equal — single-token edges (deep chains) skip the compare (and
    // the edge-data load) entirely.
    size_t matched = 1;
    if (n > 1) {
      matched += CommonPrefixLenRaw(child_node->edge.data + 1,
                                    seq.data() + pos + 1, n - 1);
    }
    if (matched < child_node->edge.size()) {
      // Partial edge match: split so the boundary is node-aligned. The
      // fully-matched half is the new upper node.
      child = SplitAbove(child, matched);
      child_node = &node(child);
    }
    child_node->last_access = now;
    if (maintain_aggregates_) {
      // The walked path is exactly the ancestor chain of the access, so
      // every matched node's subtree was just hit.
      TouchAggregates(*child_node, now);
    }
    pos += matched;
    cur = child;
    cur_node = child_node;
  }
  *deepest = cur;
  return static_cast<int64_t>(pos);
}

PrefixCache::MatchRef PrefixCache::MatchAndRef(const TokenSeq& seq,
                                               SimTime now) {
  SlabId deepest = root_;
  int64_t len = WalkAndSplit(seq, now, &deepest);
  for (SlabId n = deepest; n != root_; n = node(n).parent) {
    Node& nd = node(n);
    if (nd.ref_count == 0) {
      CountPinned(nd, 1);
    }
    ++nd.ref_count;
  }

  uint32_t slot = pins_.Acquire();
  pins_[slot] = deepest == root_ ? kNilSlabId : deepest;
  PinId id = static_cast<PinId>(pins_.MakeHandle(slot));

  lookup_tokens_ += static_cast<int64_t>(seq.size());
  hit_tokens_ += len;
  return MatchRef{len, id};
}

int64_t PrefixCache::MatchPrefix(const TokenSeq& seq, SimTime now) {
  SlabId deepest = root_;
  return WalkAndSplit(seq, now, &deepest);
}

void PrefixCache::Unref(PinId pin) {
  const uint64_t handle = static_cast<uint64_t>(pin);
  SKYWALKER_CHECK(pin != kInvalidPin && pins_.IsValid(handle))
      << "double Unref or invalid pin " << pin;
  const uint32_t slot = GenSlotPool<SlabId>::HandleSlot(handle);
  // Every node from the pin's deepest covered node up to the root is covered
  // by it (splits insert nodes above survivors, so the chain stays intact).
  SlabId cur = pins_[slot];
  while (cur != kNilSlabId && cur != root_) {
    Node& n = node(cur);
    --n.ref_count;
    SKYWALKER_CHECK(n.ref_count >= 0) << "negative refcount";
    if (n.ref_count == 0) {
      CountPinned(n, -1);
    }
    cur = n.parent;
  }
  pins_[slot] = kNilSlabId;
  pins_.Release(slot);
}

void PrefixCache::CountPinned(const Node& n, int64_t sign) {
  pinned_tokens_ += sign * static_cast<int64_t>(n.edge.size());
  pinned_blocks_ +=
      sign * (static_cast<int64_t>(n.blocks.size()) - (n.dup_head ? 1 : 0));
}

int64_t PrefixCache::Insert(const TokenSeq& seq, SimTime now,
                            const BlockTable* donor, int64_t donor_base) {
  SlabId parent = root_;
  int64_t matched = WalkAndSplit(seq, now, &parent);
  int64_t added = 0;
  if (matched < static_cast<int64_t>(seq.size())) {
    SlabId leaf = nodes_.Alloc();
    Node& n = node(leaf);
    n.edge = pool_.Intern(seq.data() + matched,
                          seq.size() - static_cast<size_t>(matched));
    n.children.Clear();
    n.parent = parent;
    n.ref_count = 0;
    n.last_access = now;
    n.start = matched;
    added = static_cast<int64_t>(n.edge.size());

    // Assemble the leaf's page span over path pages [matched, seq.size()).
    // Pages the donor (the publishing sequence's path-aligned table) covers
    // are reference-transferred; the rest — bare inserts and re-publish
    // after eviction — get fresh pages. An unaligned head page's leading
    // slots duplicate the parent's tail content: that is the boundary cost
    // paged mode pays, visible as fragmentation.
    const int64_t first = PageFloor(matched, block_size_);
    const int64_t last = PageCeil(static_cast<int64_t>(seq.size()),
                                  block_size_);
    span_scratch_.resize(static_cast<size_t>(last - first));
    if (donor == nullptr) {
      // Bare insert: a whole span of fresh pages in one allocator pass.
      alloc_->AllocateSpan(last - first, span_scratch_.data());
    } else {
      const int64_t donor_first = PageFloor(donor_base, block_size_);
      for (int64_t j = first; j < last; ++j) {
        BlockId id;
        const int64_t di = j - donor_first;
        if (di >= 0 && di < donor->num_blocks()) {
          id = donor->blocks()[static_cast<size_t>(di)];
          alloc_->AddRef(id);
        } else {
          // Re-publish after eviction: the donor no longer covers this
          // position; it gets a fresh page (rare corner, single alloc).
          id = alloc_->Allocate();
        }
        span_scratch_[static_cast<size_t>(j - first)] = id;
      }
    }
    n.blocks = block_pool_.Intern(span_scratch_.data(), span_scratch_.size());
    block_refs_ += static_cast<int64_t>(span_scratch_.size());
    // Only a donated page can already hang in the tree (the publisher's
    // unaligned boundary page): the leaf's head is then a duplicate.
    if (donor != nullptr && matched % block_size_ != 0 &&
        AncestorHolds(parent, first, n.blocks[0])) {
      n.dup_head = true;
      ++dup_heads_;
    }

    node(parent).children.Set(n.edge.front(), leaf);
    ++num_nodes_;
    size_tokens_ += added;
    if (maintain_aggregates_) {
      n.sub_blocks = static_cast<int32_t>(span_scratch_.size());
      n.sub_hits = 1.0f;  // The insert itself is the subtree's first access.
      n.sub_last_access = now;
      n.sub_hit_stamp = now;
      PropagateSubBlocks(leaf,
                         static_cast<int64_t>(span_scratch_.size()));
    }
  }
  if (size_tokens_ > capacity_tokens_) {
    Evict(PageCeil(size_tokens_ - capacity_tokens_, block_size_));
  }
  return added;
}

int64_t PrefixCache::Evict(int64_t blocks) {
  const size_t nodes_before = num_nodes_;
  int64_t freed = 0;
  if (policy_ == EvictionPolicy::kColdSubtree) {
    freed = EvictColdSubtrees(blocks);
  }
  if (freed < blocks) {
    // kLruLeaf, and the cold pass's fallback: whatever cold subtrees could
    // not satisfy (hot tree, or every cold candidate already gone) reclaims
    // exactly the way the seed policy would.
    freed += EvictLruLeaves(blocks - freed);
  }
  if (num_nodes_ < nodes_before) {
    ++eviction_stats_.rounds;
    eviction_stats_.victims +=
        static_cast<int64_t>(nodes_before - num_nodes_);
    eviction_stats_.freed_blocks += freed;
  }
  return freed;
}

int64_t PrefixCache::EvictLruLeaves(int64_t blocks) {
  int64_t freed = 0;
  std::vector<SlabId>& stack = evict_stack_;
  while (freed < blocks) {
    // LRU leaf scan. The slab keeps nodes contiguous, so the scan streams
    // through a few cache lines per chunk; trees here hold a few thousand
    // nodes at most (micro-benchmarked in bench/).
    SlabId victim = kNilSlabId;
    SimTime oldest = std::numeric_limits<SimTime>::max();
    stack.clear();
    stack.push_back(root_);
    while (!stack.empty()) {
      SlabId id = stack.back();
      stack.pop_back();
      const Node& n = node(id);
      for (const auto& [token, child] : n.children) {
        (void)token;
        stack.push_back(child);
      }
      if (id != root_ && n.children.empty() && n.ref_count == 0 &&
          n.last_access < oldest) {
        oldest = n.last_access;
        victim = id;
      }
    }
    if (victim == kNilSlabId) {
      break;  // Everything evictable is gone (rest is pinned or interior).
    }
    freed += RemoveLeaf(victim);
  }
  return freed;
}

int64_t PrefixCache::EvictColdSubtrees(int64_t blocks) {
  // Collect the *maximal* cold subtree roots: scan from the root and stop
  // descending at the first candidate — its descendants are covered by it.
  // Unpinned is guaranteed subtree-wide by ref_count == 0 at the root (a
  // pin covers a root path, so a pinned descendant would pin the root too).
  cold_candidates_.clear();
  std::vector<SlabId>& stack = evict_stack_;
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    SlabId id = stack.back();
    stack.pop_back();
    const Node& n = node(id);
    if (id != root_ && n.ref_count == 0 &&
        n.sub_last_access + kColdSubtreeAgeUs <= newest_access_) {
      // Pages reclaimed per expected future hit: a big subtree nobody hits
      // anymore scores highest; a small but historically hot one scores
      // lowest. sub_blocks over-counts shared straddle pages, which is the
      // right bias — straddle-heavy subtrees free fewer pages per node.
      const double expected_hits =
          static_cast<double>(DecayedHits(n, newest_access_));
      cold_candidates_.push_back(ColdCandidate{
          static_cast<double>(n.sub_blocks) / (1.0 + expected_hits),
          n.sub_last_access, id});
      continue;
    }
    for (const auto& [token, child] : n.children) {
      (void)token;
      stack.push_back(child);
    }
  }
  std::sort(cold_candidates_.begin(), cold_candidates_.end(),
            [](const ColdCandidate& a, const ColdCandidate& b) {
              if (a.score != b.score) {
                return a.score > b.score;
              }
              if (a.sub_last_access != b.sub_last_access) {
                return a.sub_last_access < b.sub_last_access;
              }
              return a.id < b.id;  // Total order: determinism under ties.
            });
  int64_t freed = 0;
  for (const ColdCandidate& c : cold_candidates_) {
    if (freed >= blocks) {
      break;
    }
    freed += RemoveSubtree(c.id);
  }
  return freed;
}

int64_t PrefixCache::RemoveLeaf(SlabId leaf) {
  Node& n = node(leaf);
  assert(n.children.empty() && n.ref_count == 0);
  size_tokens_ -= static_cast<int64_t>(n.edge.size());
  --num_nodes_;
  dup_heads_ -= n.dup_head ? 1 : 0;
  node(n.parent).children.Erase(n.edge.front());
  if (maintain_aggregates_) {
    PropagateSubBlocks(leaf, -static_cast<int64_t>(n.blocks.size()));
  }
  pool_.Release(n.edge);
  // Release the victim's page references. Pages straddling into the parent
  // (or still referenced by a running sequence's table) survive in the
  // allocator until their last holder lets go — the return value counts
  // only what actually hit the free list.
  const int64_t freed = alloc_->ReleaseSpan(
      n.blocks.data, static_cast<int64_t>(n.blocks.size()));
  block_refs_ -= static_cast<int64_t>(n.blocks.size());
  block_pool_.Release(n.blocks);
  n.blocks = BlockSlice{};
  n.edge = TokenSlice{};
  n.parent = kNilSlabId;
  n.last_access = 0;
  n.dup_head = false;
  n.sub_blocks = 0;  // Recycled slab nodes must not leak stale aggregates.
  n.sub_hits = 0.0f;
  n.sub_last_access = 0;
  n.sub_hit_stamp = 0;
  nodes_.Free(leaf);  // children map already empty; its capacity is kept.
  return freed;
}

int64_t PrefixCache::RemoveSubtree(SlabId id) {
  Node& top = node(id);
  assert(top.ref_count == 0);
  node(top.parent).children.Erase(top.edge.front());
  PropagateSubBlocks(id, -static_cast<int64_t>(top.sub_blocks));
  // evict_stack_ is the caller's candidate scan; use the second stack here.
  int64_t freed = 0;
  scan_stack_.clear();
  scan_stack_.push_back(id);
  while (!scan_stack_.empty()) {
    SlabId cur = scan_stack_.back();
    scan_stack_.pop_back();
    Node& n = node(cur);
    for (const auto& [token, child] : n.children) {
      (void)token;
      scan_stack_.push_back(child);
    }
    size_tokens_ -= static_cast<int64_t>(n.edge.size());
    --num_nodes_;
    dup_heads_ -= n.dup_head ? 1 : 0;
    pool_.Release(n.edge);
    freed += alloc_->ReleaseSpan(n.blocks.data,
                                 static_cast<int64_t>(n.blocks.size()));
    block_refs_ -= static_cast<int64_t>(n.blocks.size());
    block_pool_.Release(n.blocks);
    n.blocks = BlockSlice{};
    n.edge = TokenSlice{};
    n.parent = kNilSlabId;
    n.last_access = 0;
    n.dup_head = false;
    n.children.Clear();
    n.sub_blocks = 0;
    n.sub_hits = 0.0f;
    n.sub_last_access = 0;
    n.sub_hit_stamp = 0;
    nodes_.Free(cur);
  }
  return freed;
}

float PrefixCache::DecayedHits(const Node& n, SimTime now) {
  if (n.sub_hits == 0.0f || now <= n.sub_hit_stamp) {
    return n.sub_hits;
  }
  // Whole half-lives only: ldexp is an exact power-of-two scaling, so the
  // decayed value — and every score derived from it — is bit-identical on
  // every platform (no libm exp/pow in any golden-visible path).
  const int64_t halvings =
      (now - n.sub_hit_stamp) / kColdSubtreeHitHalfLifeUs;
  if (halvings == 0) {
    return n.sub_hits;
  }
  if (halvings > 127) {
    return 0.0f;
  }
  return std::ldexp(n.sub_hits, -static_cast<int>(halvings));
}

void PrefixCache::PropagateSubBlocks(SlabId id, int64_t delta) {
  for (SlabId cur = node(id).parent; cur != kNilSlabId;
       cur = node(cur).parent) {
    node(cur).sub_blocks += static_cast<int32_t>(delta);
  }
}

void PrefixCache::TouchAggregates(Node& n, SimTime now) {
  n.sub_hits = DecayedHits(n, now) + 1.0f;
  n.sub_hit_stamp = now;
  if (now > n.sub_last_access) {
    n.sub_last_access = now;
  }
}

void PrefixCache::Clear() {
  // Evict everything evictable; pinned paths survive.
  Evict(std::numeric_limits<int64_t>::max());
}

std::pair<int64_t, int64_t> PrefixCache::PinnedSlow() const {
  // Edge lengths and distinct pages of nodes with ref_count > 0.
  int64_t tokens = 0;
  int64_t blocks = 0;
  std::vector<SlabId> stack{root_};
  while (!stack.empty()) {
    const Node& n = node(stack.back());
    stack.pop_back();
    for (const auto& [token, child] : n.children) {
      (void)token;
      stack.push_back(child);
    }
    if (n.ref_count > 0) {
      tokens += static_cast<int64_t>(n.edge.size());
      blocks += static_cast<int64_t>(n.blocks.size()) - (n.dup_head ? 1 : 0);
    }
  }
  return {tokens, blocks};
}

bool PrefixCache::AncestorHolds(SlabId from, int64_t page, BlockId b) const {
  for (SlabId id = from; id != root_; id = node(id).parent) {
    const Node& n = node(id);
    if (PageCeil(n.start + static_cast<int64_t>(n.edge.size()),
                 block_size_) <= page) {
      return false;  // Ends before the page, and so does every ancestor.
    }
    const int64_t lo = PageFloor(n.start, block_size_);
    if (lo <= page && n.blocks[static_cast<size_t>(page - lo)] == b) {
      return true;
    }
  }
  return false;
}

PrefixCache::BlockOccupancy PrefixCache::CountBlocks() const {
  BlockOccupancy occ;
  occ.held_blocks = block_refs_ - dup_heads_;
  occ.evictable_blocks = occ.held_blocks - pinned_blocks_;
  return occ;
}

PrefixCache::BlockOccupancy PrefixCache::CountBlocksByTraversal() const {
  // Per held page: its references from unpinned nodes.
  std::unordered_map<BlockId, int32_t> unpinned_refs;
  std::vector<SlabId> stack{root_};
  while (!stack.empty()) {
    const SlabId id = stack.back();
    stack.pop_back();
    const Node& n = node(id);
    for (const auto& [token, child] : n.children) {
      (void)token;
      stack.push_back(child);
    }
    for (size_t i = 0; id != root_ && i < n.blocks.size(); ++i) {
      unpinned_refs[n.blocks[i]] += n.ref_count == 0 ? 1 : 0;
    }
  }
  BlockOccupancy occ;
  occ.held_blocks = static_cast<int64_t>(unpinned_refs.size());
  for (const auto& [b, refs] : unpinned_refs) {
    // A page returns to the free list under full eviction iff every one of
    // its allocator references comes from an unpinned node.
    if (refs == alloc_->ref_count(b)) {
      ++occ.evictable_blocks;
    }
  }
  return occ;
}

bool PrefixCache::CheckInvariants() const {
  int64_t tokens = 0;
  size_t nodes = 0;
  int64_t block_refs = 0;
  int64_t dup_heads = 0;
  bool ok = true;
  // DFS carrying each node's absolute start depth for span-coverage checks.
  std::vector<std::pair<SlabId, int64_t>> stack{{root_, 0}};
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    const Node& n = node(id);
    const int64_t end = depth + static_cast<int64_t>(n.edge.size());
    if (id != root_) {
      tokens += static_cast<int64_t>(n.edge.size());
      ++nodes;
      if (n.edge.empty()) {
        ok = false;  // Non-root nodes must have a non-empty edge.
      }
      // A child's refcount never exceeds its parent's (refcounts are
      // per-pin-coverage and pins cover prefixes).
      if (n.parent != root_ && n.ref_count > node(n.parent).ref_count) {
        ok = false;
      }
      // The page span covers exactly the edge's path positions, and every
      // page in it is live in the allocator.
      const int64_t want =
          PageCeil(end, block_size_) - PageFloor(depth, block_size_);
      if (static_cast<int64_t>(n.blocks.size()) != want) {
        ok = false;
      }
      block_refs += static_cast<int64_t>(n.blocks.size());
      for (size_t i = 0; i < n.blocks.size(); ++i) {
        if (alloc_->ref_count(n.blocks[i]) <= 0) {
          ok = false;
        }
      }
      // The stored start and duplicate-head flag match the tree.
      const bool dup =
          depth % block_size_ != 0 &&
          AncestorHolds(n.parent, PageFloor(depth, block_size_), n.blocks[0]);
      if (n.start != depth || n.dup_head != dup) {
        ok = false;
      }
      dup_heads += dup ? 1 : 0;
    }
    for (const auto& [token, child] : n.children) {
      const Node& c = node(child);
      if (c.edge.empty() || c.edge.front() != token || c.parent != id) {
        ok = false;
      }
      stack.emplace_back(child, end);
    }
  }
  if (tokens != size_tokens_ || nodes != num_nodes_ ||
      block_refs != block_refs_ || dup_heads != dup_heads_) {
    ok = false;
  }
  // The incremental pinned counters and the O(1) occupancy must match the
  // tree's truth. The occupancy comparison is also where CountBlocks()'s
  // precondition is enforced: a page a live sequence shares with an
  // unpinned node makes the traversal's evictable count smaller.
  if (PinnedSlow() != std::make_pair(pinned_tokens_, pinned_blocks_)) {
    ok = false;
  }
  const BlockOccupancy occ = CountBlocks();
  const BlockOccupancy truth = CountBlocksByTraversal();
  if (occ.held_blocks != truth.held_blocks ||
      occ.evictable_blocks != truth.evictable_blocks) {
    ok = false;
  }
  // Arena accounting: every tree node is live in the slab (plus the root),
  // every non-root node holds exactly one token-pool reference and one
  // block-pool reference.
  if (nodes_.live() != num_nodes_ + 1 ||
      pool_.live_refs() != static_cast<int64_t>(num_nodes_) ||
      block_pool_.live_refs() != static_cast<int64_t>(num_nodes_)) {
    ok = false;
  }
  if (ok && maintain_aggregates_) {
    // Aggregate soundness, bottom-up: sub_blocks is the exact span-reference
    // total of the subtree; sub_last_access is an upper bound that must
    // cover the subtree's true newest access (folding the computed true
    // max, not the child's own bound, keeps the check tight).
    std::unordered_map<SlabId, std::pair<int64_t, SimTime>> agg;
    std::vector<std::pair<SlabId, bool>> po;
    po.emplace_back(root_, false);
    while (!po.empty()) {
      const auto [id, visited] = po.back();
      const Node& n = node(id);
      if (!visited) {
        po.back().second = true;
        agg[id] = {static_cast<int64_t>(n.blocks.size()), n.last_access};
        for (const auto& [token, child] : n.children) {
          (void)token;
          po.emplace_back(child, false);
        }
        continue;
      }
      po.pop_back();
      const auto [sub_blocks, max_access] = agg[id];
      // The root's access aggregate is newest_access_ itself (walks touch
      // only path children), and the root is never an eviction candidate,
      // so the bound is only required below it.
      if (sub_blocks != n.sub_blocks ||
          (id != root_ && n.sub_last_access < max_access)) {
        ok = false;
      }
      if (id == root_ && newest_access_ < max_access) {
        ok = false;  // The coldness clock must cover every real access.
      }
      if (id != root_) {
        auto& parent_agg = agg[n.parent];
        parent_agg.first += sub_blocks;
        parent_agg.second = std::max(parent_agg.second, max_access);
      }
    }
  }
  return ok;
}

}  // namespace skywalker

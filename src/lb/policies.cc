#include "src/lb/policies.h"

#include <limits>

#include "src/common/hash.h"

namespace skywalker {

namespace {

// Token capacity of the SGL policy's routing trie.
constexpr int64_t kSglTrieCapacityTokens = 4'000'000;

// SGL cache-aware threshold: route by prefix only when the best match
// covers at least this fraction of the prompt.
constexpr double kSglMatchThreshold = 0.5;

// SGL fallback bookkeeping: once a worker's approximate tree-size estimate
// exceeds this (≈ its KV budget), all estimates decay, mirroring worker
// eviction.
constexpr int64_t kSglTreeDecayTokens = 49152;

}  // namespace

ReplicaId RoundRobinSelector::SelectReplica(const Queued& /*queued*/,
                                            const DispatchEngine& engine) {
  const size_t n = engine.num_replicas();
  if (n == 0) {
    return kInvalidReplica;
  }
  // Walk the replica registry starting at next_, skipping unavailable.
  for (size_t i = 0; i < n; ++i) {
    size_t idx = (next_ + i) % n;
    const ReplicaState& state = engine.replicas()[idx];
    if (engine.IsAvailable(state)) {
      next_ = idx + 1;
      return state.replica->id();
    }
  }
  return kInvalidReplica;
}

ReplicaId LeastLoadSelector::SelectReplica(const Queued& /*queued*/,
                                           const DispatchEngine& engine) {
  return engine.LeastLoadedAvailable();
}

void ConsistentHashSelector::OnReplicaAttached(Replica* replica) {
  ring_.AddTarget(replica->id());
}

void ConsistentHashSelector::OnReplicaDetached(ReplicaId replica_id) {
  ring_.RemoveTarget(replica_id);
}

ReplicaId ConsistentHashSelector::SelectReplica(const Queued& queued,
                                               const DispatchEngine& engine) {
  uint64_t key = HashString(queued.req.routing_key);
  TargetId target = ring_.LookupAvailable(
      key, [&engine](TargetId id) { return engine.IsAvailable(id); });
  return target == kInvalidTarget ? kInvalidReplica : target;
}

SglRouterSelector::SglRouterSelector() : trie_(kSglTrieCapacityTokens) {}

void SglRouterSelector::OnReplicaDetached(ReplicaId replica_id) {
  trie_.RemoveTarget(replica_id);
  approx_tree_tokens_.erase(replica_id);
}

ReplicaId SglRouterSelector::SelectReplica(const Queued& queued,
                                           const DispatchEngine& engine) {
  auto pred = [&engine](TargetId id) { return engine.IsAvailable(id); };
  RoutingTrie::Match match = trie_.MatchBest(queued.req.prompt, pred);

  ReplicaId chosen = kInvalidReplica;
  double ratio =
      queued.req.prompt.empty()
          ? 0.0
          : static_cast<double>(match.match_len) /
                static_cast<double>(queued.req.prompt.size());
  if (ratio >= kSglMatchThreshold && !match.candidates.empty()) {
    chosen = match.candidates.front();  // Freshest cache wins.
  } else {
    // Cache-aware fallback (SGLang v0.4): the available worker with the
    // smallest approximate radix tree, i.e. the most free cache space.
    int64_t best_tokens = std::numeric_limits<int64_t>::max();
    for (const ReplicaState& state : engine.replicas()) {
      if (!engine.IsAvailable(state)) {
        continue;
      }
      ReplicaId rid = state.replica->id();
      auto it = approx_tree_tokens_.find(rid);
      int64_t tokens = it == approx_tree_tokens_.end() ? 0 : it->second;
      if (tokens < best_tokens) {
        chosen = rid;
        best_tokens = tokens;
      }
    }
  }
  if (chosen != kInvalidReplica) {
    trie_.Insert(queued.req.prompt, chosen);
    approx_tree_tokens_[chosen] +=
        static_cast<int64_t>(queued.req.prompt.size()) - match.match_len;
    // Mimic the router-side mirror of worker eviction: decay everyone once
    // any estimate crosses the per-worker KV budget.
    if (approx_tree_tokens_[chosen] > kSglTreeDecayTokens) {
      for (auto& [rid, tokens] : approx_tree_tokens_) {
        tokens /= 2;
      }
    }
  }
  return chosen;
}

}  // namespace skywalker

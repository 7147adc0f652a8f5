// Token vocabulary shared by the replica KV cache, routing tries, and
// workload generators. The simulator never materializes text; requests carry
// token-id sequences directly, which is all that prefix matching needs.

#ifndef SKYWALKER_CACHE_TOKENS_H_
#define SKYWALKER_CACHE_TOKENS_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/hash.h"

namespace skywalker {

using Token = int32_t;
using TokenSeq = std::vector<Token>;

// Fresh-token band of a per-client generator fork (fleet runs). Tokens are
// 32 bits wide, so forks take the negative half, which base generators
// never touch: client i owns [-(i + 1) * kForkTokenBand, -i * kForkTokenBand)
// for i < kMaxForkClients.
constexpr int64_t kForkTokenBand = int64_t{1} << 20;
constexpr uint64_t kMaxForkClients = uint64_t{1} << 11;

// Length of the common prefix of a[0..n) and b[0..n). The radix walk's
// innermost loop: long edges take one SIMD memcmp (full equality is the hot
// case — walking through an interior node), short edges stay scalar because
// the memcmp call overhead would dominate a 1–2 token compare.
inline size_t CommonPrefixLenRaw(const Token* a, const Token* b, size_t n) {
  if (n >= 16) {
    if (std::memcmp(a, b, n * sizeof(Token)) == 0) {
      return n;
    }
    // A mismatch exists strictly before n; scan unbounded to it.
    size_t i = 0;
    while (a[i] == b[i]) {
      ++i;
    }
    return i;
  }
  size_t i = 0;
  while (i < n && a[i] == b[i]) {
    ++i;
  }
  return i;
}

// Length of the longest common prefix of two sequences.
inline size_t CommonPrefixLen(const TokenSeq& a, const TokenSeq& b) {
  return CommonPrefixLenRaw(a.data(), b.data(), std::min(a.size(), b.size()));
}

// Prefix similarity as defined in §3.2 of the paper:
// len(common_prefix(a,b)) / min(len(a), len(b)). 1.0 when one sequence is a
// prefix of the other; 0 when either is empty.
inline double PrefixSimilarity(const TokenSeq& a, const TokenSeq& b) {
  size_t n = std::min(a.size(), b.size());
  if (n == 0) {
    return 0.0;
  }
  return static_cast<double>(CommonPrefixLen(a, b)) / static_cast<double>(n);
}

// Order-dependent 64-bit fingerprint of a token sequence.
inline uint64_t HashTokens(const TokenSeq& seq) {
  return HashBytes(seq.data(), seq.size() * sizeof(Token));
}

}  // namespace skywalker

#endif  // SKYWALKER_CACHE_TOKENS_H_

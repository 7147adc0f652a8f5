// 64-bit hashing utilities used by the consistent-hash ring and token
// sequence fingerprinting. Not cryptographic.

#ifndef SKYWALKER_COMMON_HASH_H_
#define SKYWALKER_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace skywalker {

// Strong 64-bit integer mixer (splitmix64 finalizer). Good avalanche; used to
// place virtual nodes on the hash ring.
constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// FNV-1a over bytes with a 64-bit mixing finalizer.
uint64_t HashBytes(const void* data, size_t len, uint64_t seed = 0);

inline uint64_t HashString(std::string_view s, uint64_t seed = 0) {
  return HashBytes(s.data(), s.size(), seed);
}

}  // namespace skywalker

#endif  // SKYWALKER_COMMON_HASH_H_

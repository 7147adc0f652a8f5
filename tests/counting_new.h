// Global operator new/delete replacement that counts allocations, for the
// steady-state allocation regression tests. Include it from exactly one
// translation unit per test binary: it *defines* the replaceable allocation
// functions, which the standard forbids declaring inline.
//
// Every replaceable form is defined — plain, array, aligned, sized, sized
// aligned and nothrow — and all of them allocate with malloc/aligned_alloc
// and release with free. A form left out falls back to the runtime's own
// definition, whose allocations ASan then sees released through this file's
// free (or the reverse) and reports as alloc-dealloc-mismatch; std::
// stable_sort's temporary buffer, for one, uses the nothrow form.
//
// Every form routes through the two counting forms (plain and aligned), so
// each allocation counts once. Counters are only asserted inside windows a
// test controls, so gtest's own allocations don't interfere.

#ifndef SKYWALKER_TESTS_COUNTING_NEW_H_
#define SKYWALKER_TESTS_COUNTING_NEW_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

// GCC's inliner pierces the replaced operators and then flags the
// malloc/free pairing inside them as mismatched new/delete — a false
// positive for allocation-function replacements, which the standard requires
// to be callable this way. Keep them out of line and mute the warning.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#define SKYWALKER_NOINLINE __attribute__((noinline))
#else
#define SKYWALKER_NOINLINE
#endif

namespace skywalker {

inline std::atomic<long long> g_news{0};

// Allocations so far through any form of operator new.
inline long long NewCount() { return g_news.load(std::memory_order_relaxed); }

}  // namespace skywalker

// --- counting forms -------------------------------------------------------

SKYWALKER_NOINLINE void* operator new(std::size_t size) {
  skywalker::g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
SKYWALKER_NOINLINE void* operator new(std::size_t size,
                                      std::align_val_t align) {
  skywalker::g_news.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(alignment,
                               (size + alignment - 1) & ~(alignment - 1));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

// --- forms that forward to the counting ones ------------------------------

SKYWALKER_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}
SKYWALKER_NOINLINE void* operator new[](std::size_t size,
                                        std::align_val_t align) {
  return ::operator new(size, align);
}
SKYWALKER_NOINLINE void* operator new(std::size_t size,
                                      const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (...) {
    return nullptr;
  }
}
SKYWALKER_NOINLINE void* operator new[](std::size_t size,
                                        const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
SKYWALKER_NOINLINE void* operator new(std::size_t size, std::align_val_t align,
                                      const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size, align);
  } catch (...) {
    return nullptr;
  }
}
SKYWALKER_NOINLINE void* operator new[](std::size_t size,
                                        std::align_val_t align,
                                        const std::nothrow_t&) noexcept {
  return ::operator new(size, align, std::nothrow);
}

// --- every delete form releases with free ---------------------------------

SKYWALKER_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
SKYWALKER_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
SKYWALKER_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
SKYWALKER_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
SKYWALKER_NOINLINE void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
SKYWALKER_NOINLINE void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
SKYWALKER_NOINLINE void operator delete(void* p, std::size_t,
                                        std::align_val_t) noexcept {
  std::free(p);
}
SKYWALKER_NOINLINE void operator delete[](void* p, std::size_t,
                                          std::align_val_t) noexcept {
  std::free(p);
}
SKYWALKER_NOINLINE void operator delete(void* p,
                                        const std::nothrow_t&) noexcept {
  std::free(p);
}
SKYWALKER_NOINLINE void operator delete[](void* p,
                                          const std::nothrow_t&) noexcept {
  std::free(p);
}
SKYWALKER_NOINLINE void operator delete(void* p, std::align_val_t,
                                        const std::nothrow_t&) noexcept {
  std::free(p);
}
SKYWALKER_NOINLINE void operator delete[](void* p, std::align_val_t,
                                          const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // SKYWALKER_TESTS_COUNTING_NEW_H_

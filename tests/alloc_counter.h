// Counting replacements for the global allocation functions, shared by the
// allocation-guard tests. Every allocation in the process bumps the
// counter; tests read News() around the code under test only.
//
// The replacements are ordinary (non-inline) definitions, as the language
// requires: include this header from exactly one translation unit of a
// test binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace iotsec {

inline std::atomic<std::uint64_t> g_news{0};

/// Allocations so far, process-wide.
inline std::uint64_t News() { return g_news.load(std::memory_order_relaxed); }

}  // namespace iotsec

// Out of line (like the operator delete below), so GCC's
// -Wmismatched-new-delete never sees a malloc() or free() inlined against
// the other half of a new/delete pair and misreports a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  iotsec::g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  iotsec::g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

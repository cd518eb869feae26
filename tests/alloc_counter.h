// Heap-allocation counting for tests. Including this header replaces the
// global operator new of the test binary with one that counts the calls made
// on the current thread while allocations_of() has the counter armed; every
// other allocation passes straight through to malloc. Include it from one
// translation unit per binary (each test binary here is one file).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace snappix::fixtures {

inline thread_local bool g_count_allocations = false;
inline thread_local std::uint64_t g_allocations = 0;

// Heap allocations fn() makes on the calling thread.
template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  g_allocations = 0;
  g_count_allocations = true;
  fn();
  g_count_allocations = false;
  return g_allocations;
}

// A returned tensor costs 4 allocations: its values, the Shape passed in,
// the TensorImpl and the Shape copied into it.
constexpr std::uint64_t kTensorAllocations = 4;

}  // namespace snappix::fixtures

// Counts on the calling thread while armed. The nothrow, array and sized
// forms route through these in libstdc++. gcc's mismatched-new-delete check
// flags the free() below wherever it inlines a delete; malloc/free is the
// pair this replacement defines.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (snappix::fixtures::g_count_allocations) {
    ++snappix::fixtures::g_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

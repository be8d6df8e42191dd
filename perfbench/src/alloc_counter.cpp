// Operator-new counters (the bench_simulator idiom): every heap
// allocation the benchmark process makes — the engine's included, since
// the libraries are linked in — bumps one relaxed atomic and a
// thread-local count.  Timed calls read them before and after.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "metrics.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
thread_local std::uint64_t t_heap_allocations = 0;
}  // namespace

namespace perfbench {
std::uint64_t heap_allocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}
std::uint64_t thread_heap_allocations() { return t_heap_allocations; }
}  // namespace perfbench

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  ++t_heap_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

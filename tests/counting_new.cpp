// A counting global operator new for test_steady_state_alloc, the only
// binary it is linked into. Every allocation bumps g_allocations. It sits
// in a translation unit of its own so the compiler never sees these
// replacements and their callers together.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

std::atomic<std::uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

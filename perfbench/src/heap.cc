// Heap accounting of the benchmark program: replaces the global operator new
// and delete (every form) so the bytes live on the C++ heap and their
// high-water mark are known at any time. The library is linked into the same
// program, so its allocations are counted too. A block counts its usable
// size (malloc_usable_size), on which allocation and release agree.

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common.h"

namespace perfbench {

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* Allocate(std::size_t size, std::size_t align) noexcept {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p == nullptr) return nullptr;
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* AllocateOrThrow(std::size_t size, std::size_t align) {
  void* p = Allocate(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);
constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace

void PeakHeap::Start() {
  baseline_ = g_live.load(std::memory_order_relaxed);
  g_peak.store(baseline_, std::memory_order_relaxed);
}

double PeakHeap::Stop() const {
  return static_cast<double>(g_peak.load(std::memory_order_relaxed) -
                             baseline_) /
         kMiB;
}

}  // namespace perfbench

using perfbench::Allocate;
using perfbench::AllocateOrThrow;
using perfbench::kDefaultAlign;
using perfbench::Release;

void* operator new(std::size_t n) { return AllocateOrThrow(n, kDefaultAlign); }
void* operator new[](std::size_t n) {
  return AllocateOrThrow(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}

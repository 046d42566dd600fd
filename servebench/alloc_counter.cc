#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace servebench {
namespace {
thread_local uint64_t t_allocations = 0;

void* Allocate(std::size_t size) {
  ++t_allocations;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  if (size == 0) size = 1;
  void* p = nullptr;
  if (::posix_memalign(&p, static_cast<std::size_t>(align), size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

uint64_t ThreadAllocations() { return t_allocations; }

}  // namespace servebench

void* operator new(std::size_t size) { return servebench::Allocate(size); }
void* operator new[](std::size_t size) { return servebench::Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return servebench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return servebench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return servebench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return servebench::AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// 64-byte-aligned storage for the SoA numerical core.
//
// The CSR arrays (row pointers, column indices, values) and the assembly
// arena's chunks are held on cache-line-aligned bases. Alignment is a
// performance property only: a plain std::vector would still be correct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

namespace rascad::linalg {

inline constexpr std::size_t kSimdAlignment = 64;

template <typename T, std::size_t Alignment = kSimdAlignment>
struct AlignedAllocator {
  using value_type = T;

  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");
  static_assert(Alignment >= alignof(T), "alignment must satisfy the type");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    const std::size_t bytes = n * sizeof(T);
    void* p = ::operator new(bytes, std::align_val_t{Alignment});
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// True iff `p` sits on a `kSimdAlignment` boundary (used by tests).
inline bool is_simd_aligned(const void* p) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) % kSimdAlignment) == 0;
}

}  // namespace rascad::linalg

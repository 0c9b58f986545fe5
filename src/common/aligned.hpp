// Cache-line / SIMD aligned storage for hot kernels.
//
// The tensor-product element kernels (§III-D) vectorize over elements; aligned
// buffers let the compiler emit aligned AVX loads for the element work arrays.
#pragma once

#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

// Lane-vectorization pragma for the cross-element batched kernels: applied to
// the innermost loop over the batch lane index so each arithmetic statement
// becomes one W-wide vector instruction. Falls back to a plain loop when
// OpenMP is disabled (the loops are trivially countable, so compilers usually
// auto-vectorize them anyway).
#ifdef _OPENMP
#define PT_SIMD _Pragma("omp simd")
#else
#define PT_SIMD
#endif

namespace ptatin {

inline constexpr std::size_t kSimdAlign = 64;

/// The one cross-element batch width (SIMD lanes per batch), which every
/// solver-stack viscous apply runs at (StokesSolverOptions defaults its
/// kernel to it). W doubles are gathered into SoA lane buffers (value index
/// major, lane minor) so the 1-D tensor contractions vectorize across
/// elements; 8 lanes fill one AVX-512 register (one cache line) of doubles.
/// Batching never changes a result, so this is a constant, not an option:
/// W = 8 beat W = 4 on every host measured (docs/KERNELS.md).
inline constexpr int kSolverBatchWidth = 8;

/// Minimal aligned allocator for std::vector-backed kernel buffers.
template <class T, std::size_t Align = kSimdAlign>
struct AlignedAllocator {
  using value_type = T;

  // The non-type Align parameter defeats allocator_traits' automatic rebind;
  // supply it explicitly.
  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new(n * sizeof(T), std::align_val_t(Align));
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  /// A value-less resize default-initializes: arithmetic entries are left
  /// unwritten, so a parallel pass can be their first touch (Vector::
  /// set_scaled). Every constructor or resize that passes a value still
  /// writes it.
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <class U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
};

template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

} // namespace ptatin

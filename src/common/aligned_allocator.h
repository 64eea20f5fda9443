// CacheLineAllocator: a std::allocator whose blocks start on a 64-byte
// cache-line boundary. FingerprintStore allocates its word arena with
// it, so that a row of a multiple of 8 words covers whole cache lines
// and a 64-byte kernel load never straddles two of them.

#ifndef GF_COMMON_ALIGNED_ALLOCATOR_H_
#define GF_COMMON_ALIGNED_ALLOCATOR_H_

#include <cstddef>
#include <limits>
#include <new>

namespace gf {

inline constexpr std::size_t kCacheLineBytes = 64;

template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
};

}  // namespace gf

#endif  // GF_COMMON_ALIGNED_ALLOCATOR_H_

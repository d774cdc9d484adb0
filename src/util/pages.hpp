// Memory the OS zero-fills page by page on first touch.
//
// ZeroPages is an anonymous private mapping. Making one writes nothing,
// so a buffer sized for the worst case faults in, and keeps resident,
// only the pages a program touches. grow() extends the mapping in place
// (mremap), so the bytes already written are never copied and the new
// tail reads as zero (a ThreadSanitizer build copies instead: pages.cpp
// says why). FastCpu's simulated memory (sim/fast_cpu.hpp) and
// OneStreamSink's kept stream (trace/stream.hpp) live in one.
#pragma once

#include <cstddef>

namespace stcache {

class ZeroPages {
 public:
  ZeroPages() = default;
  // `bytes` of zeros; none is faulted in yet. Throws std::bad_alloc.
  explicit ZeroPages(std::size_t bytes);
  ZeroPages(ZeroPages&& other) noexcept;
  ZeroPages& operator=(ZeroPages&& other) noexcept;
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;
  ~ZeroPages();

  // The first byte as a T* (nullptr while empty).
  template <class T = std::byte>
  T* data() const {
    return static_cast<T*>(data_);
  }
  std::size_t size() const { return bytes_; }  // in bytes

  // Extend to `bytes` (>= size()), keeping the contents. The address may
  // change. Throws std::bad_alloc.
  void grow(std::size_t bytes);

 private:
  void* data_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace stcache

#include "util/pages.hpp"

#include <sys/mman.h>

#include <cstring>
#include <new>
#include <utility>

namespace stcache {

ZeroPages::ZeroPages(std::size_t bytes) {
  if (bytes == 0) return;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = p;
  bytes_ = bytes;
}

ZeroPages::ZeroPages(ZeroPages&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)) {}

ZeroPages& ZeroPages::operator=(ZeroPages&& other) noexcept {
  if (this != &other) {
    if (data_) ::munmap(data_, bytes_);
    data_ = std::exchange(other.data_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

ZeroPages::~ZeroPages() {
  if (data_) ::munmap(data_, bytes_);
}

void ZeroPages::grow(std::size_t bytes) {
  if (bytes <= bytes_) return;
#if defined(__SANITIZE_THREAD__)
  // ThreadSanitizer does not intercept mremap: a moved range would keep the
  // accesses of the thread that last used those addresses, and this
  // thread's writes would read as races with them. Under it, grow by a
  // fresh mapping and a copy, which it sees.
  ZeroPages bigger(bytes);
  if (data_) std::memcpy(bigger.data_, data_, bytes_);
  *this = std::move(bigger);
#else
  if (!data_) {
    *this = ZeroPages(bytes);
    return;
  }
  // The kernel moves the page tables, not the pages: nothing is copied.
  void* p = ::mremap(data_, bytes_, bytes, MREMAP_MAYMOVE);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = p;
  bytes_ = bytes;
#endif
}

}  // namespace stcache

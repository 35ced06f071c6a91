#ifndef ITSPQ_COMMON_SPAN_H_
#define ITSPQ_COMMON_SPAN_H_

// A read-only view of a contiguous run of elements: how a flat
// offsets + pool store hands out one list without copying it. Valid
// while the store lives unmodified.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace itspq {

template <typename T>
class Span {
 public:
  using const_iterator = const T*;

  Span(const T* data, size_t size) : data_(data), size_(size) {}
  Span(const std::vector<T>& v) : data_(v.data()), size_(v.size()) {}

  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }

  friend bool operator==(Span a, Span b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const T* data_;
  size_t size_;
};

/// List `i` of the CSR `offsets` + `pool`:
/// pool[offsets[i] .. offsets[i + 1]).
template <typename T, typename Offset>
Span<T> CsrList(const std::vector<Offset>& offsets, const std::vector<T>& pool,
                size_t i) {
  return {pool.data() + offsets[i], offsets[i + 1] - offsets[i]};
}

}  // namespace itspq

#endif  // ITSPQ_COMMON_SPAN_H_

#ifndef ITSPQ_COMMON_BYTE_CODEC_H_
#define ITSPQ_COMMON_BYTE_CODEC_H_

// The one byte codec of the wire frames (net/wire.h) and the `.itspq`
// sections (artifact/format.h): fixed-width values copied in their
// in-memory byte order, which both formats define as little-endian
// (the artifact header's endian tag refuses files from the other).
//
// ByteWriter appends to a string. ByteReader walks a byte range: every
// read either succeeds or trips a sticky fail flag, after which every
// read fails. Nothing reads past the range, and no count taken from the
// bytes allocates more than the bytes that remain could fill.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace itspq {

class ByteWriter {
 public:
  explicit ByteWriter(size_t capacity = 0) { bytes_.reserve(capacity); }

  void Raw(const void* p, size_t n) {
    bytes_.append(static_cast<const char*>(p), n);
  }
  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Raw(&v, sizeof(v));
  }
  /// The elements, back to back, with no count.
  template <typename T>
  void Pod(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Raw(v.data(), v.size() * sizeof(T));
  }
  /// One CSR block: the offsets, widened to u64, then the pool.
  template <typename Offset, typename T>
  void Csr(const std::vector<Offset>& offsets, const std::vector<T>& pool) {
    for (Offset o : offsets) Put(uint64_t{o});
    Pod(pool);
  }
  /// A u32 byte count, then the bytes.
  void String(std::string_view s) {
    Put(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  size_t size() const { return bytes_.size(); }
  const char* data() const { return bytes_.data(); }
  std::string Take() && { return std::move(bytes_); }

 private:
  std::string bytes_;
};

class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool Raw(void* p, size_t n) {
    if (failed_ || n > Remaining()) return Fail();
    if (n == 0) return true;  // an empty vector's data() may be null
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  template <typename T>
  bool Get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Raw(v, sizeof(*v));
  }

  /// True when `count` records of `each` bytes fit in what remains: the
  /// guard before reserving room for a count read from the bytes.
  bool Fits(uint64_t count, size_t each) const {
    return !failed_ && count <= Remaining() / each;
  }

  /// Reads `count` elements written by ByteWriter::Pod.
  template <typename T>
  bool Pod(std::vector<T>* v, uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!Fits(count, sizeof(T))) return Fail();
    v->resize(static_cast<size_t>(count));
    return Raw(v->data(), v->size() * sizeof(T));
  }

  /// CSR offsets for `count` lists: `count + 1` u64s, from 0,
  /// non-decreasing, narrowed to the in-memory `Offset`.
  template <typename Offset>
  bool Offsets(uint64_t count, std::vector<Offset>* offsets) {
    if (failed_ || count >= Remaining() / sizeof(uint64_t)) return Fail();
    offsets->resize(static_cast<size_t>(count) + 1);
    uint64_t last = 0;
    for (Offset& o : *offsets) {
      uint64_t v = 0;
      if (!Get(&v) || v < last || v > std::numeric_limits<Offset>::max()) {
        return Fail();
      }
      o = static_cast<Offset>(last = v);
    }
    return offsets->front() == 0 || Fail();
  }
  /// One CSR block of `count` lists written by ByteWriter::Csr.
  template <typename Offset, typename T>
  bool Csr(uint64_t count, std::vector<Offset>* offsets, std::vector<T>* pool) {
    return Offsets(count, offsets) && Pod(pool, offsets->back());
  }

  /// Reads a string written by ByteWriter::String. False on a count
  /// past `max_bytes` or past what remains.
  bool String(std::string* s, size_t max_bytes) {
    uint32_t n = 0;
    if (!Get(&n) || n > max_bytes || n > Remaining()) return Fail();
    s->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  size_t Remaining() const { return size_ - pos_; }
  bool failed() const { return failed_; }

 private:
  bool Fail() {
    failed_ = true;
    return false;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace itspq

#endif  // ITSPQ_COMMON_BYTE_CODEC_H_

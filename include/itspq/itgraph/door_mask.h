#ifndef ITSPQ_ITGRAPH_DOOR_MASK_H_
#define ITSPQ_ITGRAPH_DOOR_MASK_H_

// A bit-packed open-door set, indexed by DoorId. One bit per door is
// what makes hundreds of shards x hundreds of resident intervals fit a
// serving process's memory budget, and it makes open_door_count one
// popcount per word. The searches probe it one door at a time (Test).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "venue/geometry.h"

namespace itspq {

class DoorMask {
 public:
  DoorMask() = default;

  /// All `num_doors` bits cleared.
  explicit DoorMask(size_t num_doors)
      : num_bits_(num_doors), words_((num_doors + 63) / 64, 0) {}

  bool Test(DoorId d) const {
    const size_t i = static_cast<size_t>(d);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void Set(DoorId d) {
    const size_t i = static_cast<size_t>(d);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  void Reset(DoorId d) {
    const size_t i = static_cast<size_t>(d);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  /// Flips bit `d` and returns its new value — the one-touch primitive
  /// the delta snapshot builder applies per flip-list entry.
  bool Flip(DoorId d) {
    const size_t i = static_cast<size_t>(d);
    words_[i >> 6] ^= uint64_t{1} << (i & 63);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Number of set bits, one popcount per word.
  size_t Count() const {
    size_t total = 0;
    for (uint64_t word : words_) {
#if defined(__GNUC__) || defined(__clang__)
      total += static_cast<size_t>(__builtin_popcountll(word));
#else
      while (word != 0) {
        word &= word - 1;
        ++total;
      }
#endif
    }
    return total;
  }

  /// Calls `fn(DoorId)` for every bit that differs from `other` (same
  /// size required), in ascending door order — one XOR + count-trailing-
  /// zeros sweep per word, which is how BoundaryFlipIndex diffs adjacent
  /// intervals without re-probing ATIs.
  template <typename Fn>
  void ForEachDifference(const DoorMask& other, Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t diff = words_[w] ^ other.words_[w];
      while (diff != 0) {
#if defined(__GNUC__) || defined(__clang__)
        const int bit = __builtin_ctzll(diff);
#else
        int bit = 0;
        while (((diff >> bit) & 1u) == 0) ++bit;
#endif
        fn(static_cast<DoorId>(w * 64 + static_cast<size_t>(bit)));
        diff &= diff - 1;
      }
    }
  }

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  size_t MemoryUsage() const { return words_.capacity() * sizeof(uint64_t); }

  /// Bit-identical comparison — what the eviction-correctness tests
  /// assert after an evicted interval is rebuilt.
  friend bool operator==(const DoorMask& a, const DoorMask& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }
  friend bool operator!=(const DoorMask& a, const DoorMask& b) {
    return !(a == b);
  }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace itspq

#endif  // ITSPQ_ITGRAPH_DOOR_MASK_H_

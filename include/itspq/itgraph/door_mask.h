#ifndef ITSPQ_ITGRAPH_DOOR_MASK_H_
#define ITSPQ_ITGRAPH_DOOR_MASK_H_

// A bit-packed open-door set, indexed by DoorId. One bit per door
// instead of the byte-per-door mask GraphSnapshot used to carry — 8x
// smaller, which is what makes hundreds of shards x hundreds of
// resident intervals fit a serving process's memory budget, and
// popcount-friendly for open_door_count.

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

  /// Calls `fn(k)` for every k in [0, count) whose door ids[k] has its
  /// bit set — the masked-neighbour scan of the relaxation loop.
  /// Partition door lists are ascending and partition door ids are
  /// clustered, so the current 64-bit word is cached across iterations:
  /// one word load per ~64 doors of a partition instead of one per
  /// neighbour.
  template <typename Fn>
  void ForEachSetAmong(const DoorId* ids, size_t count, Fn&& fn) const {
    size_t cached = static_cast<size_t>(-1);
    uint64_t word = 0;
    for (size_t k = 0; k < count; ++k) {
      const auto i = static_cast<size_t>(ids[k]);
      const size_t w = i >> 6;
      if (w != cached) {
        cached = w;
        word = words_[w];
      }
      if ((word >> (i & 63)) & 1u) fn(k);
    }
  }

  /// Calls `fn(DoorId)` for every set bit in [lo, hi), ascending — a
  /// word-wise popcount/ctz sweep that skips empty words entirely
  /// (dense-range companion of ForEachSetAmong; benchmarked against the
  /// per-bit Test loop in BM_MaskedDoorListScan).
  template <typename Fn>
  void ForEachSetInRange(size_t lo, size_t hi, Fn&& fn) const {
    if (hi > num_bits_) hi = num_bits_;
    if (lo >= hi) return;
    for (size_t w = lo >> 6; w <= (hi - 1) >> 6; ++w) {
      uint64_t word = words_[w];
      if (w == lo >> 6) word &= ~uint64_t{0} << (lo & 63);
      if (w == (hi - 1) >> 6 && (hi & 63) != 0) {
        word &= (uint64_t{1} << (hi & 63)) - 1;
      }
      while (word != 0) {
#if defined(__GNUC__) || defined(__clang__)
        const int bit = __builtin_ctzll(word);
#else
        int bit = 0;
        while (((word >> bit) & 1u) == 0) ++bit;
#endif
        fn(static_cast<DoorId>(w * 64 + static_cast<size_t>(bit)));
        word &= word - 1;
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

#ifndef ITSPQ_ITGRAPH_FRONTIER_QUEUE_H_
#define ITSPQ_ITGRAPH_FRONTIER_QUEUE_H_

// The Dijkstra frontier behind every search in the repo, replacing the
// per-call-site std::priority_queue / std::push_heap code.
//
// Three disciplines behind one Push/Pop API:
//
//   kFourAryHeap       — implicit 4-ary min-heap: half a binary heap's
//                        sift-down levels, 4 children per cache line.
//   kBucketQueue       — Dial's algorithm (CACM 1969, Algorithm 360):
//                        an array of buckets of width w indexed by
//                        floor(dist / w), drained low-to-high, each
//                        bucket popped LIFO. O(1) push, amortised
//                        O(span) pop. Exact for Dijkstra only when
//                        every edge weight is >= w, so callers gate it
//                        on the graph's minimum edge weight
//                        (CsrAdjacency::BucketEligible).
//   kSortedBucketQueue — the same buckets, but the drain cursor's
//                        bucket is sorted by (dist, id) once when the
//                        cursor reaches it and popped from its minimum;
//                        a later push into that bucket (floating-point
//                        slack, or a key clamped up to the cursor) is
//                        inserted in order.
//
// Pops from the heap are globally nondecreasing in dist; pops from the
// sorted buckets are the minimum (dist, id) queued, a stronger order
// that also fixes ties. LIFO bucket pops are nondecreasing only at
// bucket granularity (PopsSorted() tells callers which guarantee they
// have, MinBound() gives the early-exit bound that is valid either
// way). Entries are never decrease-keyed: duplicates are pushed and
// stale ones skipped by the caller's settled check.
//
// Push rejects NaN distances (returns false and counts them) instead
// of feeding them to a comparator: NaN breaks the strict weak ordering
// a heap or a sort requires, which silently corrupts the queue — the
// latent HeapEntry hazard this class retires. Rejections are counted
// (rejected_nan()), so the bug is diagnosable in every build type.

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace itspq {

class FrontierQueue {
 public:
  enum class Kind : uint8_t {
    kFourAryHeap,
    kBucketQueue,
    kSortedBucketQueue
  };

  struct Entry {
    double dist;
    uint32_t id;
  };

  /// Bytes one queued entry is accounted as by MemoryTracker callers.
  static constexpr size_t kEntryBytes = sizeof(Entry);

  FrontierQueue() = default;

  /// Starts a new search on the 4-ary heap. Keeps the backing vector's
  /// capacity — contexts reuse one queue across queries.
  void ResetHeap() {
    kind_ = Kind::kFourAryHeap;
    heap_.clear();
    size_ = 0;
    rejected_nan_ = 0;
  }

  /// Starts a new search under a bucket discipline (kBucketQueue or
  /// kSortedBucketQueue) with buckets of `bucket_width` (> 0, finite —
  /// callers gate on BucketEligible). Bucket storage is retained across
  /// searches; only the cursor and occupancy reset.
  void ResetBuckets(double bucket_width, Kind kind = Kind::kBucketQueue) {
    assert(bucket_width > 0 && std::isfinite(bucket_width));
    assert(kind != Kind::kFourAryHeap);
    kind_ = kind;
    width_ = bucket_width;
    inv_width_ = 1.0 / bucket_width;
    cur_bucket_ = 0;
    cur_sorted_ = false;
    if (buckets_.empty()) buckets_.resize(kInitialBuckets);
    ring_mask_ = buckets_.size() - 1;
    for (auto& b : buckets_) b.clear();
    overflow_.clear();
    size_ = 0;
    rejected_nan_ = 0;
  }

  /// Enqueues (dist, id). Returns false — rejecting the entry — when
  /// `dist` is NaN; +inf is accepted (parked in an overflow list under
  /// the bucket disciplines and popped after every finite entry).
  bool Push(double dist, uint32_t id) {
    if (std::isnan(dist)) {
      // Rejected, not asserted: the regression test drives this path in
      // every build type, and a counted rejection is diagnosable where
      // an aborted Debug run is not.
      ++rejected_nan_;
      return false;
    }
    if (kind_ == Kind::kFourAryHeap) {
      heap_.push_back(Entry{dist, id});
      SiftUp(heap_.size() - 1);
    } else if (!std::isfinite(dist)) {
      if (kind_ == Kind::kSortedBucketQueue) {
        InsertSorted(overflow_, Entry{dist, id});
      } else {
        overflow_.push_back(Entry{dist, id});
      }
    } else {
      // floor(dist / w), clamped below to the drain cursor: a push can
      // never land behind it when weights >= width, but floating-point
      // slack gets folded into the current bucket instead of lost.
      uint64_t b = static_cast<uint64_t>(dist * inv_width_);
      if (b < cur_bucket_) b = cur_bucket_;
      if (b - cur_bucket_ >= buckets_.size()) Grow(b);
      // Ring slot by mask: the bucket count is always a power of two
      // (kInitialBuckets, doubled by Grow), and a 64-bit modulo by a
      // runtime divisor costs more than the rest of the push combined.
      std::vector<Entry>& bucket =
          buckets_[static_cast<size_t>(b & ring_mask_)];
      if (cur_sorted_ && b == cur_bucket_) {
        InsertSorted(bucket, Entry{dist, id});
      } else {
        bucket.push_back(Entry{dist, id});
      }
    }
    ++size_;
    return true;
  }

  /// Dequeues the minimum dist (heap), the minimum (dist, id) (sorted
  /// buckets) or the last-pushed entry of the lowest occupied bucket
  /// (LIFO buckets). False when empty.
  bool Pop(double* dist, uint32_t* id) {
    if (size_ == 0) return false;
    --size_;
    if (kind_ == Kind::kFourAryHeap) {
      *dist = heap_[0].dist;
      *id = heap_[0].id;
      heap_[0] = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) SiftDown(0);
      return true;
    }
    const size_t finite = size_ + 1 - overflow_.size();
    if (finite == 0) {
      *dist = overflow_.back().dist;
      *id = overflow_.back().id;
      overflow_.pop_back();
      return true;
    }
    std::vector<Entry>* bucket =
        &buckets_[static_cast<size_t>(cur_bucket_ & ring_mask_)];
    if (bucket->empty()) {
      do {
        ++cur_bucket_;
        bucket = &buckets_[static_cast<size_t>(cur_bucket_ & ring_mask_)];
      } while (bucket->empty());
      cur_sorted_ = false;
    }
    if (kind_ == Kind::kSortedBucketQueue && !cur_sorted_) {
      SortDescending(*bucket);
      cur_sorted_ = true;
    }
    *dist = bucket->back().dist;
    *id = bucket->back().id;
    bucket->pop_back();
    return true;
  }

  bool Empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// True when pops are globally nondecreasing in dist. The LIFO
  /// bucket queue only guarantees nondecreasing bucket indices, so
  /// exact early-exit ("every later label is longer") must use
  /// MinBound().
  bool PopsSorted() const { return kind_ != Kind::kBucketQueue; }

  /// A lower bound on every entry still queued; +inf when empty. Heap:
  /// the top. Bucket queues: the drain cursor's bucket floor.
  double MinBound() const {
    if (size_ == 0) return std::numeric_limits<double>::infinity();
    if (kind_ == Kind::kFourAryHeap) return heap_[0].dist;
    if (size_ == overflow_.size()) {
      return std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(cur_bucket_) * width_;
  }

  Kind kind() const { return kind_; }

  /// NaN pushes rejected since the last Reset*.
  size_t rejected_nan() const { return rejected_nan_; }

  size_t MemoryUsage() const {
    size_t total = heap_.capacity() * sizeof(Entry) +
                   overflow_.capacity() * sizeof(Entry) +
                   buckets_.capacity() * sizeof(buckets_[0]);
    for (const auto& b : buckets_) total += b.capacity() * sizeof(Entry);
    return total;
  }

 private:
  static constexpr size_t kInitialBuckets = 64;

  static constexpr size_t kArity = 4;

  // The sorted mode's two operations, out of line (frontier_queue.cc)
  // so that Push and Pop stay small on the LIFO and heap paths. Both
  // order by (dist, id) descending, so the minimum sits at the back.
  static void SortDescending(std::vector<Entry>& v);
  /// Inserts `e` into `v`, already sorted descending, keeping it so.
  static void InsertSorted(std::vector<Entry>& v, const Entry& e);

  void SiftUp(size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const size_t p = (i - 1) / kArity;
      if (heap_[p].dist <= e.dist) break;
      heap_[i] = heap_[p];
      i = p;
    }
    heap_[i] = e;
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    const Entry e = heap_[i];
    for (;;) {
      const size_t first = i * kArity + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t last = first + kArity < n ? first + kArity : n;
      for (size_t c = first + 1; c < last; ++c) {
        if (heap_[c].dist < heap_[best].dist) best = c;
      }
      if (e.dist <= heap_[best].dist) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  /// Widens the ring until abs bucket `target` fits alongside the drain
  /// cursor, re-slotting occupied buckets (their abs index is recovered
  /// from any member's dist — all of a bucket's entries share it). The
  /// cursor's bucket counts as unsorted afterwards.
  void Grow(uint64_t target);

  Kind kind_ = Kind::kFourAryHeap;
  std::vector<Entry> heap_;

  // Bucket state. `cur_bucket_` is the absolute index of the lowest
  // possibly-occupied bucket; ring slot = abs & ring_mask_ (the bucket
  // count stays a power of two), valid because Push grows the ring
  // before an abs index could collide with a live lower one.
  // `cur_sorted_`: the cursor's bucket is sorted descending (sorted
  // mode only; reset whenever the cursor moves or the ring grows).
  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> overflow_;  // +inf entries, drained after finite ones
  double width_ = 1.0;
  double inv_width_ = 1.0;
  uint64_t cur_bucket_ = 0;
  uint64_t ring_mask_ = kInitialBuckets - 1;
  bool cur_sorted_ = false;

  size_t size_ = 0;
  size_t rejected_nan_ = 0;
};

}  // namespace itspq

#endif  // ITSPQ_ITGRAPH_FRONTIER_QUEUE_H_

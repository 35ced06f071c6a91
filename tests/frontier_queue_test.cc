// FrontierQueue in isolation: the three disciplines (4-ary heap, Dial
// bucket queue, sorted Dial bucket queue) against std::priority_queue
// on randomized workloads, plus the edge cases the search core leans
// on — duplicate keys, stale-entry skipping, +inf overflow entries,
// bucket ring wraparound/growth, the sorted buckets' exact (dist, id)
// order under late and clamped pushes, and the NaN-rejection
// regression for the strict-weak-ordering hazard the old push_heap
// code carried.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "itgraph/frontier_queue.h"

namespace itspq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const FrontierQueue::Kind kAllKinds[] = {
    FrontierQueue::Kind::kFourAryHeap, FrontierQueue::Kind::kBucketQueue,
    FrontierQueue::Kind::kSortedBucketQueue};

void Reset(FrontierQueue& q, FrontierQueue::Kind kind,
           double bucket_width = 1.0) {
  if (kind == FrontierQueue::Kind::kFourAryHeap) {
    q.ResetHeap();
  } else {
    q.ResetBuckets(bucket_width, kind);
  }
}

// Sorted buckets driven in lockstep with a (dist, id) min-ordered
// std::priority_queue: every pop must be the reference's top exactly.
struct Lockstep {
  using RefEntry = std::pair<double, uint32_t>;

  explicit Lockstep(double bucket_width) {
    q.ResetBuckets(bucket_width, FrontierQueue::Kind::kSortedBucketQueue);
  }
  void Push(double dist, uint32_t id) {
    ASSERT_TRUE(q.Push(dist, id));
    ref.push({dist, id});
  }
  void ExpectPop(const std::string& where) {
    ASSERT_FALSE(ref.empty()) << where;
    double dist;
    uint32_t id;
    ASSERT_TRUE(q.Pop(&dist, &id)) << where;
    EXPECT_EQ(dist, ref.top().first) << where;
    EXPECT_EQ(id, ref.top().second) << where;
    ref.pop();
  }
  void ExpectDrain(const std::string& where) {
    for (size_t k = 0; !ref.empty(); ++k) {
      ExpectPop(where + " drain " + std::to_string(k));
    }
    EXPECT_TRUE(q.Empty()) << where;
  }

  FrontierQueue q;
  std::priority_queue<RefEntry, std::vector<RefEntry>, std::greater<RefEntry>>
      ref;
};

TEST(FrontierQueueTest, NanPushIsRejectedNotEnqueued) {
  for (FrontierQueue::Kind kind : kAllKinds) {
    FrontierQueue q;
    Reset(q, kind);
    ASSERT_TRUE(q.Push(3.0, 1));
    // Regression: a NaN fed to the old push_heap comparator violated
    // strict weak ordering and silently corrupted the heap. It must be
    // refused at the door, leaving the queue fully functional.
    EXPECT_FALSE(q.Push(std::nan(""), 2));
    EXPECT_EQ(q.rejected_nan(), 1u);
    EXPECT_EQ(q.size(), 1u);
    ASSERT_TRUE(q.Push(1.0, 3));

    double dist;
    uint32_t id;
    ASSERT_TRUE(q.Pop(&dist, &id));
    EXPECT_EQ(id, 3u);
    ASSERT_TRUE(q.Pop(&dist, &id));
    EXPECT_EQ(id, 1u);
    EXPECT_FALSE(q.Pop(&dist, &id));

    // The counter resets with the queue.
    Reset(q, kind);
    EXPECT_EQ(q.rejected_nan(), 0u);
  }
}

TEST(FrontierQueueTest, DuplicateKeysAllComeBack) {
  for (FrontierQueue::Kind kind : kAllKinds) {
    FrontierQueue q;
    Reset(q, kind);
    // The search never decrease-keys: a re-labelled door is pushed
    // again, so equal and duplicate keys must all surface.
    for (uint32_t id = 0; id < 8; ++id) ASSERT_TRUE(q.Push(5.0, id));
    ASSERT_TRUE(q.Push(2.0, 100));
    ASSERT_TRUE(q.Push(5.0, 3));  // duplicate (dist, id) pair

    double dist;
    uint32_t id;
    ASSERT_TRUE(q.Pop(&dist, &id));
    EXPECT_EQ(id, 100u);
    size_t fives = 0;
    while (q.Pop(&dist, &id)) {
      EXPECT_EQ(dist, 5.0);
      ++fives;
    }
    EXPECT_EQ(fives, 9u);
  }
}

// The caller-side stale-skip pattern: re-labelled doors leave their old
// entries queued; the settled check must be the only filter needed.
TEST(FrontierQueueTest, StaleEntriesAreSkippableBySettledCheck) {
  for (FrontierQueue::Kind kind : kAllKinds) {
    FrontierQueue q;
    Reset(q, kind);
    ASSERT_TRUE(q.Push(10.0, 7));
    ASSERT_TRUE(q.Push(4.0, 7));  // improvement; 10.0 entry is now stale
    ASSERT_TRUE(q.Push(6.0, 8));

    std::vector<bool> settled(16, false);
    std::vector<uint32_t> settle_order;
    double dist;
    uint32_t id;
    while (q.Pop(&dist, &id)) {
      if (settled[id]) continue;
      settled[id] = true;
      settle_order.push_back(id);
    }
    ASSERT_EQ(settle_order.size(), 2u);
    EXPECT_EQ(settle_order[0], 7u);
    EXPECT_EQ(settle_order[1], 8u);
  }
}

TEST(FrontierQueueTest, InfinityPopsAfterEveryFiniteEntry) {
  for (FrontierQueue::Kind kind : kAllKinds) {
    FrontierQueue q;
    Reset(q, kind);
    ASSERT_TRUE(q.Push(kInf, 1));
    ASSERT_TRUE(q.Push(2.0, 2));
    ASSERT_TRUE(q.Push(kInf, 3));
    ASSERT_TRUE(q.Push(700.0, 4));  // far bucket: forces ring growth too

    double dist;
    uint32_t id;
    ASSERT_TRUE(q.Pop(&dist, &id));
    EXPECT_EQ(id, 2u);
    ASSERT_TRUE(q.Pop(&dist, &id));
    EXPECT_EQ(id, 4u);
    for (int k = 0; k < 2; ++k) {
      ASSERT_TRUE(q.Pop(&dist, &id));
      EXPECT_TRUE(std::isinf(dist));
    }
    EXPECT_TRUE(q.Empty());
    EXPECT_EQ(q.MinBound(), kInf);
  }
}

TEST(FrontierQueueTest, BucketRingWrapsAndGrows) {
  FrontierQueue q;
  q.ResetBuckets(2.0);
  // Interleave pushes and pops so the drain cursor travels far past the
  // initial ring size (64 buckets), exercising modulo wraparound, and
  // occasionally push far ahead to force Grow() re-slotting.
  Rng rng(99);
  std::vector<double> pending;
  double frontier = 0.0;
  uint32_t next_id = 0;
  for (int round = 0; round < 400; ++round) {
    const double d = frontier + rng.UniformDouble(2.0, round % 50 == 7
                                                           ? 500.0
                                                           : 9.0);
    ASSERT_TRUE(q.Push(d, next_id++));
    pending.push_back(d);
    if (round % 2 == 1) {
      double dist;
      uint32_t id;
      ASSERT_TRUE(q.Pop(&dist, &id));
      // Bucket-granular order: pops never regress below the current
      // bucket floor, and MinBound stays a true lower bound.
      EXPECT_GE(dist, q.kind() == FrontierQueue::Kind::kBucketQueue
                          ? std::floor(frontier / 2.0) * 2.0
                          : frontier);
      frontier = std::max(frontier, std::floor(dist / 2.0) * 2.0);
      pending.erase(std::find(pending.begin(), pending.end(), dist));
      for (double p : pending) {
        EXPECT_LE(q.MinBound(), p);
      }
    }
  }
  // Drain; every remaining entry must surface exactly once.
  double dist;
  uint32_t id;
  while (q.Pop(&dist, &id)) {
    auto it = std::find(pending.begin(), pending.end(), dist);
    ASSERT_NE(it, pending.end());
    pending.erase(it);
  }
  EXPECT_TRUE(pending.empty());
}

// A miniature Dijkstra over random graphs: all three disciplines and
// std::priority_queue must produce identical distance arrays, and the
// 4-ary heap and the sorted buckets the reference's (sorted) settle
// sequence.
TEST(FrontierQueueTest, RandomizedCrossCheckAgainstStdPriorityQueue) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const size_t n = 60;
    // Random connected-ish graph with weights in [1, 4): every edge
    // weight >= 1, so a width-1 bucket queue is exact.
    std::vector<std::vector<std::pair<uint32_t, double>>> edges(n);
    for (size_t v = 1; v < n; ++v) {
      const uint32_t u = static_cast<uint32_t>(rng.UniformIndex(v));
      const double w = rng.UniformDouble(1.0, 4.0);
      edges[u].push_back({static_cast<uint32_t>(v), w});
      edges[v].push_back({u, w});
    }
    for (size_t extra = 0; extra < 2 * n; ++extra) {
      const uint32_t a = static_cast<uint32_t>(rng.UniformIndex(n));
      const uint32_t b = static_cast<uint32_t>(rng.UniformIndex(n));
      if (a == b) continue;
      const double w = rng.UniformDouble(1.0, 4.0);
      edges[a].push_back({b, w});
      edges[b].push_back({a, w});
    }

    auto dijkstra = [&](FrontierQueue::Kind kind,
                        std::vector<double>* popped) {
      std::vector<double> dist(n, kInf);
      std::vector<bool> settled(n, false);
      FrontierQueue q;
      Reset(q, kind);
      dist[0] = 0;
      q.Push(0, 0);
      double d;
      uint32_t u;
      while (q.Pop(&d, &u)) {
        if (settled[u]) continue;
        settled[u] = true;
        if (popped != nullptr) popped->push_back(d);
        for (const auto& [v, w] : edges[u]) {
          if (!settled[v] && d + w < dist[v]) {
            dist[v] = d + w;
            q.Push(dist[v], v);
          }
        }
      }
      return dist;
    };

    // Reference: std::priority_queue, the discipline the search used
    // before FrontierQueue existed.
    std::vector<double> ref_dist(n, kInf);
    std::vector<double> ref_pops;
    {
      std::vector<bool> settled(n, false);
      using Entry = std::pair<double, uint32_t>;
      std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
      ref_dist[0] = 0;
      pq.push({0, 0});
      while (!pq.empty()) {
        const auto [d, u] = pq.top();
        pq.pop();
        if (settled[u]) continue;
        settled[u] = true;
        ref_pops.push_back(d);
        for (const auto& [v, w] : edges[u]) {
          if (!settled[v] && d + w < ref_dist[v]) {
            ref_dist[v] = d + w;
            pq.push({ref_dist[v], v});
          }
        }
      }
    }

    std::vector<double> pops4, sorted_pops;
    EXPECT_EQ(dijkstra(FrontierQueue::Kind::kFourAryHeap, &pops4), ref_dist)
        << "seed " << seed;
    EXPECT_EQ(dijkstra(FrontierQueue::Kind::kBucketQueue, nullptr), ref_dist)
        << "seed " << seed;
    EXPECT_EQ(dijkstra(FrontierQueue::Kind::kSortedBucketQueue, &sorted_pops),
              ref_dist)
        << "seed " << seed;

    // Heap and sorted-bucket pops are globally sorted, hence identical
    // to the reference's settle distances.
    EXPECT_EQ(pops4, ref_pops) << "seed " << seed;
    EXPECT_EQ(sorted_pops, ref_pops) << "seed " << seed;
    EXPECT_TRUE(std::is_sorted(ref_pops.begin(), ref_pops.end()));
  }
}

// Dijkstra-shaped workloads on the sorted buckets, in lockstep with
// the reference — every pop, stale duplicates included, must match.
// Integer weights make distance ties common, so the id tie-break is
// exercised; a few pushes land below the cursor (clamped into the
// current bucket), a few far ahead (ring growth mid-drain), a few at
// +inf, and NaN pushes must be refused without disturbing the order.
TEST(FrontierQueueTest, SortedBucketsPopExactlyLikeAPriorityQueue) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const size_t n = 400;
    const double width = 2.0;
    std::vector<std::vector<std::pair<uint32_t, double>>> edges(n);
    for (size_t v = 1; v < n; ++v) {
      const uint32_t u = static_cast<uint32_t>(rng.UniformIndex(v));
      const double w = static_cast<double>(2 + rng.UniformIndex(5));
      edges[u].push_back({static_cast<uint32_t>(v), w});
      edges[v].push_back({u, w});
    }
    for (size_t extra = 0; extra < 3 * n; ++extra) {
      const uint32_t a = static_cast<uint32_t>(rng.UniformIndex(n));
      const uint32_t b = static_cast<uint32_t>(rng.UniformIndex(n));
      if (a == b) continue;
      const double w = extra % 3 == 0 ? rng.UniformDouble(2.0, 9.0)
                                      : static_cast<double>(2 + extra % 6);
      edges[a].push_back({b, w});
      edges[b].push_back({a, w});
    }

    Lockstep queues(width);
    std::vector<double> dist(n, kInf);
    std::vector<bool> settled(n, false);
    // Several sources at tied and untied offsets.
    for (uint32_t src : {0u, 7u, 9u, 200u}) {
      dist[src] = src == 200 ? 5.0 : 1.0;
      queues.Push(dist[src], src);
    }
    size_t pops = 0, clamped = 0, far = 0, infinite = 0;
    while (!queues.ref.empty()) {
      const auto [d, u] = queues.ref.top();
      queues.ExpectPop("seed " + std::to_string(seed) + " pop " +
                       std::to_string(pops));
      if (HasFailure()) return;
      ++pops;
      if (!std::isfinite(d) || u >= n || settled[u]) continue;
      settled[u] = true;
      for (const auto& [v, w] : edges[u]) {
        if (!settled[v] && d + w < dist[v]) {
          dist[v] = d + w;
          queues.Push(dist[v], v);
        }
      }
      const uint32_t extra_id = static_cast<uint32_t>(n + pops);
      switch (rng.UniformIndex(40)) {
        case 0:  // below the cursor's bucket floor, yet the next pop
          queues.Push(std::max(0.0, d - rng.UniformDouble(0.0, 3 * width)),
                      extra_id);
          ++clamped;
          break;
        case 1:
          queues.Push(
              d + width * static_cast<double>(100 + rng.UniformIndex(400)),
              extra_id);
          ++far;
          break;
        case 2:
          queues.Push(kInf, static_cast<uint32_t>(rng.UniformIndex(3 * n)));
          ++infinite;
          break;
        case 3:
          EXPECT_FALSE(queues.q.Push(std::nan(""), u));
          break;
      }
    }
    EXPECT_TRUE(queues.q.Empty());
    EXPECT_GT(clamped, 0u) << "seed " << seed;
    EXPECT_GT(far, 0u) << "seed " << seed;
    EXPECT_GT(infinite, 0u) << "seed " << seed;
  }
}

// A push into the drain cursor's bucket after it was sorted is
// inserted in (dist, id) order, and a push below the cursor is clamped
// into that bucket and popped next.
TEST(FrontierQueueTest, SortedBucketsOrderLatePushesIntoTheCurrentBucket) {
  Lockstep queues(10.0);
  queues.Push(15.0, 1);
  queues.Push(12.0, 2);
  queues.Push(18.0, 3);
  queues.Push(25.0, 4);
  queues.ExpectPop("first pop sorts bucket 1");  // (12, 2)
  queues.Push(13.0, 5);                          // after the sort
  queues.Push(15.0, 0);                          // ties (15, 1)
  queues.Push(19.5, 6);
  queues.Push(3.0, 7);  // below the cursor: clamped into bucket 1
  queues.ExpectDrain("late pushes");
}

// Ring growth in the middle of draining a sorted bucket re-slots it;
// pops stay exactly ordered across the growth, for entries pushed into
// that bucket before and after it.
TEST(FrontierQueueTest, SortedBucketsSurviveGrowMidDrain) {
  Lockstep queues(1.0);
  for (uint32_t id = 0; id < 6; ++id) queues.Push(0.9 - 0.1 * id, id);
  queues.Push(0.5, 10);  // ties (0.5, 4)
  queues.ExpectPop("first pop");
  queues.ExpectPop("second pop");
  queues.Push(5000.0, 20);  // far past the 64-bucket ring: Grow
  queues.Push(0.55, 21);    // the current bucket again, now unsorted
  queues.Push(0.05, 22);
  queues.Push(2.5, 23);
  queues.ExpectDrain("after grow");
}

// +inf entries drain after every finite one, in id order; NaN is
// refused.
TEST(FrontierQueueTest, SortedBucketsDrainInfinityLastAndRejectNan) {
  Lockstep queues(1.0);
  queues.Push(kInf, 9);
  queues.Push(3.0, 4);
  queues.Push(kInf, 2);
  EXPECT_FALSE(queues.q.Push(std::nan(""), 1));
  queues.Push(kInf, 5);
  queues.Push(1.0, 8);
  EXPECT_EQ(queues.q.rejected_nan(), 1u);
  EXPECT_EQ(queues.q.size(), 5u);
  queues.ExpectPop("first pop");
  queues.Push(kInf, 0);
  queues.ExpectDrain("infinities");
  EXPECT_EQ(queues.q.MinBound(), kInf);
}

}  // namespace
}  // namespace itspq

#include "itgraph/frontier_queue.h"

#include <algorithm>
#include <utility>

namespace itspq {
namespace {

// Strict (dist, id) order, reversed. Keys are never NaN (Push rejects
// them), so this is a strict weak ordering.
struct Later {
  bool operator()(const FrontierQueue::Entry& a,
                  const FrontierQueue::Entry& b) const {
    return a.dist > b.dist || (a.dist == b.dist && a.id > b.id);
  }
};

}  // namespace

void FrontierQueue::SortDescending(std::vector<Entry>& v) {
  std::sort(v.begin(), v.end(), Later());
}

void FrontierQueue::InsertSorted(std::vector<Entry>& v, const Entry& e) {
  v.insert(std::upper_bound(v.begin(), v.end(), e, Later()), e);
}

void FrontierQueue::Grow(uint64_t target) {
  size_t want = buckets_.size();
  while (target - cur_bucket_ >= want) want *= 2;
  std::vector<std::vector<Entry>> wider(want);
  const uint64_t want_mask = want - 1;
  for (auto& bucket : buckets_) {
    if (bucket.empty()) continue;
    uint64_t b = static_cast<uint64_t>(bucket.front().dist * inv_width_);
    if (b < cur_bucket_) b = cur_bucket_;
    std::vector<Entry>& slot = wider[static_cast<size_t>(b & want_mask)];
    if (slot.empty()) {
      slot = std::move(bucket);
    } else {
      slot.insert(slot.end(), bucket.begin(), bucket.end());
    }
  }
  buckets_ = std::move(wider);
  ring_mask_ = want_mask;
  cur_sorted_ = false;
}

}  // namespace itspq

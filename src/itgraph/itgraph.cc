#include "itgraph/itgraph.h"

#include <algorithm>
#include <string>
#include <utility>

namespace itspq {

Status ItGraph::FillAtiRows(const ItGraph* prev, DoorId changed) {
  // Sized up front from an upper bound (a row's length, or one per
  // interval and two for one wrapping past midnight), so a build makes
  // a fixed number of allocations whatever the door count.
  const size_t n = venue_->NumDoors();
  auto copied = [prev, changed](size_t d) {
    return prev != nullptr && d != static_cast<size_t>(changed);
  };
  size_t total = 0, widest = 0;
  for (size_t d = 0; d < n; ++d) {
    size_t bound = 0;
    if (copied(d)) {
      bound = prev->Ati(static_cast<DoorId>(d)).starts().size();
    } else {
      for (const TimeInterval& iv : venue_->DoorAti(static_cast<DoorId>(d))) {
        bound += iv.end < iv.start ? 2 : 1;
      }
      widest = std::max(widest, bound);
    }
    total += bound;
  }
  std::vector<TimeInterval> scratch;
  scratch.reserve(widest);
  ati_offsets_.reserve(n + 1);
  ati_starts_.reserve(total);
  ati_ends_.reserve(total);
  ati_offsets_.push_back(0);
  for (size_t d = 0; d < n; ++d) {
    const auto door = static_cast<DoorId>(d);
    if (copied(d)) {
      const AtiRow row = prev->Ati(door);
      ati_starts_.insert(ati_starts_.end(), row.starts().begin(),
                         row.starts().end());
      ati_ends_.insert(ati_ends_.end(), row.ends().begin(), row.ends().end());
    } else {
      Status status = AtiSet::AppendNormalised(venue_->DoorAti(door), &scratch,
                                               &ati_starts_, &ati_ends_);
      if (!status.ok()) {
        return Status(status.code(),
                      "door " + std::to_string(d) + ": " + status.message());
      }
    }
    ati_offsets_.push_back(static_cast<uint32_t>(ati_starts_.size()));
  }
  return Status::Ok();
}

StatusOr<ItGraph> ItGraph::Build(const Venue& venue) {
  ItGraph graph(venue);
  Status status = graph.FillAtiRows(nullptr, kInvalidDoor);
  if (!status.ok()) return status;
  graph.adj_ = std::make_shared<const CsrAdjacency>(CsrAdjacency::Compile(venue));
  return graph;
}

StatusOr<ItGraph> ItGraph::BuildFrom(const ItGraph& prev, const Venue& venue,
                                     DoorId changed_door) {
  if (venue.NumDoors() != prev.NumDoors()) {
    return InvalidArgumentError(
        "BuildFrom: door count changed (" + std::to_string(prev.NumDoors()) +
        " -> " + std::to_string(venue.NumDoors()) +
        "); online updates only edit ATIs");
  }
  if (changed_door < 0 ||
      static_cast<size_t>(changed_door) >= venue.NumDoors()) {
    return InvalidArgumentError("BuildFrom: unknown door " +
                                std::to_string(changed_door));
  }
  ItGraph graph(venue);
  Status status = graph.FillAtiRows(&prev, changed_door);
  if (!status.ok()) return status;
  // ATI edits never touch geometry (door-count guard above), so the
  // compiled adjacency is shared across epochs.
  graph.adj_ = prev.adj_;
  return graph;
}

size_t ItGraph::MemoryUsage() const {
  size_t total =
      ati_offsets_.capacity() * sizeof(uint32_t) +
      (ati_starts_.capacity() + ati_ends_.capacity()) * sizeof(double);
  // The adjacency lives in one make_shared block: the object and a
  // control block of two counters behind a vtable pointer.
  if (adj_ != nullptr) {
    total += sizeof(CsrAdjacency) + 2 * sizeof(void*) + adj_->MemoryUsage();
  }
  return total;
}

}  // namespace itspq

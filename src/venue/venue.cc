#include "venue/venue.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace itspq {

namespace {

// Location-grid cell edge in metres. Partitions in the synthetic malls
// are tens to hundreds of metres; 64 m keeps cell lists short without
// bloating small venues.
constexpr double kLocateCellMetres = 64.0;

/// The grid column (or row) of coordinate `v`, clamped to [0, count) in
/// the double domain: a point far outside the grid, or a NaN, lands on
/// an edge cell instead of overflowing the int cast.
int GridCell(double v, double origin, double cell, int count) {
  const double at = (v - origin) / cell;
  return at > 0 ? static_cast<int>(std::min(at, count - 1.0)) : 0;
}

}  // namespace

PartitionId Venue::Builder::AddPartition(const Rect& rect, int floor) {
  carried_.reset();
  partitions_.push_back(Partition{rect, floor});
  return static_cast<PartitionId>(partitions_.size() - 1);
}

DoorId Venue::Builder::AddDoor(const Point2d& pos, int floor, PartitionId a,
                               PartitionId b) {
  carried_.reset();
  Door door;
  door.pos = pos;
  door.floor = floor;
  door.partitions = {a, b};
  doors_.push_back(std::move(door));
  return static_cast<DoorId>(doors_.size() - 1);
}

Status Venue::Builder::SetDoorAti(DoorId d,
                                  std::vector<TimeInterval> intervals) {
  if (d < 0 || static_cast<size_t>(d) >= doors_.size()) {
    return InvalidArgumentError("SetDoorAti: unknown door " +
                                std::to_string(d));
  }
  doors_[static_cast<size_t>(d)].ati_intervals = std::move(intervals);
  return Status::Ok();
}

Venue::Builder Venue::Builder::FromVenue(const Venue& venue) {
  Builder builder;
  builder.partitions_ = venue.partitions_;
  builder.doors_ = venue.doors_;
  CarriedGeometry carried;
  carried.doors_of = venue.doors_of_;
  carried.min_floor = venue.min_floor_;
  carried.floor_index = venue.floor_index_;
  builder.carried_ = std::move(carried);
  return builder;
}

StatusOr<Venue> Venue::Builder::Build() && {
  const auto num_partitions = static_cast<PartitionId>(partitions_.size());
  for (size_t i = 0; i < partitions_.size(); ++i) {
    const Rect& r = partitions_[i].rect;
    if (r.width() <= 0 || r.height() <= 0) {
      return InvalidArgumentError("partition " + std::to_string(i) +
                                  " has a degenerate rectangle");
    }
  }
  for (size_t i = 0; i < doors_.size(); ++i) {
    const Door& d = doors_[i];
    for (PartitionId p : d.partitions) {
      if (p < 0 || p >= num_partitions) {
        return InvalidArgumentError("door " + std::to_string(i) +
                                    " references unknown partition " +
                                    std::to_string(p));
      }
    }
    if (d.partitions[0] == d.partitions[1]) {
      return InvalidArgumentError("door " + std::to_string(i) +
                                  " connects a partition to itself");
    }
  }

  Venue venue;
  venue.partitions_ = std::move(partitions_);
  venue.doors_ = std::move(doors_);

  // Geometry untouched since FromVenue: every derived structure (door
  // lists, point-location grid) is a pure function
  // of partitions + door positions, so adopt the carried-over copies
  // instead of recomputing.
  if (carried_.has_value()) {
    venue.doors_of_ = std::move(carried_->doors_of);
    venue.min_floor_ = carried_->min_floor;
    venue.floor_index_ = std::move(carried_->floor_index);
    return venue;
  }

  venue.doors_of_.resize(venue.partitions_.size());
  for (size_t d = 0; d < venue.doors_.size(); ++d) {
    for (PartitionId p : venue.doors_[d].partitions) {
      venue.doors_of_[static_cast<size_t>(p)].push_back(
          static_cast<DoorId>(d));
    }
  }

  venue.BuildLocationIndex();
  return venue;
}

void Venue::BuildLocationIndex() {
  if (partitions_.empty()) return;
  int min_floor = partitions_[0].floor;
  int max_floor = partitions_[0].floor;
  for (const Partition& p : partitions_) {
    min_floor = std::min(min_floor, p.floor);
    max_floor = std::max(max_floor, p.floor);
  }
  min_floor_ = min_floor;
  floor_index_.assign(static_cast<size_t>(max_floor - min_floor) + 1, {});

  // Per-floor bounding box.
  for (size_t f = 0; f < floor_index_.size(); ++f) {
    const int floor = min_floor_ + static_cast<int>(f);
    double min_x = 0, min_y = 0, max_x = 0, max_y = 0;
    bool any = false;
    for (const Partition& p : partitions_) {
      if (p.floor != floor) continue;
      if (!any) {
        min_x = p.rect.min_x;
        min_y = p.rect.min_y;
        max_x = p.rect.max_x;
        max_y = p.rect.max_y;
        any = true;
      } else {
        min_x = std::min(min_x, p.rect.min_x);
        min_y = std::min(min_y, p.rect.min_y);
        max_x = std::max(max_x, p.rect.max_x);
        max_y = std::max(max_y, p.rect.max_y);
      }
    }
    FloorIndex& index = floor_index_[f];
    index.origin_x = min_x;
    index.origin_y = min_y;
    index.cell = kLocateCellMetres;
    index.cols =
        any ? std::max(1, static_cast<int>(
                              std::ceil((max_x - min_x) / index.cell)))
            : 0;
    index.rows =
        any ? std::max(1, static_cast<int>(
                              std::ceil((max_y - min_y) / index.cell)))
            : 0;
    index.cells.assign(static_cast<size_t>(index.cols) * index.rows, {});
  }

  for (size_t pid = 0; pid < partitions_.size(); ++pid) {
    const Partition& p = partitions_[pid];
    FloorIndex& index = floor_index_[static_cast<size_t>(p.floor - min_floor_)];
    const int c0 =
        GridCell(p.rect.min_x, index.origin_x, index.cell, index.cols);
    const int c1 =
        GridCell(p.rect.max_x, index.origin_x, index.cell, index.cols);
    const int r0 =
        GridCell(p.rect.min_y, index.origin_y, index.cell, index.rows);
    const int r1 =
        GridCell(p.rect.max_y, index.origin_y, index.cell, index.rows);
    for (int r = r0; r <= r1; ++r) {
      for (int c = c0; c <= c1; ++c) {
        index.cells[static_cast<size_t>(r) * index.cols + c].push_back(
            static_cast<PartitionId>(pid));
      }
    }
  }
}

std::vector<PartitionId> Venue::LocateAll(const IndoorPoint& point) const {
  std::vector<PartitionId> out;
  const size_t f = static_cast<size_t>(point.floor - min_floor_);
  if (point.floor < min_floor_ || f >= floor_index_.size()) return out;
  const FloorIndex& index = floor_index_[f];
  if (index.cols == 0 || index.rows == 0) return out;
  const int c = GridCell(point.p.x, index.origin_x, index.cell, index.cols);
  const int r = GridCell(point.p.y, index.origin_y, index.cell, index.rows);
  for (PartitionId pid :
       index.cells[static_cast<size_t>(r) * index.cols + c]) {
    if (partitions_[static_cast<size_t>(pid)].rect.Contains(point.p)) {
      out.push_back(pid);
    }
  }
  return out;
}

size_t Venue::MemoryUsage() const {
  size_t total = partitions_.capacity() * sizeof(Partition) +
                 doors_.capacity() * sizeof(Door);
  for (const Door& d : doors_) {
    total += d.ati_intervals.capacity() * sizeof(TimeInterval);
  }
  for (const auto& list : doors_of_) {
    total += list.capacity() * sizeof(DoorId);
  }
  for (const FloorIndex& index : floor_index_) {
    total += index.cells.capacity() * sizeof(std::vector<PartitionId>);
    for (const auto& cell : index.cells) {
      total += cell.capacity() * sizeof(PartitionId);
    }
  }
  return total;
}

}  // namespace itspq

#include "venue/venue.h"

#include <algorithm>
#include <cmath>
#include <limits>
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

/// Fills the CSR of `lists` lists from `for_each`, which emits (list,
/// value) for every entry, alike on both calls: one to count, so each
/// array is allocated once, one to fill, in emission order.
template <typename T, typename ForEach>
void FillCsr(size_t lists, ForEach for_each, std::vector<uint32_t>* offsets,
             std::vector<T>* pool) {
  std::vector<uint32_t>& at = *offsets;
  at.assign(lists + 1, 0);
  for_each([&at](size_t list, T) { ++at[list + 1]; });
  for (size_t i = 1; i <= lists; ++i) at[i] += at[i - 1];
  pool->resize(at.back());
  // Each list's begin is its write cursor, which ends at the next's.
  for_each([&at, pool](size_t list, T value) { (*pool)[at[list]++] = value; });
  for (size_t i = lists; i-- > 1;) at[i] = at[i - 1];
  at[0] = 0;
}

}  // namespace

PartitionId Venue::Builder::AddPartition(const Rect& rect, int floor) {
  geometry_carried_ = false;
  venue_.partitions_.push_back(Partition{rect, floor});
  return static_cast<PartitionId>(venue_.partitions_.size() - 1);
}

DoorId Venue::Builder::AddDoor(const Point2d& pos, int floor, PartitionId a,
                               PartitionId b) {
  geometry_carried_ = false;
  venue_.doors_.push_back(Door{pos, floor, {a, b}});
  venue_.ati_offsets_.push_back(venue_.ati_offsets_.back());  // always open
  return static_cast<DoorId>(venue_.doors_.size() - 1);
}

Status Venue::Builder::SetDoorAti(DoorId d,
                                  std::vector<TimeInterval> intervals) {
  if (d < 0 || static_cast<size_t>(d) >= venue_.doors_.size()) {
    return InvalidArgumentError("SetDoorAti: unknown door " +
                                std::to_string(d));
  }
  ati_edits_[d] = std::move(intervals);
  return Status::Ok();
}

Venue::Builder Venue::Builder::FromVenue(const Venue& venue) {
  return Builder(venue);
}

StatusOr<Venue> Venue::Builder::Build() && {
  Venue& venue = venue_;
  const auto num_partitions = static_cast<PartitionId>(venue.NumPartitions());
  for (size_t i = 0; i < venue.partitions_.size(); ++i) {
    const Rect& r = venue.partitions_[i].rect;
    if (r.width() <= 0 || r.height() <= 0) {
      return InvalidArgumentError("partition " + std::to_string(i) +
                                  " has a degenerate rectangle");
    }
  }
  for (size_t i = 0; i < venue.doors_.size(); ++i) {
    const Door& d = venue.doors_[i];
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
    // Edge weights are computed from door positions: a NaN or an
    // infinity would poison the frontier.
    if (!std::isfinite(d.pos.x) || !std::isfinite(d.pos.y)) {
      return InvalidArgumentError("door " + std::to_string(i) +
                                  " position is not finite");
    }
  }

  // Door d's intervals: its SetDoorAti replacement, else its row so far.
  if (!ati_edits_.empty()) {
    std::vector<uint32_t> offsets;
    std::vector<TimeInterval> intervals;
    FillCsr<TimeInterval>(
        venue.NumDoors(),
        [this, &venue](auto emit) {
          for (size_t d = 0; d < venue.NumDoors(); ++d) {
            const auto door = static_cast<DoorId>(d);
            const auto edit = ati_edits_.find(door);
            for (const TimeInterval& iv : edit != ati_edits_.end()
                                              ? Span<TimeInterval>(edit->second)
                                              : venue.DoorAti(door)) {
              emit(d, iv);
            }
          }
        },
        &offsets, &intervals);
    venue.ati_offsets_ = std::move(offsets);
    venue.ati_intervals_ = std::move(intervals);
  }

  // Geometry untouched since FromVenue: the door lists and the
  // point-location grid are pure functions of partitions + door
  // positions, so the carried-over copies stand.
  if (!geometry_carried_) {
    venue.BuildDoorLists();
    venue.BuildLocationIndex();
  }
  return std::move(venue);
}

void Venue::BuildDoorLists() {
  FillCsr<DoorId>(
      partitions_.size(),
      [this](auto emit) {
        for (size_t d = 0; d < doors_.size(); ++d) {
          for (PartitionId p : doors_[d].partitions) {
            emit(static_cast<size_t>(p), static_cast<DoorId>(d));
          }
        }
      },
      &door_offsets_, &door_ids_);
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

  for (size_t f = 0; f < floor_index_.size(); ++f) {
    const int floor = min_floor_ + static_cast<int>(f);
    // Per-floor bounding box; inverted when the floor is empty.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    Rect box{kInf, kInf, -kInf, -kInf};
    for (const Partition& p : partitions_) {
      if (p.floor != floor) continue;
      box = Rect{std::min(box.min_x, p.rect.min_x),
                 std::min(box.min_y, p.rect.min_y),
                 std::max(box.max_x, p.rect.max_x),
                 std::max(box.max_y, p.rect.max_y)};
    }
    const bool any = box.min_x <= box.max_x;
    auto cells = [any](double extent) {
      return any ? std::max(1, static_cast<int>(
                                   std::ceil(extent / kLocateCellMetres)))
                 : 0;
    };
    FloorIndex& index = floor_index_[f];
    index.origin_x = any ? box.min_x : 0;
    index.origin_y = any ? box.min_y : 0;
    index.cell = kLocateCellMetres;
    index.cols = cells(box.max_x - box.min_x);
    index.rows = cells(box.max_y - box.min_y);
    FillCsr<PartitionId>(
        static_cast<size_t>(index.cols) * index.rows,
        [this, &index, floor](auto emit) {
          for (size_t pid = 0; pid < partitions_.size(); ++pid) {
            const Partition& p = partitions_[pid];
            if (p.floor != floor) continue;
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
                emit(static_cast<size_t>(r) * index.cols + c,
                     static_cast<PartitionId>(pid));
              }
            }
          }
        },
        &index.cell_offsets, &index.cell_partitions);
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
  for (PartitionId pid : CsrList(index.cell_offsets, index.cell_partitions,
                                 static_cast<size_t>(r) * index.cols + c)) {
    if (partitions_[static_cast<size_t>(pid)].rect.Contains(point.p)) {
      out.push_back(pid);
    }
  }
  return out;
}

size_t Venue::MemoryUsage() const {
  size_t total = partitions_.capacity() * sizeof(Partition) +
                 doors_.capacity() * sizeof(Door) +
                 (door_offsets_.capacity() + ati_offsets_.capacity()) *
                     sizeof(uint32_t) +
                 door_ids_.capacity() * sizeof(DoorId) +
                 ati_intervals_.capacity() * sizeof(TimeInterval) +
                 floor_index_.capacity() * sizeof(FloorIndex);
  for (const FloorIndex& index : floor_index_) {
    total += index.cell_offsets.capacity() * sizeof(uint32_t) +
             index.cell_partitions.capacity() * sizeof(PartitionId);
  }
  return total;
}

}  // namespace itspq

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

/// Fills the interval CSR with edit(door, row) of each `source` row.
template <typename Edit>
void MergeAtiRows(const Venue& source, std::vector<uint32_t>* offsets,
                  std::vector<TimeInterval>* intervals, Edit edit) {
  FillCsr<TimeInterval>(
      source.NumDoors(),
      [&source, &edit](auto emit) {
        for (size_t d = 0; d < source.NumDoors(); ++d) {
          const auto door = static_cast<DoorId>(d);
          for (const TimeInterval& iv : edit(door, source.DoorAti(door))) {
            emit(d, iv);
          }
        }
      },
      offsets, intervals);
}

}  // namespace

Venue::Venue(const Venue& other)
    : geometry_(std::make_shared<const Geometry>(*other.geometry_)),
      ati_offsets_(other.ati_offsets_),
      ati_intervals_(other.ati_intervals_) {}

Venue& Venue::operator=(const Venue& other) { return *this = Venue(other); }

StatusOr<Venue> Venue::WithDoorAti(DoorId d,
                                   Span<TimeInterval> intervals) const {
  if (d < 0 || static_cast<size_t>(d) >= NumDoors()) {
    return InvalidArgumentError("WithDoorAti: unknown door " +
                                std::to_string(d));
  }
  Venue next;
  next.geometry_ = geometry_;
  MergeAtiRows(*this, &next.ati_offsets_, &next.ati_intervals_,
               [d, intervals](DoorId door, Span<TimeInterval> row) {
                 return door == d ? intervals : row;
               });
  return next;
}

Venue::Builder::Builder() : owned_(std::make_shared<Geometry>()) {
  venue_.geometry_ = owned_;
  venue_.ati_offsets_.push_back(0);
}

Venue::Builder::Builder(const Venue& source) {
  venue_.geometry_ = source.geometry_;
  venue_.ati_offsets_ = source.ati_offsets_;
  venue_.ati_intervals_ = source.ati_intervals_;
}

Venue::Geometry& Venue::Builder::MutableGeometry() {
  if (owned_ == nullptr) {
    owned_ = std::make_shared<Geometry>(*venue_.geometry_);
    venue_.geometry_ = owned_;
  }
  return *owned_;
}

PartitionId Venue::Builder::AddPartition(const Rect& rect, int floor) {
  std::vector<Partition>& partitions = MutableGeometry().partitions;
  partitions.push_back(Partition{rect, floor});
  return static_cast<PartitionId>(partitions.size() - 1);
}

DoorId Venue::Builder::AddDoor(const Point2d& pos, int floor, PartitionId a,
                               PartitionId b) {
  std::vector<Door>& doors = MutableGeometry().doors;
  doors.push_back(Door{pos, floor, {a, b}});
  venue_.ati_offsets_.push_back(venue_.ati_offsets_.back());  // always open
  return static_cast<DoorId>(doors.size() - 1);
}

Status Venue::Builder::SetDoorAti(DoorId d,
                                  std::vector<TimeInterval> intervals) {
  if (d < 0 || static_cast<size_t>(d) >= venue_.NumDoors()) {
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
  for (size_t i = 0; i < venue.NumPartitions(); ++i) {
    const Rect& r = venue.partition(static_cast<PartitionId>(i)).rect;
    if (r.width() <= 0 || r.height() <= 0) {
      return InvalidArgumentError("partition " + std::to_string(i) +
                                  " has a degenerate rectangle");
    }
  }
  for (size_t i = 0; i < venue.NumDoors(); ++i) {
    const Door& d = venue.door(static_cast<DoorId>(i));
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
    const Venue rows = std::move(venue);
    venue.geometry_ = rows.geometry_;
    MergeAtiRows(rows, &venue.ati_offsets_, &venue.ati_intervals_,
                 [this](DoorId door, Span<TimeInterval> row) {
                   const auto edit = ati_edits_.find(door);
                   return edit == ati_edits_.end()
                              ? row
                              : Span<TimeInterval>(edit->second);
                 });
  }

  // Geometry untouched since FromVenue: the door lists and the
  // point-location grid are pure functions of partitions + door
  // positions, so the source's block stands, shared.
  if (owned_ != nullptr) {
    owned_->BuildDoorLists();
    owned_->BuildLocationIndex();
  }
  return std::move(venue);
}

void Venue::Geometry::BuildDoorLists() {
  FillCsr<DoorId>(
      partitions.size(),
      [this](auto emit) {
        for (size_t d = 0; d < doors.size(); ++d) {
          for (PartitionId p : doors[d].partitions) {
            emit(static_cast<size_t>(p), static_cast<DoorId>(d));
          }
        }
      },
      &door_offsets, &door_ids);
}

void Venue::Geometry::BuildLocationIndex() {
  if (partitions.empty()) return;
  min_floor = partitions[0].floor;
  int max_floor = partitions[0].floor;
  for (const Partition& p : partitions) {
    min_floor = std::min(min_floor, p.floor);
    max_floor = std::max(max_floor, p.floor);
  }
  floor_index.assign(static_cast<size_t>(max_floor - min_floor) + 1, {});

  for (size_t f = 0; f < floor_index.size(); ++f) {
    const int floor = min_floor + static_cast<int>(f);
    // Per-floor bounding box; inverted when the floor is empty.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    Rect box{kInf, kInf, -kInf, -kInf};
    for (const Partition& p : partitions) {
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
    FloorIndex& index = floor_index[f];
    index.origin_x = any ? box.min_x : 0;
    index.origin_y = any ? box.min_y : 0;
    index.cell = kLocateCellMetres;
    index.cols = cells(box.max_x - box.min_x);
    index.rows = cells(box.max_y - box.min_y);
    FillCsr<PartitionId>(
        static_cast<size_t>(index.cols) * index.rows,
        [this, &index, floor](auto emit) {
          for (size_t pid = 0; pid < partitions.size(); ++pid) {
            const Partition& p = partitions[pid];
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
  const Geometry& g = *geometry_;
  const size_t f = static_cast<size_t>(point.floor - g.min_floor);
  if (point.floor < g.min_floor || f >= g.floor_index.size()) return out;
  const FloorIndex& index = g.floor_index[f];
  if (index.cols == 0 || index.rows == 0) return out;
  const int c = GridCell(point.p.x, index.origin_x, index.cell, index.cols);
  const int r = GridCell(point.p.y, index.origin_y, index.cell, index.rows);
  for (PartitionId pid : CsrList(index.cell_offsets, index.cell_partitions,
                                 static_cast<size_t>(r) * index.cols + c)) {
    if (g.partitions[static_cast<size_t>(pid)].rect.Contains(point.p)) {
      out.push_back(pid);
    }
  }
  return out;
}

size_t Venue::MemoryUsage() const {
  const Geometry& g = *geometry_;
  // The block is one make_shared allocation: the object and a control
  // block of two counters behind a vtable pointer.
  size_t total = sizeof(Geometry) + 2 * sizeof(void*) +
                 g.partitions.capacity() * sizeof(Partition) +
                 g.doors.capacity() * sizeof(Door) +
                 (g.door_offsets.capacity() + ati_offsets_.capacity()) *
                     sizeof(uint32_t) +
                 g.door_ids.capacity() * sizeof(DoorId) +
                 ati_intervals_.capacity() * sizeof(TimeInterval) +
                 g.floor_index.capacity() * sizeof(FloorIndex);
  for (const FloorIndex& index : g.floor_index) {
    total += index.cell_offsets.capacity() * sizeof(uint32_t) +
             index.cell_partitions.capacity() * sizeof(PartitionId);
  }
  return total;
}

}  // namespace itspq

#include "venue/venue.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

namespace itspq {

namespace {

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
  Status valid = venue.geometry_->CheckPartitions();
  if (valid.ok()) valid = venue.geometry_->CheckDoors();
  if (!valid.ok()) return valid;

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

Status Venue::Geometry::CheckPartitions() const {
  for (size_t i = 0; i < partitions.size(); ++i) {
    const Rect& r = partitions[i].rect;
    if (!r.IsFinite()) {
      return InvalidArgumentError("partition " + std::to_string(i) +
                                  " rectangle is not finite");
    }
    if (r.width() <= 0 || r.height() <= 0) {
      return InvalidArgumentError("partition " + std::to_string(i) +
                                  " has a degenerate rectangle");
    }
  }
  return Status::Ok();
}

Status Venue::Geometry::CheckDoors() const {
  const auto num_partitions = static_cast<PartitionId>(partitions.size());
  for (size_t i = 0; i < doors.size(); ++i) {
    const Door& d = doors[i];
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
  return Status::Ok();
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
  // Partition ids by floor, ascending within each floor's run: the ids
  // themselves when the partitions already run by floor, as a mall is
  // built, so that case allocates no scratch.
  std::vector<PartitionId> sorted;
  if (!std::is_sorted(partitions.begin(), partitions.end(),
                      [](const Partition& a, const Partition& b) {
                        return a.floor < b.floor;
                      })) {
    sorted.resize(partitions.size());
    std::iota(sorted.begin(), sorted.end(), 0);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [this](PartitionId a, PartitionId b) {
                       return partitions[a].floor < partitions[b].floor;
                     });
  }
  auto pid = [&sorted](size_t i) {
    return sorted.empty() ? static_cast<PartitionId>(i) : sorted[i];
  };
  auto floor_of = [this, &pid](size_t i) { return partitions[pid(i)].floor; };
  size_t floors = 0;
  for (size_t i = 0; i < partitions.size(); ++i) {
    floors += i == 0 || floor_of(i) != floor_of(i - 1);
  }
  floor_index.clear();
  floor_index.reserve(floors);

  for (size_t begin = 0, end = 0; begin < partitions.size(); begin = end) {
    // The floor's bounding box and partition count.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    Rect box{kInf, kInf, -kInf, -kInf};
    for (end = begin;
         end < partitions.size() && floor_of(end) == floor_of(begin); ++end) {
      const Rect& r = partitions[pid(end)].rect;
      box = Rect{std::min(box.min_x, r.min_x), std::min(box.min_y, r.min_y),
                 std::max(box.max_x, r.max_x), std::max(box.max_y, r.max_y)};
    }
    const double n = static_cast<double>(end - begin);

    FloorIndex& index = floor_index.emplace_back();
    index.floor = floor_of(begin);
    // About one square cell per partition: cell² = W·H / n, rooted
    // apart so W·H cannot overflow or underflow. A cell still not finite
    // and positive (a span past the double range) gives one cell.
    const double cell =
        std::sqrt(box.width()) * std::sqrt(box.height()) / std::sqrt(n);
    const bool sized = cell > 0 && cell < kInf;
    auto cells = [cell, n, sized](double extent) {  // clamped to [1, n]
      return sized ? static_cast<int>(std::min(
                         std::max(std::ceil(extent / cell), 1.0), n))
                   : 1;
    };
    index.origin_x = box.min_x;
    index.origin_y = box.min_y;
    index.cell = sized ? cell : 1;
    index.cols = cells(box.width());
    index.rows = cells(box.height());

    // Calls visit(id, lo, hi) with each partition of the floor and the
    // cells of its two corners: it overlaps every cell between them.
    auto for_each_placed = [&](auto visit) {
      for (size_t i = begin; i < end; ++i) {
        const Rect& r = partitions[pid(i)].rect;
        visit(pid(i), index.CellOf({r.min_x, r.min_y}),
              index.CellOf({r.max_x, r.max_y}));
      }
    };
    // While the cells would list more than the bound, halve cols and
    // rows and double the cell; 1×1 lists exactly n. Entries are counted
    // from each rectangle's corner cells, O(n) a pass. Only a grid of
    // more cells than the bound (16) can exceed it, so a side of 5+
    // cells, whose cell is under a quarter of its extent: doubling
    // stays finite.
    auto entries = [&] {
      const size_t width = static_cast<size_t>(index.cols);
      size_t total = 0;
      for_each_placed([&](PartitionId, size_t lo, size_t hi) {
        total += (hi % width - lo % width + 1) * (hi / width - lo / width + 1);
      });
      return total;
    };
    while (entries() > kMaxGridEntriesPerPartition * (end - begin)) {
      index.cell *= 2;
      index.cols = (index.cols + 1) / 2;
      index.rows = (index.rows + 1) / 2;
    }

    const size_t width = static_cast<size_t>(index.cols);
    FillCsr<PartitionId>(
        width * index.rows,
        [&](auto emit) {
          for_each_placed([&](PartitionId id, size_t lo, size_t hi) {
            const size_t c0 = lo % width, c1 = hi % width;
            for (size_t row = lo - c0; row <= hi - c1; row += width) {
              for (size_t c = row + c0; c <= row + c1; ++c) emit(c, id);
            }
          });
        },
        &index.cell_offsets, &index.cell_partitions);
  }
}

size_t Venue::FloorIndex::CellOf(const Point2d& p) const {
  // Clamped to [0, count) in the double domain, before the cast.
  auto index = [this](double v, double origin, int count) {
    const double at = (v - origin) / cell;
    return at > 0 ? static_cast<int>(std::min(at, count - 1.0)) : 0;
  };
  return static_cast<size_t>(index(p.y, origin_y, rows)) * cols +
         static_cast<size_t>(index(p.x, origin_x, cols));
}

const Venue::FloorIndex* Venue::LocationGrid(int floor) const {
  const std::vector<FloorIndex>& grids = geometry_->floor_index;
  const auto it = std::lower_bound(
      grids.begin(), grids.end(), floor,
      [](const FloorIndex& index, int f) { return index.floor < f; });
  return it != grids.end() && it->floor == floor ? &*it : nullptr;
}

std::vector<PartitionId> Venue::LocateAll(const IndoorPoint& point) const {
  std::vector<PartitionId> out;
  const FloorIndex* index = LocationGrid(point.floor);
  if (index == nullptr) return out;
  for (PartitionId pid : CsrList(index->cell_offsets, index->cell_partitions,
                                 index->CellOf(point.p))) {
    if (partition(pid).rect.Contains(point.p)) out.push_back(pid);
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

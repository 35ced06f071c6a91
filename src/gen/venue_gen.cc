#include "gen/venue_gen.h"

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace itspq {

namespace {

// Vertical stair doors at one shop centre would sit on top of each
// other (zero intra-stairwell distance); nudging them apart by parity
// charges a small, constant climb cost per floor crossed.
constexpr double kStairDoorOffsetM = 3.0;

}  // namespace

StatusOr<Venue> GenerateMall(const MallConfig& config) {
  if (config.floors < 1 || config.shop_rows < 1 || config.shops_per_row < 1 ||
      config.cross_door_stride < 1) {
    return InvalidArgumentError("mall config: counts must be positive");
  }
  const int corridors = config.shop_rows + 1;
  const double shop_row_height =
      (config.floor_size_m - corridors * config.corridor_height_m) /
      config.shop_rows;
  if (config.floor_size_m <= 0 || config.corridor_height_m <= 0 ||
      shop_row_height <= 0) {
    return InvalidArgumentError(
        "mall config: corridor bands do not fit the floor (shop row height " +
        std::to_string(shop_row_height) + " m)");
  }
  const double shop_width = config.floor_size_m / config.shops_per_row;

  Rng rng(config.seed);
  Venue::Builder builder;

  // Per-floor partition layout: corridors [0, shop_rows], then shops
  // row-major. Ids are floor-major so the same shop repeats every
  // `per_floor` ids — which is how staircase shops line up vertically.
  const int per_floor = corridors + config.shop_rows * config.shops_per_row;
  auto corridor_id = [&](int floor, int band) {
    return static_cast<PartitionId>(floor * per_floor + band);
  };
  auto shop_id = [&](int floor, int row, int i) {
    return static_cast<PartitionId>(floor * per_floor + corridors +
                                    row * config.shops_per_row + i);
  };

  for (int floor = 0; floor < config.floors; ++floor) {
    // Corridor band `b` sits below shop row `b` (and above row b-1).
    for (int band = 0; band < corridors; ++band) {
      const double y0 =
          band * (config.corridor_height_m + shop_row_height);
      builder.AddPartition(Rect{0, y0, config.floor_size_m,
                                y0 + config.corridor_height_m},
                           floor);
    }
    for (int row = 0; row < config.shop_rows; ++row) {
      const double y0 = config.corridor_height_m +
                        row * (config.corridor_height_m + shop_row_height);
      for (int i = 0; i < config.shops_per_row; ++i) {
        builder.AddPartition(Rect{i * shop_width, y0, (i + 1) * shop_width,
                                  y0 + shop_row_height},
                             floor);
      }
    }
  }

  // Horizontal doors. Positions are jittered along the shared wall so
  // different seeds yield different geometry (and non-degenerate
  // door-to-door distances).
  auto door_x = [&](int i) {
    return i * shop_width +
           rng.UniformDouble(0.2 * shop_width, 0.8 * shop_width);
  };
  for (int floor = 0; floor < config.floors; ++floor) {
    for (int row = 0; row < config.shop_rows; ++row) {
      const double y_bottom = config.corridor_height_m +
                              row * (config.corridor_height_m +
                                     shop_row_height);
      const double y_top = y_bottom + shop_row_height;
      for (int i = 0; i < config.shops_per_row; ++i) {
        builder.AddDoor(Point2d{door_x(i), y_bottom}, floor,
                        shop_id(floor, row, i), corridor_id(floor, row));
        if (i % config.cross_door_stride != 0) {
          builder.AddDoor(Point2d{door_x(i), y_top}, floor,
                          shop_id(floor, row, i),
                          corridor_id(floor, row + 1));
        }
      }
    }
  }

  // Vertical stair doors between the two staircase shops of adjacent
  // floors: shop (row 0, 0) and shop (last row, last shop).
  const std::vector<std::pair<int, int>> staircases = {
      {0, 0}, {config.shop_rows - 1, config.shops_per_row - 1}};
  for (int floor = 0; floor + 1 < config.floors; ++floor) {
    for (const auto& [row, i] : staircases) {
      const PartitionId below = shop_id(floor, row, i);
      const PartitionId above = shop_id(floor + 1, row, i);
      const double y0 = config.corridor_height_m +
                        row * (config.corridor_height_m + shop_row_height);
      const Point2d center{(i + 0.5) * shop_width,
                           y0 + 0.5 * shop_row_height};
      const double offset =
          (floor % 2 == 0) ? kStairDoorOffsetM : -kStairDoorOffsetM;
      builder.AddDoor(Point2d{center.x, center.y + offset}, floor, below,
                      above);
    }
  }

  return std::move(builder).Build();
}

}  // namespace itspq

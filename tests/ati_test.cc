#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/time.h"
#include "itgraph/ati.h"

namespace itspq {
namespace {

TEST(AtiSetTest, HalfOpenBoundaries) {
  const AtiSet ati_set = *AtiSet::Create({MakeInterval(8, 0, 12, 0)});
  const AtiRow ati = ati_set.row();
  // [start, end): the opening instant is in, the closing instant is out.
  EXPECT_TRUE(ati.ContainsTimeOfDay(Instant::FromHMS(8).seconds()));
  EXPECT_TRUE(ati.ContainsTimeOfDay(Instant::FromHMS(11, 59, 59).seconds()));
  EXPECT_FALSE(ati.ContainsTimeOfDay(Instant::FromHMS(12).seconds()));
  EXPECT_FALSE(ati.ContainsTimeOfDay(Instant::FromHMS(7, 59, 59).seconds()));
}

TEST(AtiSetTest, MultipleIntervalsWithGap) {
  const AtiSet ati_set = *AtiSet::Create(
      {MakeInterval(8, 0, 12, 0), MakeInterval(13, 0, 18, 0)});
  const AtiRow ati = ati_set.row();
  EXPECT_TRUE(ati.ContainsTimeOfDay(Instant::FromHMS(9).seconds()));
  EXPECT_FALSE(ati.ContainsTimeOfDay(Instant::FromHMS(12, 30).seconds()));
  EXPECT_TRUE(ati.ContainsTimeOfDay(Instant::FromHMS(13).seconds()));
  EXPECT_FALSE(ati.ContainsTimeOfDay(Instant::FromHMS(18).seconds()));
}

TEST(AtiSetTest, MidnightWrapSplits) {
  // A bar open 22:00 -> 02:00 wraps past midnight.
  const AtiSet ati_set = *AtiSet::Create({MakeInterval(22, 0, 2, 0)});
  const AtiRow ati = ati_set.row();
  EXPECT_TRUE(ati.ContainsTimeOfDay(Instant::FromHMS(23).seconds()));
  EXPECT_TRUE(ati.ContainsTimeOfDay(0.0));
  EXPECT_TRUE(ati.ContainsTimeOfDay(Instant::FromHMS(1, 59, 59).seconds()));
  EXPECT_FALSE(ati.ContainsTimeOfDay(Instant::FromHMS(2).seconds()));
  EXPECT_FALSE(ati.ContainsTimeOfDay(Instant::FromHMS(12).seconds()));
  EXPECT_TRUE(ati.ContainsTimeOfDay(Instant::FromHMS(22).seconds()));
  // And the day boundary itself: 24:00 == 00:00, inside.
  EXPECT_TRUE(ati.ContainsTimeOfDay(kSecondsPerDay));
}

TEST(AtiSetTest, AbsoluteTimesWrapIntoTheDay) {
  const AtiSet ati_set = *AtiSet::Create({MakeInterval(8, 0, 12, 0)});
  const AtiRow ati = ati_set.row();
  // Tomorrow 09:00, projected from a long walk.
  EXPECT_TRUE(ati.ContainsTimeOfDay(kSecondsPerDay +
                                    Instant::FromHMS(9).seconds()));
  EXPECT_FALSE(ati.ContainsTimeOfDay(kSecondsPerDay +
                                     Instant::FromHMS(13).seconds()));
}

TEST(AtiSetTest, OverlappingIntervalsMerge) {
  const AtiSet ati_set = *AtiSet::Create(
      {MakeInterval(8, 0, 12, 0), MakeInterval(11, 0, 14, 0)});
  const AtiRow ati = ati_set.row();
  EXPECT_EQ(ati.starts().size(), 1u);
  EXPECT_TRUE(ati.ContainsTimeOfDay(Instant::FromHMS(12).seconds()));
  EXPECT_FALSE(ati.ContainsTimeOfDay(Instant::FromHMS(14).seconds()));
}

TEST(AtiSetTest, EmptyAndFullDayAreAlwaysOpen) {
  const AtiSet empty_set = *AtiSet::Create({});
  const AtiRow empty = empty_set.row();
  EXPECT_TRUE(empty.IsAlwaysOpen());
  EXPECT_TRUE(empty.ContainsTimeOfDay(Instant::FromHMS(3).seconds()));

  const AtiSet full_set = *AtiSet::Create({TimeInterval{0, kSecondsPerDay}});
  const AtiRow full = full_set.row();
  EXPECT_TRUE(full.IsAlwaysOpen());
  EXPECT_TRUE(full.InteriorBoundaries().empty());
}

TEST(AtiSetTest, StartAtDayEndNormalisesToMidnight) {
  // [24:00, 01:00) is [00:00, 01:00); no phantom 86400 boundary.
  const AtiSet ati_set =
      *AtiSet::Create({TimeInterval{kSecondsPerDay, 3600.0}});
  const AtiRow ati = ati_set.row();
  EXPECT_TRUE(ati.ContainsTimeOfDay(0.0));
  EXPECT_TRUE(ati.ContainsTimeOfDay(3599.0));
  EXPECT_FALSE(ati.ContainsTimeOfDay(3600.0));
  const std::vector<double> boundaries = ati.InteriorBoundaries();
  ASSERT_EQ(boundaries.size(), 1u);
  EXPECT_DOUBLE_EQ(boundaries[0], 3600.0);
}

TEST(AtiSetTest, RejectsMalformedIntervals) {
  EXPECT_FALSE(AtiSet::Create({TimeInterval{-1, 100}}).ok());
  EXPECT_FALSE(AtiSet::Create({TimeInterval{0, kSecondsPerDay + 1}}).ok());
  EXPECT_FALSE(AtiSet::Create({TimeInterval{300, 300}}).ok());
  // [24:00, 00:00) is the same empty instant as [00:00, 00:00).
  EXPECT_FALSE(AtiSet::Create({TimeInterval{kSecondsPerDay, 0}}).ok());
  // Every comparison with NaN is false: a NaN bound must fail the range
  // check before the sort sees it.
  const double nan = std::nan("");
  for (const TimeInterval& iv : {TimeInterval{nan, 3600},
                                 TimeInterval{3600, nan}}) {
    EXPECT_EQ(AtiSet::Create({TimeInterval{0, 60}, iv}).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(AtiSetTest, InteriorBoundariesExcludeDayEdges) {
  const AtiSet ati_set = *AtiSet::Create({MakeInterval(22, 0, 2, 0)});
  const AtiRow ati = ati_set.row();
  // Split into [0, 2:00) and [22:00, 24:00); boundaries at 0 and 86400
  // are not checkpoints.
  const std::vector<double> boundaries = ati.InteriorBoundaries();
  ASSERT_EQ(boundaries.size(), 2u);
  EXPECT_DOUBLE_EQ(boundaries[0], Instant::FromHMS(2).seconds());
  EXPECT_DOUBLE_EQ(boundaries[1], Instant::FromHMS(22).seconds());
}

// A lone in-day, non-wrapping interval takes AppendNormalised's fast
// path; the same interval listed twice takes the general path (check,
// sort, merge). Both append the same row after what the store already
// holds, or both refuse the input with the store untouched.
TEST(AtiSetTest, OneIntervalFastPathMatchesTheGeneralPath) {
  const double nan = std::nan("");
  const double day = kSecondsPerDay;
  struct Case {
    TimeInterval interval;
    std::vector<double> starts, ends;  // the row, empty when refused
    bool ok;
  };
  const Case cases[] = {
      {{3600, day}, {3600}, {day}, true},        // [x, 86400]
      {{day, 7200}, {0}, {7200}, true},          // {86400, y}
      {{8 * 3600.0, 17 * 3600.0}, {8 * 3600.0}, {17 * 3600.0}, true},
      {{0, 3600}, {0}, {3600}, true},
      {{0, day}, {}, {}, true},                  // full day: always open
      {{22 * 3600.0, 2 * 3600.0}, {0, 22 * 3600.0}, {2 * 3600.0, day}, true},
      {{nan, 3600}, {}, {}, false},
      {{3600, nan}, {}, {}, false},
      {{nan, nan}, {}, {}, false},
      {{3600, 3600}, {}, {}, false},             // zero length
      {{day, 0}, {}, {}, false},                 // [24:00, 00:00)
      {{day, day}, {}, {}, false},
      {{-1, 100}, {}, {}, false},
      {{0, day + 1}, {}, {}, false},
  };
  for (const Case& c : cases) {
    const TimeInterval& iv = c.interval;
    SCOPED_TRACE("[" + std::to_string(iv.start) + ", " +
                 std::to_string(iv.end) + ")");
    const TimeInterval once[] = {iv};
    const TimeInterval twice[] = {iv, iv};
    std::vector<TimeInterval> scratch;
    // One row already stored ahead of the appended one.
    std::vector<double> fast_starts = {1}, fast_ends = {2};
    std::vector<double> general_starts = {1}, general_ends = {2};
    const Status fast = AtiSet::AppendNormalised(
        Span<TimeInterval>(once, 1), &scratch, &fast_starts, &fast_ends);
    const Status general =
        AtiSet::AppendNormalised(Span<TimeInterval>(twice, 2), &scratch,
                                 &general_starts, &general_ends);
    EXPECT_EQ(fast.ok(), c.ok);
    EXPECT_EQ(fast.code(), general.code());
    EXPECT_EQ(fast_starts, general_starts);
    EXPECT_EQ(fast_ends, general_ends);
    std::vector<double> starts = {1}, ends = {2};
    starts.insert(starts.end(), c.starts.begin(), c.starts.end());
    ends.insert(ends.end(), c.ends.begin(), c.ends.end());
    EXPECT_EQ(fast_starts, starts);
    EXPECT_EQ(fast_ends, ends);
  }
}

}  // namespace
}  // namespace itspq

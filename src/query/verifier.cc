#include "query/verifier.h"

#include <algorithm>
#include <string>

#include "common/time.h"

namespace itspq {
namespace {

// Rule 1 by binary search for the last interval starting at or before
// the arrival, deliberately not the search's forward scan
// (AtiRow::ContainsTimeOfDay), so the check stays independent of it.
bool Passable(const AtiRow& ati, double arrival_seconds) {
  if (ati.IsAlwaysOpen()) return true;
  const double t = WrapTimeOfDay(arrival_seconds);
  const Span<double> starts = ati.starts();
  const size_t after =
      std::upper_bound(starts.begin(), starts.end(), t) - starts.begin();
  return after > 0 && t < ati.ends()[after - 1];
}

}  // namespace

Status VerifyPath(const ItGraph& graph, const Path& path) {
  for (const PathStep& step : path.steps()) {
    if (!Passable(graph.Ati(step.door), step.arrival_seconds)) {
      return FailedPreconditionError(
          "rule 1 violated: door " + std::to_string(step.door) +
          " is closed at arrival (" +
          std::to_string(WrapTimeOfDay(step.arrival_seconds)) + "s)");
    }
  }
  return Status::Ok();
}

}  // namespace itspq

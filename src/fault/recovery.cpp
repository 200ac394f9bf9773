#include "fault/recovery.h"

#include <algorithm>

namespace aoft::fault {

std::vector<cube::NodeId> persistent_suspects(std::span<const Diagnosis> diagnoses) {
  std::vector<cube::NodeId> common;
  bool any = false;
  for (const auto& d : diagnoses) {
    // An inconclusive diagnosis (no suspects) carries no exculpatory
    // evidence; skipping it keeps the intersection from vacuously emptying.
    if (d.suspects.empty()) continue;
    if (!any) {
      common = d.suspects;  // already ascending
      any = true;
      continue;
    }
    std::vector<cube::NodeId> next;
    std::set_intersection(common.begin(), common.end(), d.suspects.begin(),
                          d.suspects.end(), std::back_inserter(next));
    common = std::move(next);
    if (common.empty()) break;
  }
  return any ? common : std::vector<cube::NodeId>{};
}

}  // namespace aoft::fault

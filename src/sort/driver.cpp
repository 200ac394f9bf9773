#include "sort/driver.h"

#include <algorithm>

#include "sort/blockops.h"

namespace aoft::sort {

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kCorrect: return "correct";
    case Outcome::kFailStop: return "fail-stop";
    case Outcome::kSilentWrong: return "SILENT-WRONG";
  }
  return "?";
}

Outcome classify(const SortRun& run, std::span<const Key> input) {
  if (run.fail_stop()) return Outcome::kFailStop;
  // A correct output is exactly the input sorted, so one sort of a copy of
  // the input and one compare reject a wrong size, order or multiset alike.
  std::vector<Key> sorted(input.begin(), input.end());
  blockops::sort_dir(sorted, true);
  return sorted == run.output ? Outcome::kCorrect : Outcome::kSilentWrong;
}

std::optional<ResumeState> make_resume_state(
    std::span<const StageCheckpoint> checkpoints) {
  auto certified = [&](int stage) -> const StageCheckpoint* {
    for (const auto& ck : checkpoints)
      if (ck.certified && ck.stage == stage) return &ck;
    return nullptr;
  };
  int max_stage = -1;
  for (const auto& ck : checkpoints)
    if (ck.certified) max_stage = std::max(max_stage, ck.stage);
  for (int k = max_stage; k >= 1; --k) {
    const auto* ck = certified(k);
    const auto* prev = certified(k - 1);
    if (ck == nullptr || prev == nullptr) continue;
    return ResumeState{k, ck->state, prev->state};
  }
  return std::nullopt;
}

}  // namespace aoft::sort

#include "sort/driver.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

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
  return is_sort_of(run.output, input) ? Outcome::kCorrect
                                       : Outcome::kSilentWrong;
}

void require_cube_keys(const char* what, int dim, std::size_t block,
                       std::size_t got) {
  const std::size_t want = (std::size_t{1} << dim) * block;
  if (got == want) return;
  char msg[192];
  std::snprintf(msg, sizeof msg,
                "%s: expected %zu keys (2^%d nodes x block %zu), got %zu", what,
                want, dim, block, got);
  throw std::invalid_argument(msg);
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

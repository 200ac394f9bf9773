#include "obs/trace.h"

#include <iterator>

namespace aoft::obs {

namespace {

// Names double as the JSONL wire encoding — order must match the enum.
constexpr const char* kEvNames[] = {
    "run_begin",   "run_end",     "stage",       "iter",
    "phi_p",       "phi_f",       "phi_c",       "pair_check",
    "timeout",     "watchdog",    "error",       "drop",
    "ckpt_upload", "ckpt_certify", "attempt",    "rollback",
    "restart",     "reconfigure", "host_fallback", "scenario",
    "link",
};

}  // namespace

const char* to_string(Ev e) {
  const auto i = static_cast<std::size_t>(e);
  return i < std::size(kEvNames) ? kEvNames[i] : "?";
}

bool ev_from_string(std::string_view s, Ev& out) {
  for (std::size_t i = 0; i < std::size(kEvNames); ++i) {
    if (s == kEvNames[i]) {
      out = static_cast<Ev>(i);
      return true;
    }
  }
  return false;
}

void Tracer::append(Tracer&& other) {
  if (events_.empty()) {
    events_ = std::move(other.events_);
  } else {
    events_.insert(events_.end(),
                   std::move_iterator(other.events_.begin()),
                   std::move_iterator(other.events_.end()));
  }
  other.events_.clear();
}

}  // namespace aoft::obs

#include "sort/keys.h"

#include "sort/blockops.h"

namespace aoft::sort {

bool is_permutation_of(std::span<const Key> a, std::span<const Key> b) {
  if (a.size() != b.size()) return false;
  std::vector<Key> sa(a.begin(), a.end());
  std::vector<Key> sb(b.begin(), b.end());
  sim::KeyPool pool;  // one scratch serves both sorts; freed on return
  blockops::sort_dir(sa, true, pool);
  blockops::sort_dir(sb, true, pool);
  return sa == sb;
}

}  // namespace aoft::sort

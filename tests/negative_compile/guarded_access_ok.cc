// Positive control for the negative-compile check: identical shape to
// guarded_access_fail.cc but taking the lock correctly, so it MUST
// compile under -Wthread-safety -Werror=thread-safety. If this one fails,
// the sibling's failure proves nothing (broken include path, broken
// flags), so tests/CMakeLists.txt requires compile-ok here before
// trusting the compile-fail there.

#include "util/sync.h"

namespace {

struct Guarded {
  mergepurge::Mutex mu{mergepurge::lockrank::kUnranked};
  int value MERGEPURGE_GUARDED_BY(mu) = 0;
};

}  // namespace

int main() {
  Guarded g;
  mergepurge::MutexLock lock(g.mu);
  return g.value;
}

// Negative-compile fixture: reads a GUARDED_BY field without holding its
// Mutex. tests/CMakeLists.txt try_compiles this under clang with
// -Wthread-safety -Werror=thread-safety and FAILS THE CONFIGURE if it
// compiles — i.e. the build proves the analysis still rejects the exact
// bug class the annotation layer exists to catch. Do not "fix" this file.

#include "util/sync.h"

namespace {

struct Guarded {
  mergepurge::Mutex mu{mergepurge::lockrank::kUnranked};
  int value MERGEPURGE_GUARDED_BY(mu) = 0;
};

}  // namespace

int main() {
  Guarded g;
  return g.value;  // Unannotated guarded access: must not compile.
}

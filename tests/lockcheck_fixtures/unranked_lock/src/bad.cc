#include "util/sync.h"
namespace mergepurge {
class Counter {
 private:
  Mutex mu_{lockrank::kUnranked};
  int n_ = 0;
};
}  // namespace mergepurge

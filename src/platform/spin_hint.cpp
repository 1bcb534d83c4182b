#include "src/platform/spin_hint.hpp"

#include <sched.h>

namespace lockin {

void SpinYield() { sched_yield(); }

}  // namespace lockin

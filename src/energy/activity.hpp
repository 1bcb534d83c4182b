// Hardware-context activity states.
//
// Section 3.1 of the paper: "once a core is active, the core consumes a
// certain amount of power that cannot be avoided", and the waiting technique
// determines how much. Each state below corresponds to one of the waiting or
// working modes the paper measures (Figures 2-5), and the power model maps a
// vector of these states to watts.
#ifndef SRC_ENERGY_ACTIVITY_HPP_
#define SRC_ENERGY_ACTIVITY_HPP_

namespace lockin {

enum class ActivityState {
  kInactive,     // context idle and OS-idle (low-power C-state)
  kSleeping,     // thread blocked in futex; context released to the OS
  kDeepSleep,    // long futex sleep; context in a deep idle state (sec 4.3)
  kWorking,      // running application code (memory-intensive calibration)
  kCritical,     // running a critical section (compute, cache-resident)
  kSpinGlobal,   // busy-wait with atomic ops on the lock word ("global")
  kSpinLocal,    // busy-wait on a local cached copy ("local")
  kSpinPause,    // local spinning with x86 pause ("local-pause")
  kSpinMbar,     // local spinning with a memory barrier ("local-mbar")
  kSpinDvfsMin,  // local spinning at the minimum voltage-frequency point
  kMwait,        // blocked in monitor/mwait (hardware sleep, context held)
  kKernel,       // executing futex syscall path in the kernel
};

inline constexpr int kActivityStateCount = 12;

}  // namespace lockin

#endif  // SRC_ENERGY_ACTIVITY_HPP_

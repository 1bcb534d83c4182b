// LockLint compile-time thread-safety annotations.
//
// A thin LL_-prefixed wrapper over Clang's Thread Safety Analysis attribute
// set (Hutchins et al., "C/C++ Thread Safety Analysis"; the CAPABILITY /
// GUARDED_BY system behind -Wthread-safety). Every lock in src/locks/ is an
// annotated capability, the guards are scoped capabilities, and the
// mini-systems mark their protected state LL_GUARDED_BY(lock), so a missed
// lock acquisition is a *compile error* in the -Wthread-safety -Werror CI
// build (see the locklint job in .github/workflows/ci.yml and the
// negative-compilation cases under tests/negative_compile/).
//
// Off Clang (or with the analysis disabled) every macro expands to nothing,
// so GCC builds and the measured hot paths are untouched. Keep these macros
// semantically faithful to the upstream names -- the Clang documentation's
// mutex.h is the reference -- so anyone who knows GUARDED_BY can read this
// codebase.
//
// Conventions used across the repo:
//   * lock types:  class LL_CAPABILITY("mutex") FooLock { ...
//                    void lock() LL_ACQUIRE();
//                    void unlock() LL_RELEASE(); };
//   * guards:      class LL_SCOPED_CAPABILITY Guard { Guard(L& l) LL_ACQUIRE(l);
//                    ~Guard() LL_RELEASE(); };
//   * data:        std::map<...> map_ LL_GUARDED_BY(*lock_);
//   * helpers:     void RebalanceLocked() LL_REQUIRES(*lock_);
//   * quiescent accessors (read owner-written state after threads joined)
//     carry LL_NO_THREAD_SAFETY_ANALYSIS plus a comment saying why.
#ifndef SRC_PLATFORM_THREAD_ANNOTATIONS_HPP_
#define SRC_PLATFORM_THREAD_ANNOTATIONS_HPP_

// Clang exposes the whole attribute family behind thread_safety_attributes;
// gate on the capability attribute specifically so a future compiler that
// implements only part of the set does not break the build.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define LL_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef LL_THREAD_ANNOTATION
#define LL_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

// --- Type annotations --------------------------------------------------------

// Marks a class as a capability (a lock). The string names the capability
// kind in diagnostics: "acquiring mutex 'lock_' ...".
#define LL_CAPABILITY(x) LL_THREAD_ANNOTATION(capability(x))

// Marks an RAII class whose constructor acquires and destructor releases a
// capability (HandleGuard, LockGuard).
#define LL_SCOPED_CAPABILITY LL_THREAD_ANNOTATION(scoped_lockable)

// --- Data annotations --------------------------------------------------------

// Reads and writes of the member require holding the named capability.
#define LL_GUARDED_BY(x) LL_THREAD_ANNOTATION(guarded_by(x))

// --- Function annotations ----------------------------------------------------

// The function acquires the capability (itself when no argument) and holds
// it on return.
#define LL_ACQUIRE(...) LL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

// The function releases the capability. The no-argument form on a scoped
// capability's destructor releases whatever the scope holds.
#define LL_RELEASE(...) LL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// The caller must hold the capability for the duration of the call. This
// is how "called with lock_ held" helper contracts become machine-checked.
#define LL_REQUIRES(...) LL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

// Escape hatch: disables the analysis inside the function body while the
// declaration's acquire/release annotations keep applying at call sites.
// Used for (a) forwarding wrappers whose body acquires a *different*
// capability than the one they advertise (LockAdapter: the wrapper IS the
// capability callers see, the body takes the wrapped lock),
// and (b) quiescent diagnostics accessors that read owner-written state
// after the owning threads joined.
#define LL_NO_THREAD_SAFETY_ANALYSIS LL_THREAD_ANNOTATION(no_thread_safety_analysis)

// True when the annotations are live (Clang); lets tests and negative-
// compilation cases assert the analysis is actually armed.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define LL_ANNOTATIONS_ENABLED 1
#endif
#endif
#ifndef LL_ANNOTATIONS_ENABLED
#define LL_ANNOTATIONS_ENABLED 0
#endif

#endif  // SRC_PLATFORM_THREAD_ANNOTATIONS_HPP_

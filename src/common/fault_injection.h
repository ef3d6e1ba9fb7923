// Test-only fault injection for the planning stack. Library code marks
// interesting points — synthesis frontier layers, pipeline stages,
// cache-store I/O, the thread pool's deferred commit — with
// MaybeInjectFault("point.name"); tests and benches install a process-wide
// hook that can stall (sleep) or fail (throw) at chosen points, which is
// how tests/service_faults_test.cc holds a request in flight long enough
// to cancel it, or makes a cache owner's synthesis die so its waiters must
// re-dispatch.
//
// Production builds carry the call sites but never install a hook, so a
// checkpoint costs a single relaxed atomic load — the mechanism is inert
// unless a test arms it. Installation is not synchronized against in-flight
// work: install before submitting the requests you want to perturb and
// uninstall after draining them (FaultScope does both).
#ifndef P2_COMMON_FAULT_INJECTION_H_
#define P2_COMMON_FAULT_INJECTION_H_

#include <functional>
#include <string_view>
#include <utility>

namespace p2 {

class FaultInjector {
 public:
  /// Called with the point name; may sleep to stall the caller or throw to
  /// fail it (the exception propagates out of MaybeInjectFault as if the
  /// instrumented code itself threw). Must be thread-safe: points fire
  /// concurrently from pool workers.
  using Hook = std::function<void(std::string_view point)>;

  /// Installs `hook` process-wide, replacing any previous hook.
  static void Install(Hook hook);
  /// Removes the hook; later checkpoints are inert again.
  static void Uninstall();
};

/// The checkpoint library code plants. No-op (one relaxed atomic load)
/// unless a hook is installed.
void MaybeInjectFault(std::string_view point);

/// RAII installer for tests: installs on construction, uninstalls on
/// destruction, so a throwing test never leaks its hook into later tests.
class FaultScope {
 public:
  explicit FaultScope(FaultInjector::Hook hook) {
    FaultInjector::Install(std::move(hook));
  }
  ~FaultScope() { FaultInjector::Uninstall(); }

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
};

}  // namespace p2

#endif  // P2_COMMON_FAULT_INJECTION_H_

// Test-only fault-injection points (docs/SERVICE.md "Failure semantics").
//
// The campaign service's resilience claims -- a worker killed mid-unit, a
// journal line torn mid-write, a cache object silently corrupted on disk --
// are only claims until a test can *cause* each failure on demand.  This
// layer provides named fault points that production code plants at the
// spots where those failures would bite:
//
//   switch (util::fault::hit("campaign.journal.append")) { ... }
//
// A point is inert until the process is armed, either programmatically
// (tests call `arm("point=action@N")`) or through the DRAMSTRESS_FAULTS
// environment variable (the CI service job kills a live daemon this way).
// Disarmed cost is one branch on a plain global flag -- no lock, no lookup,
// nothing allocated -- so the hooks can sit on hot paths permanently.
//
// Spec grammar (comma-separated):   point=action[@N]
//   * `point`  the fault-point name as planted in the code;
//   * `action` one of
//       throw    throw util::fault::Injected at the point (a failing
//                computation attempt: exercises retry/quarantine),
//       kill     raise(SIGKILL): the process dies exactly there (exercises
//                crash-resume; the CI job restarts the daemon),
//       tear     returned to the caller, which applies the fault to its
//                data (Journal::append writes half a record, then throws),
//       corrupt  returned to the caller (ResultCache::store writes a
//                damaged object and reports success);
//   * `@N`     fire on the N-th hit of the point (1-based, default 1);
//              each entry fires exactly once.  Entries for the same point
//              count hits independently, so `p=throw@1,p=throw@2` fails
//              the first two hits of `p`.
//
// Arming is not thread-safe against concurrently running fault points:
// arm before the workers start, disarm after they join (the tests' and the
// CLI's natural order).
#pragma once

#include <string>

#include "util/error.hpp"

namespace dramstress::util::fault {

/// Thrown by `throw`-action points; derives from Error so the campaign
/// retry loop treats it exactly like a real ConvergenceError.
class Injected : public Error {
public:
  explicit Injected(const std::string& what) : Error(what) {}
};

/// What a firing fault point asks of its caller.  Throw/Kill never reach
/// the caller (hit() throws / dies); Tear and Corrupt are data faults the
/// planting site applies itself.
enum class Action { None, Throw, Kill, Tear, Corrupt };

namespace detail {
extern bool g_armed;  // true while any entry is armed (set before workers
                      // start, cleared after they join)
Action hit_armed(const char* point);
}  // namespace detail

/// The fault point: returns the pending data-fault action for `point`
/// (None when disarmed or not matched), throws Injected for a `throw`
/// entry, dies for a `kill` entry.
inline Action hit(const char* point) {
  return detail::g_armed ? detail::hit_armed(point) : Action::None;
}

/// Arm the process with a fault spec ("" disarms).  Replaces any previous
/// arming; throws ModelError on a malformed spec.
void arm(const std::string& spec);

/// Arm from the DRAMSTRESS_FAULTS environment variable (no-op when unset
/// or empty).  Called once at CLI startup, before any worker exists.
void arm_from_env();

/// Disarm every entry (equivalent to arm("")).
void disarm();

}  // namespace dramstress::util::fault

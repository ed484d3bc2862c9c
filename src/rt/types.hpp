// Common fixed-width aliases and error-checking helpers shared by every
// chaos-rt module.
#pragma once

#include <cstdint>
#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace chaos {

using i8 = std::int8_t;
using i32 = std::int32_t;
using i64 = std::int64_t;
using u8 = std::uint8_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using f64 = double;

/// Thrown on any violated runtime-library precondition or internal invariant.
class ChaosError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown out of blocked barrier waits when a sibling logical process of the
/// same Machine has thrown: instead of deadlocking, every waiter is released
/// with this error and Machine::run rethrows the sibling's original
/// exception.
class MachinePoisoned : public ChaosError {
 public:
  using ChaosError::ChaosError;
};

/// Thrown when a barrier arrival waits longer than the machine's configured
/// deadline: some sibling rank is stuck, too slow, or never going to
/// arrive. Carries which ranks were still missing, the barrier pass, and
/// the waiting rank's virtual clock, so a long-running service can report
/// exactly who stalled instead of hanging. Peers are subsequently poisoned
/// exactly as for MachinePoisoned (the timeout propagates out of the SPMD
/// body and Machine::execute poisons the barrier).
class MachineTimeout : public ChaosError {
 public:
  MachineTimeout(const std::string& what, std::vector<int> missing_ranks,
                 u32 epoch, f64 virtual_time_us)
      : ChaosError(what),
        missing_ranks(std::move(missing_ranks)),
        epoch(epoch),
        virtual_time_us(virtual_time_us) {}

  std::vector<int> missing_ranks;  ///< ranks that had not arrived
  u32 epoch = 0;                   ///< barrier pass number
  f64 virtual_time_us = 0.0;       ///< waiter's virtual clock at the timeout
};

/// Thrown by an armed FaultPlan Throw/Permanent fault at its injection site;
/// tests use the distinct type to tell the injected failure from collateral
/// poisoning. Carries which rank detonated and at which site (numeric
/// rt::FaultSite; -1 when unknown) so a supervisor that gives up can name
/// the failed rank in its PermanentFault classification.
class FaultInjected : public ChaosError {
 public:
  explicit FaultInjected(const std::string& what, int rank = -1, int site = -1)
      : ChaosError(what), rank(rank), site(site) {}

  int rank = -1;  ///< logical rank that hit the armed site
  int site = -1;  ///< numeric rt::FaultSite, -1 unknown
};

/// Thrown by core::Supervisor when a retryable failure survives the whole
/// retry budget: the fault is reclassified from transient to permanent, the
/// named rank is presumed dead, and the caller is expected to degrade —
/// shrink the machine to the survivors and restore from the last partner
/// checkpoint (DESIGN.md §13) — rather than retry again. Deliberately NOT
/// rt::is_retryable: a nested supervisor must propagate it, not spin on it.
class PermanentFault : public ChaosError {
 public:
  PermanentFault(const std::string& what, int rank, int site)
      : ChaosError(what), rank(rank), site(site) {}

  int rank = -1;  ///< presumed-dead logical rank, -1 if unattributable
  int site = -1;  ///< numeric rt::FaultSite of the last failure, -1 unknown
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const std::string& msg,
                                      const std::source_location& loc) {
  std::ostringstream os;
  os << loc.file_name() << ':' << loc.line() << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw ChaosError(os.str());
}
}  // namespace detail

/// Always-on invariant check (irregular-access bookkeeping bugs corrupt data
/// silently; the cost of these branches is negligible next to communication).
#define CHAOS_CHECK(expr, ...)                                           \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::chaos::detail::check_failed(#expr, ::std::string{__VA_ARGS__},   \
                                    ::std::source_location::current());  \
    }                                                                    \
  } while (0)

}  // namespace chaos

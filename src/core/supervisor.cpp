#include "core/supervisor.hpp"

#include <chrono>
#include <sstream>
#include <thread>

namespace chaos::core {

namespace {

/// Builds the typed escalation for a phase whose retryable failure outlived
/// the retry budget: name the rank the evidence points at (the injected
/// fault's detonation rank, or the first rank a watchdog reported missing)
/// and the fault site if one is known.
[[noreturn]] void throw_permanent(const char* phase_name,
                                  const std::exception_ptr& error,
                                  int attempts) {
  int rank = -1;
  int site = -1;
  std::string cause = "unknown error";
  try {
    std::rethrow_exception(error);
  } catch (const FaultInjected& f) {
    rank = f.rank;
    site = f.site;
    cause = f.what();
  } catch (const MachineTimeout& t) {
    if (!t.missing_ranks.empty()) rank = t.missing_ranks.front();
    cause = t.what();
  } catch (const std::exception& e) {
    cause = e.what();
  } catch (...) {
  }
  std::ostringstream os;
  os << "permanent fault: phase '" << phase_name << "' failed " << attempts
     << " attempt" << (attempts == 1 ? "" : "s") << "; classifying rank "
     << rank << " as permanently dead (last error: " << cause << ")";
  throw PermanentFault(os.str(), rank, site);
}

}  // namespace

Supervisor::Supervisor(rt::Machine& machine, rt::RetryPolicy policy)
    : machine_(&machine), policy_(policy) {
  CHAOS_CHECK(policy_.max_attempts >= 1,
              "supervisor: policy needs at least one attempt");
}

void Supervisor::run_phase(const char* phase_name,
                           const std::function<void(rt::Process&)>& body) {
  int failed = 0;
  while (true) {
    ++stats_.attempts;
    try {
      machine_->run(body);
      ++stats_.phases;
      if (failed > 0) ++stats_.recoveries;
      return;
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      ++failed;
      // Always recover: even on the escalation path the caller gets back a
      // certified-clean machine.
      machine_->recover();
      if (!rt::is_retryable(error)) {
        // Deterministic breakage (CHAOS_CHECK, logic bug) — no rank to
        // blame, nothing to degrade. Rethrown untyped, as before.
        ++stats_.gave_up;
        std::rethrow_exception(error);
      }
      if (failed >= policy_.max_attempts) {
        // The retry budget falsified the transient hypothesis: escalate to
        // the typed permanent classification instead of a bare rethrow, so
        // the caller can shrink around the named rank (DESIGN.md §13).
        ++stats_.gave_up;
        throw_permanent(phase_name, error, failed);
      }
      ++stats_.retries;
      const f64 ms = policy_.backoff_ms(failed);
      stats_.backoff_wall_ms += ms;
      if (ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<f64, std::milli>(ms));
      }
    }
  }
}

}  // namespace chaos::core

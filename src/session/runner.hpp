// The unified session lifecycle: prepare → run → Report.
//
// A SessionRunner is the adapter shape all five legacy runner families
// (and the streaming pipeline) reduce to.  prepare() does the expensive
// deterministic setup — prototypes, solvers, traces — against the
// session's isolated context; run() executes the event-driven session
// and distills its result into the variant-independent Report.  The
// split exists so a future warm-pool can prepare ahead of run, and so
// the fleet driver can account the two phases separately.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "runtime/context.hpp"
#include "session/spec.hpp"

namespace cyclops::session {

/// Variant-independent distillation of one session.  Every field is a
/// pure function of the SessionSpec (deterministic code, isolated
/// context), so fleet runs compare byte-identical to alone runs —
/// including the doubles, compared with ==, never a tolerance.
struct Report {
  Variant variant = Variant::kChannel;
  std::uint64_t seed = 0;
  /// Session events: slots or ticks of a slot-grid session, events
  /// dispatched by the scheduler of a stream or online_recal one.
  std::uint64_t events = 0;
  /// Work-unit count (sampling slots / arena serve slots / frames — the
  /// variant's natural denominator), as the session's runner returns it.
  std::uint64_t slots = 0;
  /// Fraction of slots the link/service was delivering (variant's
  /// closest analogue: up fraction, served fraction, SLA fraction,
  /// goodput/offered).
  double served_fraction = 0.0;
  double avg_rate_gbps = 0.0;
  /// Handovers / realignments / mode switches — the variant's control-
  /// plane activity count.
  std::uint64_t switches = 0;
  /// obs::to_jsonl of the session registry, captured when the caller
  /// asked for it (SessionExecution::capture_metrics).  Byte-stable.
  std::string metrics_jsonl;
};

class SessionRunner {
 public:
  virtual ~SessionRunner() = default;
  virtual const char* name() const noexcept = 0;
  /// Deterministic setup: everything derivable from (spec, ctx) that the
  /// run itself should not re-pay — prototypes, solvers, traces, tracks.
  virtual void prepare(runtime::Context& ctx) = 0;
  /// Executes the session.  Fills the variant-specific Report fields;
  /// run_session() stamps variant/seed and captures metrics.
  virtual Report run(runtime::Context& ctx) = 0;
};

/// Maps a spec onto a concrete runner.  session/catalog.hpp provides the
/// standard catalog; tests and benches can substitute their own.
using RunnerFactory =
    std::function<std::unique_ptr<SessionRunner>(const SessionSpec&)>;

}  // namespace cyclops::session

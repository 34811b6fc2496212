#include "link/multi_tx.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "event/scheduler.hpp"
#include "link/event_session.hpp"
#include "obs/config.hpp"
#include "phy/fso_channel.hpp"
#include "session/lifecycle.hpp"

namespace cyclops::link {

TxChain make_tx_chain(std::uint64_t seed, const geom::Vec3& tx_position,
                      const sim::PrototypeConfig& base_config,
                      const runtime::Context& ctx) {
  sim::PrototypeConfig config = base_config;
  config.tx_position = tx_position;
  sim::Prototype proto = sim::make_prototype(seed, config);
  util::Rng rng(seed * 2654435761ULL + 1);
  core::CalibrationResult calibration =
      core::calibrate_prototype(proto, core::CalibrationConfig{}, rng, ctx);
  return TxChain(std::move(proto), std::move(calibration), ctx);
}

TxChain TxChain::from_truth(sim::Prototype p, const runtime::Context& ctx) {
  // Built before `p` moves: a CalibrationResult whose "learned" models are
  // the ground-truth ones, so make_pointing_solver yields the truth solver.
  core::CalibrationResult truth{
      core::KSpaceFitReport{
          core::GmaModel(p.tx_galvo_truth).transformed(p.k_from_tx_gma)},
      core::KSpaceFitReport{
          core::GmaModel(p.rx_galvo_truth).transformed(p.k_from_rx_gma)},
      core::MappingFitReport{p.true_map_tx, p.true_map_rx},
      {}};
  return TxChain(std::move(p), std::move(truth), ctx);
}

namespace {

/// Shared mutable state of the multi-TX session processes.  Each chain's
/// plant — applied voltages + optics read-out — is its phy::FsoChannel.
struct MultiTxState {
  std::vector<TxChain>& chains;
  std::vector<core::TpController>& controllers;
  std::vector<phy::FsoChannel>& channels;
  const MultiTxConfig& config;
  const motion::MotionProfile& profile;
  const std::function<bool(util::SimTimeUs, std::size_t)>& occlusion;
  HandoverProcess& handover;
  double sensitivity = 0.0;
  util::SimTimeUs duration = 0;
  util::SimTimeUs lag = 0;
  util::SimTimeUs next_report = 0;
  std::vector<std::optional<core::PendingCommand>> pending;
  std::vector<event::Timer> apply_timers;
  std::vector<int> usable;
  std::vector<double> powers;
  int slots = 0;
  int served = 0;
};

/// Applies a chain's voltage command at its exact DAQ+settle completion
/// instant (event payload: i64 = chain index).
class MultiTxApplyProcess final : public event::Process {
 public:
  explicit MultiTxApplyProcess(MultiTxState& s) : s_(s) {}

  void handle(event::Scheduler&, const event::Event& ev) override {
    const auto i = static_cast<std::size_t>(ev.i64);
    assert(i < s_.channels.size() && s_.pending[i]);
    s_.channels[i].set_voltages(s_.pending[i]->voltages);
    s_.pending[i].reset();
    s_.apply_timers[i] = event::Timer();
  }

 private:
  MultiTxState& s_;
};

/// Periodic sampling slot: scene/occlusion update, report capture, power
/// sampling, handover decision, service accounting.  The legacy loop body
/// minus the pending-command poll, which the apply events now own.
class MultiTxSlotProcess final : public event::Process {
 public:
  MultiTxSlotProcess(MultiTxState& s, event::ProcessId apply_id)
      : s_(s), apply_id_(apply_id) {}
  void set_self(event::ProcessId id) noexcept { self_ = id; }

  void handle(event::Scheduler& sched, const event::Event& ev) override {
    const util::SimTimeUs now = ev.time;
    const geom::Pose pose = s_.profile.pose_at(now);
    const geom::Pose lagged =
        s_.profile.pose_at(now > s_.lag ? now - s_.lag : 0);
    const bool do_report = now >= s_.next_report;
    if (do_report) {
      s_.next_report = now + util::us_from_ms(s_.config.report_period_ms);
    }

    for (std::size_t i = 0; i < s_.chains.size(); ++i) {
      TxChain& chain = s_.chains[i];
      phy::FsoChannel& channel = s_.channels[i];
      sim::Scene& scene = channel.scene();
      scene.clear_occluders();
      if (s_.occlusion && s_.occlusion(now, i)) {
        const geom::Vec3 mid =
            (scene.tx().mount().translation() + pose.translation()) * 0.5;
        scene.add_occluder({mid, 0.25});
      }
      if (do_report) {
        tracking::PoseReport report =
            chain.proto.tracker.report(now, pose, lagged);
        if (!report.lost) {
          if (auto cmd = s_.controllers[i].on_report(report)) {
            // A newer command supersedes an un-applied older one (the
            // legacy pending-slot overwrite).
            if (cmd->apply_time <= now) {
              sched.cancel(s_.apply_timers[i]);
              s_.apply_timers[i] = event::Timer();
              s_.pending[i].reset();
              channel.set_voltages(cmd->voltages);
            } else {
              s_.pending[i] = *cmd;
              event::Event apply;
              apply.time = cmd->apply_time;
              apply.type = kEvApplyCommand;
              apply.target = apply_id_;
              apply.i64 = static_cast<std::int64_t>(i);
              // Mutates the pending timer in place (same queue slot) when
              // one is still live; schedules afresh otherwise.
              sched.reschedule(s_.apply_timers[i], apply);
            }
          }
        }
      }
      s_.powers[i] = channel.power_at(pose, now);
      if (s_.powers[i] >= s_.sensitivity) ++s_.usable[i];
    }

    const int serving = s_.handover.on_powers(s_.powers);
    ++s_.slots;
    const bool serving_usable =
        serving >= 0 &&
        s_.powers[static_cast<std::size_t>(serving)] >= s_.sensitivity;
    if (serving_usable) ++s_.served;
    if (s_.config.on_slot) {
      const double power =
          serving >= 0
              ? s_.powers[static_cast<std::size_t>(serving)]
              : *std::max_element(s_.powers.begin(), s_.powers.end());
      s_.config.on_slot(now, serving, serving_usable, power);
    }

    const util::SimTimeUs next = now + s_.config.step;
    if (next < s_.duration) {
      event::Event slot;
      slot.time = next;
      slot.type = kEvSlotSample;
      slot.target = self_;
      sched.schedule(slot);
    }
  }

 private:
  MultiTxState& s_;
  event::ProcessId apply_id_;
  event::ProcessId self_ = event::kNoProcess;
};

}  // namespace

MultiTxResult run_multi_tx_session(
    std::vector<TxChain>& chains, const motion::MotionProfile& profile,
    const MultiTxConfig& config,
    const std::function<bool(util::SimTimeUs, std::size_t)>& occlusion,
    const runtime::Context& ctx, SessionLog* log) {
  MultiTxResult result;
  if (chains.empty()) return result;

  // A TP controller per chain so latency/prediction semantics match the
  // single-TX simulator, and a phy::FsoChannel per chain as the plant.
  std::vector<core::TpController> controllers;
  std::vector<phy::FsoChannel> channels;
  controllers.reserve(chains.size());
  channels.reserve(chains.size());
  for (auto& chain : chains) {
    controllers.emplace_back(chain.solver, config.tp);
    channels.emplace_back(chain.proto.scene);
    channels.back().set_voltages(chain.voltages);
  }

  event::Scheduler sched(session::bind_session_clock(ctx));
  // Registered first so an equal-time switch-done timer (scheduled before
  // any same-time slot event was) commits the new TX before that slot
  // samples it — matching the legacy `now < switch_done_` window.
  HandoverProcess handover(chains.size(), config.handover, sched, ctx, log);

  const std::size_t n = chains.size();
  MultiTxState s{chains, controllers, channels, config, profile, occlusion,
                 handover, channels.front().info().sensitivity,
                 util::us_from_s(profile.duration_s()),
                 util::us_from_ms(
                     chains.front().proto.tracker.config().position_lag_ms),
                 /*next_report=*/0,
                 std::vector<std::optional<core::PendingCommand>>(n),
                 std::vector<event::Timer>(n), std::vector<int>(n, 0),
                 std::vector<double>(n, 0.0)};

  MultiTxApplyProcess apply(s);
  const event::ProcessId apply_id = sched.add_process(&apply);
  MultiTxSlotProcess slot(s, apply_id);
  const event::ProcessId slot_id = sched.add_process(&slot);
  slot.set_self(slot_id);

  if (s.duration > 0) {
    event::Event first;
    first.time = 0;
    first.type = kEvSlotSample;
    first.target = slot_id;
    sched.schedule(first);
  }
  sched.run();

  // The channels owned the applied voltages for the session; hand the
  // final values back so TxChain stays an honest snapshot for callers.
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i].voltages = channels[i].voltages();
  }

  result.served_fraction =
      s.slots > 0 ? static_cast<double>(s.served) / s.slots : 0.0;
  result.switches = handover.switches();
  result.cancelled_switches = handover.cancelled_switches();
  result.events = sched.dispatched();
  result.slots = static_cast<std::uint64_t>(s.slots);
  result.per_tx_usable_fraction.reserve(chains.size());
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const double fraction =
        s.slots > 0 ? static_cast<double>(s.usable[i]) / s.slots : 0.0;
    result.per_tx_usable_fraction.push_back(fraction);
    result.best_single_tx_fraction =
        std::max(result.best_single_tx_fraction, fraction);
  }
  if constexpr (obs::kEnabled) {
    obs::Registry& registry = ctx.registry();
    registry.counter("multi_tx_slots_total").inc(result.slots);
    registry.counter("multi_tx_served_total")
        .inc(static_cast<std::uint64_t>(s.served));
    registry.counter("multi_tx_events_dispatched_total")
        .inc(sched.dispatched());
  }
  return result;
}

}  // namespace cyclops::link

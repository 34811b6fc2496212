#include "session/catalog.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "arena/session.hpp"
#include "arena/topology.hpp"
#include "cal/online.hpp"
#include "core/calibration.hpp"
#include "core/pointing.hpp"
#include "core/tp_controller.hpp"
#include "link/fso_link.hpp"
#include "link/hetero_session.hpp"
#include "link/multi_tx.hpp"
#include "link/session_core.hpp"
#include "motion/trace.hpp"
#include "motion/trace_generator.hpp"
#include "phy/mmwave_channel.hpp"
#include "sim/prototype.hpp"
#include "stream/pipeline.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::session {
namespace {

/// Ground-truth pointing solver: keeps sessions cheap (no calibration)
/// and free of wall-clock metrics — the concurrent_session_test recipe.
core::PointingSolver truth_solver(const sim::Prototype& proto,
                                  const runtime::Context& ctx) {
  return core::truth_calibration(proto).make_pointing_solver({}, ctx);
}

/// Viewer-style knobs from the spec: `motion` picks a style, `intensity`
/// scales it — the GazeProphet-style per-session workload heterogeneity
/// the fleet exists to express.
motion::TraceGeneratorConfig trace_config(const SessionSpec& spec) {
  motion::TraceGeneratorConfig config;
  config.duration_s = spec.duration_s;
  double scale = spec.intensity;
  switch (spec.motion % 3) {
    case 0: break;                                  // paper-calibrated
    case 1: scale *= 0.5; break;                    // calm viewer
    case 2: config.saccade_rate_hz *= 3.0; break;   // saccade-heavy
  }
  config.yaw_rate_sigma *= scale;
  config.pitch_rate_sigma *= scale;
  config.roll_rate_sigma *= scale;
  config.sway_speed_sigma *= scale;
  return config;
}

/// kLink — the single-TX FSO closed loop over a synthetic viewing trace
/// (truth solver, per-session seed'd prototype).
class LinkRunner final : public SessionRunner {
 public:
  explicit LinkRunner(const SessionSpec& spec) : spec_(spec) {}
  const char* name() const noexcept override { return "link"; }

  void prepare(runtime::Context& ctx) override {
    proto_.emplace(sim::make_prototype(100 + spec_.seed % 512,
                                       sim::prototype_25g_config()));
    controller_.emplace(truth_solver(*proto_, ctx), core::TpConfig{});
    util::Rng trace_rng = ctx.rng(/*key=*/1);
    trace_ = motion::generate_viewing_trace(proto_->nominal_rig_pose,
                                            trace_config(spec_), trace_rng);
    profile_.emplace(trace_);
  }

  Report run(runtime::Context& ctx) override {
    link::SimOptions options;
    options.step = spec_.step_us;
    const link::RunResult r = link::run_link_simulation(
        *proto_, *controller_, *profile_, ctx, options);
    Report report;
    report.events = r.events;
    report.slots = r.slots;
    report.served_fraction = r.total_up_fraction;
    report.avg_rate_gbps = r.avg_rate_gbps;
    report.switches = static_cast<std::uint64_t>(r.realignments);
    return report;
  }

 private:
  SessionSpec spec_;
  std::optional<sim::Prototype> proto_;
  std::optional<core::TpController> controller_;
  motion::Trace trace_;
  std::optional<motion::TraceMotion> profile_;
};

/// kChannel — a steering-free phy::MmWaveChannel under the unified
/// session core (no prototype, no solver: the cheapest variant).
class ChannelRunner final : public SessionRunner {
 public:
  explicit ChannelRunner(const SessionSpec& spec) : spec_(spec) {}
  const char* name() const noexcept override { return "channel"; }

  void prepare(runtime::Context& ctx) override {
    channel_.emplace(phy::MmWaveChannelConfig{}, ctx);
    const geom::Pose base{geom::Mat3::identity(), {0.0, 0.8, 1.2}};
    util::Rng trace_rng = ctx.rng(/*key=*/1);
    trace_ = motion::generate_viewing_trace(base, trace_config(spec_),
                                            trace_rng);
    profile_.emplace(trace_);
  }

  Report run(runtime::Context& ctx) override {
    link::SimOptions options;
    options.step = spec_.step_us;
    const link::RunResult r =
        link::run_channel_session(*channel_, *profile_, ctx, options);
    channel_->finish(util::us_from_s(profile_->duration_s()));
    Report report;
    report.events = r.events;
    report.slots = r.slots;
    report.served_fraction = r.total_up_fraction;
    report.avg_rate_gbps = r.avg_rate_gbps;
    report.switches = static_cast<std::uint64_t>(channel_->retrains());
    return report;
  }

 private:
  SessionSpec spec_;
  std::optional<phy::MmWaveChannel> channel_;
  motion::Trace trace_;
  std::optional<motion::TraceMotion> profile_;
};

/// kHetero — the FSO chain plus an mmWave fallback in one scheduler,
/// HandoverProcess arbitrating in margin space.
class HeteroRunner final : public SessionRunner {
 public:
  explicit HeteroRunner(const SessionSpec& spec) : spec_(spec) {}
  const char* name() const noexcept override { return "hetero"; }

  void prepare(runtime::Context& ctx) override {
    proto_.emplace(sim::make_prototype(100 + spec_.seed % 512,
                                       sim::prototype_25g_config()));
    controller_.emplace(truth_solver(*proto_, ctx), core::TpConfig{});
    fallback_.emplace(phy::MmWaveChannelConfig{}, ctx);
    util::Rng trace_rng = ctx.rng(/*key=*/1);
    trace_ = motion::generate_viewing_trace(proto_->nominal_rig_pose,
                                            trace_config(spec_), trace_rng);
    profile_.emplace(trace_);
  }

  Report run(runtime::Context& ctx) override {
    link::HeteroConfig config;
    config.step = spec_.step_us;
    // Periodic LOS obstruction: blocked 100 ms out of every 700 ms,
    // phase-shifted by seed % 7.  In fleet_sim's 7-variant cycle every
    // hetero seed is 3 (mod 7), so the first blockage starts at 400 ms
    // and a 0.2-s fleet session never hands over.
    const util::SimTimeUs phase =
        static_cast<util::SimTimeUs>(spec_.seed % 7) * 100000;
    config.fso_occlusion = [phase](util::SimTimeUs t) {
      return ((t + phase) % 700000) < 100000;
    };
    const link::HeteroResult r = link::run_hetero_session(
        *proto_, *controller_, *fallback_, *profile_, ctx, config);
    Report report;
    report.events = r.events;
    report.slots = r.slots;
    report.served_fraction = r.served_fraction;
    report.avg_rate_gbps = r.avg_rate_gbps;
    report.switches = static_cast<std::uint64_t>(r.switches);
    return report;
  }

 private:
  SessionSpec spec_;
  std::optional<sim::Prototype> proto_;
  std::optional<core::TpController> controller_;
  std::optional<phy::MmWaveChannel> fallback_;
  motion::Trace trace_;
  std::optional<motion::TraceMotion> profile_;
};

/// kMultiTx — num_tx truth-calibrated ceiling chains serving one headset
/// under a rotating occluder.  Its first 400-ms turn is the all-clear one,
/// so sessions shorter than that (the fleet's 0.2 s) never hand over.
class MultiTxRunner final : public SessionRunner {
 public:
  explicit MultiTxRunner(const SessionSpec& spec) : spec_(spec) {}
  const char* name() const noexcept override { return "multi_tx"; }

  void prepare(runtime::Context& ctx) override {
    const std::size_t n = std::max<std::uint32_t>(spec_.num_tx, 1);
    sim::PrototypeConfig base = sim::prototype_25g_config();
    const geom::Vec3 origin = base.tx_position;
    chains_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      sim::PrototypeConfig config = base;
      // TX0 stays at the nominal overhead mount (the rig's resting pose
      // faces it; an offset TX0 would tilt every chain's rig off-axis);
      // the rest fan out alternately ±0.5 m, ±1.0 m, ... along x.
      const double offset =
          0.5 * static_cast<double>((i + 1) / 2) * (i % 2 == 1 ? 1.0 : -1.0);
      config.tx_position = origin + geom::Vec3{i == 0 ? 0.0 : offset, 0.0, 0.0};
      chains_.push_back(link::TxChain::from_truth(
          sim::make_prototype(100 + spec_.seed % 512 + i, config), ctx));
    }
    util::Rng trace_rng = ctx.rng(/*key=*/1);
    trace_ = motion::generate_viewing_trace(
        chains_[0].proto.nominal_rig_pose, trace_config(spec_), trace_rng);
    profile_.emplace(trace_);
  }

  Report run(runtime::Context& ctx) override {
    link::MultiTxConfig config;
    config.step = spec_.step_us;
    // Rotating occluder: each TX takes a 400 ms turn being blocked, with
    // an all-clear slot leading every rotation so short sessions (and the
    // post-handover reacquisitions) see an unblocked serving TX.
    const std::size_t n = chains_.size();
    auto occlusion = [n](util::SimTimeUs t, std::size_t tx) {
      const auto slot = static_cast<std::size_t>(
          (t / 400000) % static_cast<std::int64_t>(n + 1));
      return slot > 0 && slot - 1 == tx;
    };
    const link::MultiTxResult r = link::run_multi_tx_session(
        chains_, *profile_, config, occlusion, ctx);
    Report report;
    report.events = r.events;
    report.slots = r.slots;
    report.served_fraction = r.served_fraction;
    report.avg_rate_gbps = 0.0;  // the multi-TX session reports fractions
    report.switches = static_cast<std::uint64_t>(r.switches);
    return report;
  }

 private:
  SessionSpec spec_;
  std::vector<link::TxChain> chains_;
  motion::Trace trace_;
  std::optional<motion::TraceMotion> profile_;
};

/// kArena — N TXs × M headsets shared airspace; `motion` selects the
/// bench scenario population.
class ArenaRunner final : public SessionRunner {
 public:
  explicit ArenaRunner(const SessionSpec& spec) : spec_(spec) {}
  const char* name() const noexcept override { return "arena"; }

  void prepare(runtime::Context&) override {
    arena::ArenaConfig config;
    const arena::Scenario scenario =
        spec_.motion % 3 == 1   ? arena::Scenario::kClusteredCorner
        : spec_.motion % 3 == 2 ? arena::Scenario::kSyncFastMotion
                                : arena::Scenario::kUniform;
    topology_.emplace(
        config, std::max<std::uint32_t>(spec_.num_tx, 1),
        arena::ArenaTopology::make_tracks(
            config, std::max<std::uint32_t>(spec_.num_players, 1), scenario,
            spec_.duration_s, spec_.seed));
  }

  Report run(runtime::Context& ctx) override {
    arena::ArenaOptions options;
    options.duration_s = spec_.duration_s;
    const arena::ArenaResult r =
        arena::run_arena_session(*topology_, options, ctx);
    Report report;
    report.events = r.events;
    report.slots = r.slots;
    report.served_fraction =
        r.headsets.empty()
            ? 0.0
            : static_cast<double>(r.sla_met_count()) /
                  static_cast<double>(r.headsets.size());
    double rate_sum = 0.0;
    for (const arena::HeadsetQoE& h : r.headsets) rate_sum += h.avg_rate_gbps;
    report.avg_rate_gbps =
        r.headsets.empty() ? 0.0
                           : rate_sum / static_cast<double>(r.headsets.size());
    report.switches = static_cast<std::uint64_t>(r.migrations);
    return report;
  }

 private:
  SessionSpec spec_;
  std::optional<arena::ArenaTopology> topology_;
};

/// kStream — the zero-copy streaming plane over a deterministic flapping
/// capacity (period/depth seeded per session).
class StreamRunner final : public SessionRunner {
 public:
  explicit StreamRunner(const SessionSpec& spec) : spec_(spec) {}
  const char* name() const noexcept override { return "stream"; }

  void prepare(runtime::Context& ctx) override {
    stream::PipelineConfig config;
    config.duration = util::us_from_s(spec_.duration_s);
    config.spectators = static_cast<int>(spec_.spectators);
    config.slot = spec_.step_us;
    pipeline_.emplace(config, ctx);
  }

  Report run(runtime::Context&) override {
    // Peak clears the default RatePolicy raw rate (20 Gbps) so raw-mode
    // frames actually drain; the dips are what freeze-ledgers and the
    // adapter react to.
    const double peak_gbps = 23.0 + static_cast<double>(spec_.seed % 3);
    const util::SimTimeUs period =
        200000 + static_cast<util::SimTimeUs>(spec_.seed % 5) * 50000;
    const util::SimTimeUs dip = 30000;
    const auto capacity = [peak_gbps, period, dip](util::SimTimeUs t) {
      return (t % period) < dip ? 12.0 : peak_gbps;
    };
    const stream::PipelineResult r = pipeline_->run(capacity);
    Report report;
    report.events = r.events_dispatched;
    report.slots = static_cast<std::uint64_t>(r.frames_generated);
    report.served_fraction =
        r.offered_gbps > 0.0 ? r.goodput_gbps / r.offered_gbps : 0.0;
    report.avg_rate_gbps = r.goodput_gbps;
    report.switches = static_cast<std::uint64_t>(r.mode_switches);
    return report;
  }

 private:
  SessionSpec spec_;
  std::optional<stream::StreamPipeline> pipeline_;
};

/// kOnlineRecal — a drift-injected serving session with the mapping
/// refitted in flight (cal::run_online_recal_session).  The calibration
/// is assembled from prototype ground truth (the fleet measures the
/// *recal plane*, not the offline pipeline), `motion` scales the drift
/// severity, and `intensity` scales the rig excursion.
class OnlineRecalRunner final : public SessionRunner {
 public:
  explicit OnlineRecalRunner(const SessionSpec& spec) : spec_(spec) {}
  const char* name() const noexcept override { return "online_recal"; }

  void prepare(runtime::Context&) override {
    proto_.emplace(sim::make_prototype(100 + spec_.seed % 512,
                                       sim::prototype_25g_config()));
    calibration_.emplace(core::truth_calibration(*proto_));
  }

  Report run(runtime::Context& ctx) override {
    cal::OnlineRecalConfig config;
    config.duration_s = spec_.duration_s;
    config.slot_us = spec_.step_us;
    config.seed = spec_.seed;
    const double severity = 1.0 + 0.5 * static_cast<double>(spec_.motion % 3);
    config.drift.ramp_angle_rad *= severity;
    config.drift.ramp_translation_m *= severity;
    config.pose_position_extent *= spec_.intensity;
    config.pose_angle_extent *= spec_.intensity;
    const cal::OnlineRecalResult r =
        cal::run_online_recal_session(*proto_, *calibration_, config, ctx);
    Report report;
    report.events = r.events;
    report.slots = r.slots;
    report.served_fraction = r.up_fraction;
    report.avg_rate_gbps = 0.0;  // the recal plane reports margins
    report.switches = static_cast<std::uint64_t>(r.refits);
    return report;
  }

 private:
  SessionSpec spec_;
  std::optional<sim::Prototype> proto_;
  std::optional<core::CalibrationResult> calibration_;
};

}  // namespace

std::unique_ptr<SessionRunner> make_runner(const SessionSpec& spec) {
  switch (spec.variant) {
    case Variant::kLink: return std::make_unique<LinkRunner>(spec);
    case Variant::kChannel: return std::make_unique<ChannelRunner>(spec);
    case Variant::kHetero: return std::make_unique<HeteroRunner>(spec);
    case Variant::kMultiTx: return std::make_unique<MultiTxRunner>(spec);
    case Variant::kArena: return std::make_unique<ArenaRunner>(spec);
    case Variant::kStream: return std::make_unique<StreamRunner>(spec);
    case Variant::kOnlineRecal: return std::make_unique<OnlineRecalRunner>(spec);
  }
  return std::make_unique<ChannelRunner>(spec);
}

RunnerFactory catalog_factory() {
  return [](const SessionSpec& spec) { return make_runner(spec); };
}

}  // namespace cyclops::session

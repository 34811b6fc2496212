#include "fixed_step.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "core/exhaustive_aligner.hpp"

namespace cyclops::oracle {

namespace detail = link::detail;
using link::LinkStateMachine;
using link::RunResult;
using link::SimOptions;
using link::SlotEvalConfig;
using link::SlotEvalResult;
using link::WindowSample;

RunResult run_link_simulation_fixed_step(sim::Prototype& proto,
                                         core::TpController& controller,
                                         const motion::MotionProfile& profile,
                                         const SimOptions& options) {
  RunResult result;
  const optics::SfpSpec& sfp = proto.scene.config().sfp;
  LinkStateMachine state(sfp.rx_sensitivity_dbm,
                         util::us_from_s(sfp.link_up_delay_s));

  // Applied GM voltages (what the hardware currently holds).  Commands
  // pipeline through the DAQ: each applies at its own time even when the
  // report period is shorter than the conversion latency.
  sim::Voltages applied{};
  std::deque<core::PendingCommand> pending;

  // §5.3 protocol: each run starts from an aligned link.
  proto.scene.set_rig_pose(profile.pose_at(0));
  const core::PointingResult initial = controller.solver().solve(
      proto.tracker.ideal_report(proto.scene.rig_pose()), applied);
  applied = initial.voltages;
  core::ExhaustiveAligner polish;
  applied = polish.align(proto.scene, applied).voltages;
  state.force_up();

  const auto duration = util::us_from_s(profile.duration_s());
  proto.tracker.reset_schedule();  // simulation time restarts at 0
  util::SimTimeUs next_report = proto.tracker.next_capture_time(0);

  // Window accumulators.
  util::SimTimeUs window_start = 0;
  double window_up_time = 0.0;
  double window_power_sum = 0.0;
  double window_min_power = std::numeric_limits<double>::infinity();
  double window_min_power_all = std::numeric_limits<double>::infinity();
  int window_power_ok_slots = 0;
  int window_up_slots = 0;
  int window_slots = 0;

  double total_up = 0.0;
  int total_slots = 0;
  double total_rate = 0.0;

  for (util::SimTimeUs now = 0; now < duration; now += options.step) {
    const geom::Pose pose = profile.pose_at(now);
    proto.scene.set_rig_pose(pose);

    // Tracker report?
    if (now >= next_report) {
      const util::SimTimeUs lag =
          util::us_from_ms(proto.tracker.config().position_lag_ms);
      const geom::Pose lagged =
          profile.pose_at(now > lag ? now - lag : 0);
      const tracking::PoseReport report =
          proto.tracker.report(now, pose, lagged);
      if (!report.lost) {
        if (auto cmd = controller.on_report(report)) {
          pending.push_back(*cmd);
          ++result.realignments;
        }
      }
      next_report = proto.tracker.next_capture_time(now);
    }
    // Apply pending realignments once their latency has elapsed.
    while (!pending.empty() && now >= pending.front().apply_time) {
      applied = pending.front().voltages;
      pending.pop_front();
    }

    const double power = proto.scene.received_power_dbm(applied);
    const bool up = state.step(now, power);
    if (options.on_slot) options.on_slot(now, up, power);

    ++window_slots;
    ++total_slots;
    window_min_power_all = std::min(window_min_power_all, power);
    if (power >= sfp.rx_sensitivity_dbm) ++window_power_ok_slots;
    if (up) {
      window_up_time += util::us_to_s(options.step);
      ++window_up_slots;
      total_up += 1.0;
      window_power_sum += power;
      window_min_power = std::min(window_min_power, power);
    }
    total_rate += up ? sfp.goodput_gbps : 0.0;

    if ((now + options.step) % options.window < options.step ||
        now + options.step >= duration) {
      WindowSample sample;
      sample.t_s = util::us_to_s(window_start);
      const motion::Speeds speeds =
          motion::measure_speeds(profile, window_start + options.window / 2);
      sample.linear_speed_mps = speeds.linear_mps;
      sample.angular_speed_rps = speeds.angular_rps;
      sample.up_fraction =
          window_slots > 0
              ? static_cast<double>(window_up_slots) / window_slots
              : 0.0;
      sample.throughput_gbps = sample.up_fraction * sfp.goodput_gbps;
      sample.avg_power_dbm =
          window_up_slots > 0
              ? window_power_sum / window_up_slots
              : -std::numeric_limits<double>::infinity();
      sample.min_power_dbm =
          window_up_slots > 0
              ? window_min_power
              : -std::numeric_limits<double>::infinity();
      sample.min_power_all_dbm =
          window_slots > 0
              ? window_min_power_all
              : -std::numeric_limits<double>::infinity();
      sample.power_ok_fraction =
          window_slots > 0
              ? static_cast<double>(window_power_ok_slots) / window_slots
              : 0.0;
      result.windows.push_back(sample);

      window_start = now + options.step;
      window_up_time = 0.0;
      window_power_sum = 0.0;
      window_min_power = std::numeric_limits<double>::infinity();
      window_min_power_all = std::numeric_limits<double>::infinity();
      window_power_ok_slots = 0;
      window_up_slots = 0;
      window_slots = 0;
    }
  }

  result.total_up_fraction =
      total_slots > 0 ? total_up / total_slots : 0.0;
  result.avg_rate_gbps = total_slots > 0 ? total_rate / total_slots : 0.0;
  result.tp_failures = controller.failures();
  result.avg_pointing_iterations = controller.avg_pointing_iterations();
  return result;
}

SlotEvalResult evaluate_trace_fixed_step(const motion::Trace& trace,
                                         const SlotEvalConfig& config) {
  SlotEvalResult result;
  if (trace.samples.size() < 2) return result;

  // Off-slots are only ever consumed per 30-slot frame, so keep running
  // frame counters instead of materializing a slot bitmap.
  int slots_in_frame = 0;
  int off_in_frame = 0;
  const auto flush_frame = [&result, &slots_in_frame, &off_in_frame] {
    if (off_in_frame > 0) result.off_per_dirty_frame.push_back(off_in_frame);
    result.off_slots += off_in_frame;
    slots_in_frame = 0;
    off_in_frame = 0;
  };

  // Walk report intervals; within each, drift grows linearly from the
  // residual TP error after the realignment completes.
  for (std::size_t i = 1; i < trace.samples.size(); ++i) {
    const auto& prev = trace.samples[i - 1];
    const auto& cur = trace.samples[i];
    detail::IntervalModel model;
    model.gap_ms = util::us_to_ms(cur.time - prev.time);
    if (model.gap_ms <= 0.0) continue;
    model.lat_rate =
        geom::translation_distance(prev.pose, cur.pose) / model.gap_ms;
    model.ang_rate =
        geom::rotation_distance(prev.pose, cur.pose) / model.gap_ms;
    model.config = &config;

    const int slots =
        std::max(1, static_cast<int>(model.gap_ms / config.slot_ms));
    for (int s = 0; s < slots; ++s) {
      ++result.total_slots;
      if (model.off_at(s)) ++off_in_frame;
      if (++slots_in_frame == detail::kFrameSlots) flush_frame();
    }
  }
  if (slots_in_frame > 0) flush_frame();
  return result;
}


link::DatasetEvalResult evaluate_dataset_fixed_step(
    const std::vector<motion::Trace>& traces, const SlotEvalConfig& config) {
  link::DatasetEvalResult result;
  result.per_trace_off_fraction.reserve(traces.size());
  for (const motion::Trace& trace : traces) {
    const SlotEvalResult r = evaluate_trace_fixed_step(trace, config);
    result.per_trace_off_fraction.push_back(r.off_fraction());
    result.pooled.total_slots += r.total_slots;
    result.pooled.off_slots += r.off_slots;
    result.pooled.off_per_dirty_frame.insert(
        result.pooled.off_per_dirty_frame.end(), r.off_per_dirty_frame.begin(),
        r.off_per_dirty_frame.end());
  }
  return result;
}

}  // namespace cyclops::oracle

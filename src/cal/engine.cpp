#include "cal/engine.hpp"

#include <algorithm>
#include <chrono>

#include "galvo/factory.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"

namespace cyclops::cal {

const char* phase_name(Phase phase) noexcept {
  switch (phase) {
    case Phase::kStage1TxCollect: return "stage1_tx_collect";
    case Phase::kStage1TxFit: return "stage1_tx_fit";
    case Phase::kStage1RxCollect: return "stage1_rx_collect";
    case Phase::kStage1RxFit: return "stage1_rx_fit";
    case Phase::kStage2Collect: return "stage2_collect";
    case Phase::kStage2Fit: return "stage2_fit";
    case Phase::kStage2BlindA: return "stage2_blind_a";
    case Phase::kStage2BlindB: return "stage2_blind_b";
    case Phase::kStage2Retry: return "stage2_retry";
    case Phase::kDone: return "done";
  }
  return "unknown";
}

CalibrationEngine::CalibrationEngine(sim::Prototype& proto,
                                     const core::CalibrationConfig& config,
                                     const util::Rng& rng,
                                     const runtime::Context& ctx)
    : proto_(&proto),
      config_(config),
      ctx_(&ctx),
      rng_(rng),
      spec_(galvo::gvs102_spec()),
      guess_(core::nominal_kspace_guess(proto.config.board_distance)) {
  begin_tx_collect();
}

void CalibrationEngine::begin_tx_collect() {
  galvo_.emplace(proto_->tx_galvo_truth, spec_);
  collector_.emplace(*galvo_, proto_->k_from_tx_gma, config_.board, *ctx_);
}

void CalibrationEngine::begin_rx_collect() {
  galvo_.emplace(proto_->rx_galvo_truth, spec_);
  collector_.emplace(*galvo_, proto_->k_from_rx_gma, config_.board, *ctx_);
}

bool CalibrationEngine::step() {
  if (done()) return false;
  ++state_.steps;
  switch (state_.phase) {
    case Phase::kStage1TxCollect:
    case Phase::kStage1RxCollect:
      step_stage1_collect();
      break;
    case Phase::kStage1TxFit:
    case Phase::kStage1RxFit:
      step_stage1_fit();
      break;
    case Phase::kStage2Collect:
      step_stage2_collect();
      break;
    case Phase::kStage2Fit:
      step_stage2_fit();
      break;
    case Phase::kStage2BlindA:
      step_blind_a();
      break;
    case Phase::kStage2BlindB:
      step_blind_b();
      break;
    case Phase::kStage2Retry:
      step_retry();
      break;
    case Phase::kDone:
      break;
  }
  return !done();
}

bool CalibrationEngine::lm_step_and_record() {
  const auto t0 = std::chrono::steady_clock::now();
  const bool more = lm_->step();
  lm_wall_us_ +=
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  if (!more) {
    opt::record_lm_solve(ctx_->registry(), lm_->result(), lm_wall_us_);
  }
  return more;
}

void CalibrationEngine::step_stage1_collect() {
  collector_->step(rng_);
  if (!collector_->done()) return;
  const auto t0 = std::chrono::steady_clock::now();
  if (state_.phase == Phase::kStage1TxCollect) {
    state_.tx_samples = collector_->take_samples();
    collector_.reset();
    const core::KSpaceFitProblem problem =
        core::make_kspace_problem(state_.tx_samples, guess_, ctx_->pool());
    lm_wall_us_ = 0.0;
    lm_.emplace(problem.residuals, problem.initial, config_.stage1_options,
                *ctx_, problem.probes);
    state_.phase = Phase::kStage1TxFit;
  } else {
    state_.rx_samples = collector_->take_samples();
    collector_.reset();
    const core::KSpaceFitProblem problem =
        core::make_kspace_problem(state_.rx_samples, guess_, ctx_->pool());
    lm_wall_us_ = 0.0;
    lm_.emplace(problem.residuals, problem.initial, config_.stage1_options,
                *ctx_, problem.probes);
    state_.phase = Phase::kStage1RxFit;
  }
  lm_wall_us_ +=
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
}

void CalibrationEngine::step_stage1_fit() {
  if (lm_step_and_record()) return;
  const opt::LevMarResult fit = lm_->result();
  lm_.reset();
  if (state_.phase == Phase::kStage1TxFit) {
    state_.tx_report = core::finish_kspace_fit(state_.tx_samples, fit);
    begin_rx_collect();
    state_.phase = Phase::kStage1RxCollect;
  } else {
    state_.rx_report = core::finish_kspace_fit(state_.rx_samples, fit);
    galvo_.reset();
    aligner_.emplace(config_.aligner, ctx_->pool());
    state_.tuples.clear();
    state_.tuples.reserve(static_cast<std::size_t>(
        std::max(config_.stage2_samples, 0)));
    state_.hint = {};
    state_.stage2_i = 0;
    state_.phase = Phase::kStage2Collect;
  }
}

void CalibrationEngine::step_stage2_collect() {
  if (state_.stage2_i < config_.stage2_samples) {
    // One aligned-sample attempt: exactly the one-shot loop body.
    const geom::Pose pose = core::random_rig_pose(
        proto_->nominal_rig_pose, config_.pose_position_extent,
        config_.pose_angle_extent, rng_);
    proto_->apply_rig_flex(rng_);
    proto_->scene.set_rig_pose(pose);
    const core::AlignResult aligned =
        aligner_->align(proto_->scene, state_.hint);
    ctx_->registry()
        .counter("align_status_total",
                 {{"status", core::to_string(aligned.status)}})
        .inc();
    ++state_.stage2_i;
    if (aligned.converged()) {
      state_.hint = aligned.voltages;
      const tracking::PoseReport report = proto_->tracker.report(0, pose);
      state_.tuples.push_back({aligned.voltages, report.pose});
    }
    if (state_.stage2_i < config_.stage2_samples) return;
  }
  // Collection complete.  The manual-measurement guesses are always drawn
  // (even for the blind install) — the one-shot pipeline drew them before
  // branching, and the RNG stream is part of the contract.
  aligner_.reset();
  state_.tx_guess =
      proto_->true_map_tx * core::random_pose_error(
                                rng_, config_.guess_position_sigma,
                                config_.guess_angle_sigma);
  state_.rx_guess =
      proto_->true_map_rx * core::random_pose_error(
                                rng_, config_.guess_position_sigma,
                                config_.guess_angle_sigma);
  if (config_.blind_stage2) {
    begin_blind();
    state_.phase = Phase::kStage2BlindA;
  } else {
    begin_stage2_fit();
    state_.phase = Phase::kStage2Fit;
  }
}

void CalibrationEngine::begin_stage2_fit() {
  const core::MappingFitProblem problem = core::make_mapping_problem(
      state_.tx_report->model, state_.rx_report->model, state_.tuples,
      state_.tx_guess, state_.rx_guess);
  lm_wall_us_ = 0.0;
  lm_.emplace(problem.residuals, problem.initial, config_.stage2_options,
              *ctx_, problem.probes);
}

void CalibrationEngine::step_stage2_fit() {
  if (lm_step_and_record()) return;
  state_.mapping =
      core::finish_mapping_fit(state_.tx_report->model,
                               state_.rx_report->model, state_.tuples,
                               lm_->result());
  lm_.reset();
  state_.retry_attempt = 0;
  state_.phase = Phase::kStage2Retry;
}

void CalibrationEngine::begin_blind() {
  state_.blind_centroid = geom::Vec3{};
  for (const auto& sample : state_.tuples) {
    state_.blind_centroid += sample.psi.translation();
  }
  if (!state_.tuples.empty()) {
    state_.blind_centroid =
        state_.blind_centroid / static_cast<double>(state_.tuples.size());
  }
  state_.blind_a = 0;
  state_.blind_tx_best.fill(0.0);
  state_.blind_tx_best_value = 1e18;
  blind_tx_residuals_ =
      core::make_blind_tx_residuals(state_.tx_report->model, state_.tuples);
}

void CalibrationEngine::step_blind_a() {
  // One phase-A multi-start: a full (bounded) inner LM solve over the 6
  // TX parameters, rotation drawn uniformly over SO(3) (the hidden frame
  // can be arbitrarily rotated) and translation near the reported-position
  // centroid.  The solve goes through levenberg_marquardt, so its lm_*
  // metrics record like any other LM solve.
  const geom::Vec3 axis =
      geom::Vec3{rng_.normal(), rng_.normal(), rng_.normal()}.normalized();
  const geom::Vec3 rv = axis * rng_.uniform(0.0, 3.1);
  const std::vector<double> x0{rv.x,
                               rv.y,
                               rv.z,
                               state_.blind_centroid.x + rng_.normal(0.0, 0.5),
                               state_.blind_centroid.y + rng_.normal(0.0, 0.5),
                               state_.blind_centroid.z + rng_.normal(0.0, 0.5)};
  opt::LevMarOptions lm;
  lm.max_iterations = 60;
  const auto fit = opt::levenberg_marquardt(blind_tx_residuals_, x0, lm, *ctx_);
  if (fit.final_cost < state_.blind_tx_best_value) {
    state_.blind_tx_best_value = fit.final_cost;
    std::copy(fit.params.begin(), fit.params.end(),
              state_.blind_tx_best.begin());
  }
  ++state_.blind_a;
  if (state_.blind_a >= 60) enter_blind_b();
}

void CalibrationEngine::enter_blind_b() {
  state_.blind_tx_seed = geom::Pose::from_params(state_.blind_tx_best);
  state_.blind_b = 0;
  state_.blind_best = core::MappingFitReport{};
  state_.blind_best_value = 1e18;
  state_.phase = Phase::kStage2BlindB;
}

void CalibrationEngine::step_blind_b() {
  // One phase-B multi-start: RX rotation drawn over SO(3) (translation
  // starts at 0 — the RX GMA rides the headset), full 12-param joint
  // polish (one-shot fit_mapping) scored by the Lemma-1 residual.
  const geom::Vec3 axis =
      geom::Vec3{rng_.normal(), rng_.normal(), rng_.normal()}.normalized();
  const geom::Vec3 rv = axis * rng_.uniform(0.0, 3.1);
  const std::array<double, 6> rx_arr{rv.x, rv.y, rv.z, 0.0, 0.0, 0.0};
  const geom::Pose rx_seed = geom::Pose::from_params(rx_arr);
  const core::MappingFitReport report = core::fit_mapping(
      state_.tx_report->model, state_.rx_report->model, state_.tuples,
      state_.blind_tx_seed, rx_seed, config_.stage2_options, *ctx_);
  if (report.avg_coincidence_m < state_.blind_best_value) {
    state_.blind_best_value = report.avg_coincidence_m;
    state_.blind_best = report;
  }
  ++state_.blind_b;
  // A good basin, or the spent start budget, ends the search.
  if (state_.blind_best_value < 5e-3 || state_.blind_b >= 12) {
    state_.mapping = state_.blind_best;
    state_.retry_attempt = 0;
    state_.phase = Phase::kStage2Retry;
  }
}

void CalibrationEngine::begin_retry_fit() {
  const core::MappingFitProblem problem = core::make_mapping_problem(
      state_.tx_report->model, state_.rx_report->model, state_.tuples,
      state_.retry_tx, state_.retry_rx);
  lm_wall_us_ = 0.0;
  lm_.emplace(problem.residuals, problem.initial, config_.stage2_options,
              *ctx_, problem.probes);
}

void CalibrationEngine::step_retry() {
  if (!lm_) {
    // Between attempts: decide whether another jittered-guess retry is
    // warranted (the one-shot loop's `attempt < 4 && avg > 5e-3`).
    if (state_.retry_attempt >= 4 ||
        state_.mapping.avg_coincidence_m <= 5e-3) {
      finalize();
      return;
    }
    state_.retry_tx =
        state_.tx_guess * core::random_pose_error(
                              rng_, config_.guess_position_sigma,
                              config_.guess_angle_sigma);
    state_.retry_rx =
        state_.rx_guess * core::random_pose_error(
                              rng_, config_.guess_position_sigma,
                              config_.guess_angle_sigma);
    begin_retry_fit();
    return;
  }
  if (lm_step_and_record()) return;
  core::MappingFitReport candidate = core::finish_mapping_fit(
      state_.tx_report->model, state_.rx_report->model, state_.tuples,
      lm_->result());
  lm_.reset();
  if (candidate.avg_coincidence_m < state_.mapping.avg_coincidence_m) {
    state_.mapping = std::move(candidate);
  }
  ++state_.retry_attempt;
}

void CalibrationEngine::finalize() {
  proto_->scene.set_rig_pose(proto_->nominal_rig_pose);
  result_.emplace(core::CalibrationResult{*state_.tx_report, *state_.rx_report,
                                          state_.mapping, state_.tuples});
  state_.phase = Phase::kDone;
}

}  // namespace cyclops::cal

namespace cyclops::core {

// The historical one-shot entry point, now an adapter: drive the engine
// to completion and hand the advanced RNG stream back to the caller
// (tests use `rng` after calibration; its state is part of the contract).
CalibrationResult calibrate_prototype(sim::Prototype& proto,
                                      const CalibrationConfig& config,
                                      util::Rng& rng,
                                      const runtime::Context& ctx) {
  cal::CalibrationEngine engine(proto, config, rng, ctx);
  while (engine.step()) {
  }
  rng = util::Rng::from_state(engine.rng_state());
  return engine.take_result();
}

}  // namespace cyclops::core

#include "cal/engine.hpp"

#include <algorithm>
#include <chrono>

#include "galvo/factory.hpp"
#include "obs/config.hpp"
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
  ++steps_;
  switch (phase_) {
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
    // The solve just finished: re-emit the metrics levenberg_marquardt
    // records, so a stepped calibration is indistinguishable from the
    // one-shot pipeline in the registry (iteration counts deterministic,
    // wall time best-effort).
    if constexpr (obs::kEnabled) {
      const opt::LevMarResult fit = lm_->result();
      obs::Registry& registry = ctx_->registry();
      registry.counter("lm_solves_total").inc();
      if (fit.converged) registry.counter("lm_converged_total").inc();
      registry
          .histogram("lm_iterations", obs::HistogramSpec::linear(-0.5, 1.0, 64))
          .record(static_cast<double>(fit.iterations));
      registry.histogram("lm_solve_wall_us", obs::HistogramSpec::duration_us())
          .record(lm_wall_us_);
    }
  }
  return more;
}

void CalibrationEngine::step_stage1_collect() {
  collector_->step(rng_);
  if (!collector_->done()) return;
  const auto t0 = std::chrono::steady_clock::now();
  if (phase_ == Phase::kStage1TxCollect) {
    tx_samples_ = collector_->take_samples();
    collector_.reset();
    const core::KSpaceFitProblem problem =
        core::make_kspace_problem(tx_samples_, guess_);
    lm_wall_us_ = 0.0;
    lm_.emplace(problem.residuals, problem.initial, config_.stage1_options,
                *ctx_);
    phase_ = Phase::kStage1TxFit;
  } else {
    rx_samples_ = collector_->take_samples();
    collector_.reset();
    const core::KSpaceFitProblem problem =
        core::make_kspace_problem(rx_samples_, guess_);
    lm_wall_us_ = 0.0;
    lm_.emplace(problem.residuals, problem.initial, config_.stage1_options,
                *ctx_);
    phase_ = Phase::kStage1RxFit;
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
  if (phase_ == Phase::kStage1TxFit) {
    tx_report_ = core::finish_kspace_fit(tx_samples_, fit);
    begin_rx_collect();
    phase_ = Phase::kStage1RxCollect;
  } else {
    rx_report_ = core::finish_kspace_fit(rx_samples_, fit);
    galvo_.reset();
    aligner_.emplace(config_.aligner, *ctx_);
    tuples_.clear();
    tuples_.reserve(static_cast<std::size_t>(
        std::max(config_.stage2_samples, 0)));
    hint_ = {};
    stage2_i_ = 0;
    phase_ = Phase::kStage2Collect;
  }
}

void CalibrationEngine::step_stage2_collect() {
  if (stage2_i_ < config_.stage2_samples) {
    // One aligned-sample attempt: exactly the one-shot loop body.
    const geom::Pose pose = core::random_rig_pose(
        proto_->nominal_rig_pose, config_.pose_position_extent,
        config_.pose_angle_extent, rng_);
    proto_->apply_rig_flex(rng_);
    proto_->scene.set_rig_pose(pose);
    const core::AlignResult aligned = aligner_->align(proto_->scene, hint_);
    if constexpr (obs::kEnabled) {
      ctx_->registry()
          .counter("align_status_total",
                   {{"status", core::to_string(aligned.status)}})
          .inc();
    }
    ++stage2_i_;
    if (aligned.converged()) {
      hint_ = aligned.voltages;
      const tracking::PoseReport report = proto_->tracker.report(0, pose);
      tuples_.push_back({aligned.voltages, report.pose});
    }
    if (stage2_i_ < config_.stage2_samples) return;
  }
  // Collection complete.  The manual-measurement guesses are always drawn
  // (even for the blind install) — the one-shot pipeline drew them before
  // branching, and the RNG stream is part of the contract.
  aligner_.reset();
  tx_guess_ = proto_->true_map_tx *
              core::random_pose_error(rng_, config_.guess_position_sigma,
                                      config_.guess_angle_sigma);
  rx_guess_ = proto_->true_map_rx *
              core::random_pose_error(rng_, config_.guess_position_sigma,
                                      config_.guess_angle_sigma);
  if (config_.blind_stage2) {
    begin_blind();
    phase_ = Phase::kStage2BlindA;
  } else {
    begin_stage2_fit();
    phase_ = Phase::kStage2Fit;
  }
}

void CalibrationEngine::begin_stage2_fit() {
  const core::MappingFitProblem problem = core::make_mapping_problem(
      tx_report_->model, rx_report_->model, tuples_, tx_guess_, rx_guess_);
  lm_wall_us_ = 0.0;
  lm_.emplace(problem.residuals, problem.initial, config_.stage2_options,
              *ctx_);
}

void CalibrationEngine::step_stage2_fit() {
  if (lm_step_and_record()) return;
  mapping_ = core::finish_mapping_fit(tx_report_->model, rx_report_->model,
                                      tuples_, lm_->result());
  lm_.reset();
  retry_attempt_ = 0;
  phase_ = Phase::kStage2Retry;
}

void CalibrationEngine::begin_blind() {
  blind_centroid_ = geom::Vec3{};
  for (const auto& sample : tuples_) blind_centroid_ += sample.psi.translation();
  if (!tuples_.empty()) {
    blind_centroid_ = blind_centroid_ / static_cast<double>(tuples_.size());
  }
  blind_a_ = 0;
  blind_tx_best_.fill(0.0);
  blind_tx_best_value_ = 1e18;
  blind_tx_residuals_ =
      core::make_blind_tx_residuals(tx_report_->model, tuples_);
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
                               blind_centroid_.x + rng_.normal(0.0, 0.5),
                               blind_centroid_.y + rng_.normal(0.0, 0.5),
                               blind_centroid_.z + rng_.normal(0.0, 0.5)};
  opt::LevMarOptions lm;
  lm.max_iterations = 60;
  const auto fit = opt::levenberg_marquardt(blind_tx_residuals_, x0, lm, *ctx_);
  if (fit.final_cost < blind_tx_best_value_) {
    blind_tx_best_value_ = fit.final_cost;
    std::copy(fit.params.begin(), fit.params.end(), blind_tx_best_.begin());
  }
  ++blind_a_;
  if (blind_a_ >= 60) enter_blind_b();
}

void CalibrationEngine::enter_blind_b() {
  blind_tx_seed_ = geom::Pose::from_params(blind_tx_best_);
  blind_b_ = 0;
  blind_best_ = core::MappingFitReport{};
  blind_best_value_ = 1e18;
  phase_ = Phase::kStage2BlindB;
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
      tx_report_->model, rx_report_->model, tuples_, blind_tx_seed_, rx_seed,
      config_.stage2_options, *ctx_);
  if (report.avg_coincidence_m < blind_best_value_) {
    blind_best_value_ = report.avg_coincidence_m;
    blind_best_ = report;
  }
  ++blind_b_;
  if (blind_best_value_ < 5e-3 || blind_b_ >= 12) {  // good basin found
    mapping_ = blind_best_;
    retry_attempt_ = 0;
    phase_ = Phase::kStage2Retry;
  }
}

void CalibrationEngine::begin_retry_fit() {
  const core::MappingFitProblem problem = core::make_mapping_problem(
      tx_report_->model, rx_report_->model, tuples_, retry_tx_, retry_rx_);
  lm_wall_us_ = 0.0;
  lm_.emplace(problem.residuals, problem.initial, config_.stage2_options,
              *ctx_);
}

void CalibrationEngine::step_retry() {
  if (!lm_) {
    // Between attempts: decide whether another jittered-guess retry is
    // warranted (the one-shot loop's `attempt < 4 && avg > 5e-3`).
    if (retry_attempt_ >= 4 || mapping_.avg_coincidence_m <= 5e-3) {
      finalize();
      return;
    }
    retry_tx_ = tx_guess_ *
                core::random_pose_error(rng_, config_.guess_position_sigma,
                                        config_.guess_angle_sigma);
    retry_rx_ = rx_guess_ *
                core::random_pose_error(rng_, config_.guess_position_sigma,
                                        config_.guess_angle_sigma);
    begin_retry_fit();
    return;
  }
  if (lm_step_and_record()) return;
  core::MappingFitReport candidate = core::finish_mapping_fit(
      tx_report_->model, rx_report_->model, tuples_, lm_->result());
  lm_.reset();
  if (candidate.avg_coincidence_m < mapping_.avg_coincidence_m) {
    mapping_ = std::move(candidate);
  }
  ++retry_attempt_;
}

void CalibrationEngine::finalize() {
  proto_->scene.set_rig_pose(proto_->nominal_rig_pose);
  result_.emplace(core::CalibrationResult{*tx_report_, *rx_report_, mapping_,
                                          tuples_});
  phase_ = Phase::kDone;
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

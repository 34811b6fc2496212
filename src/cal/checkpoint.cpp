#include "cal/checkpoint.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/persistence.hpp"
#include "galvo/galvo_mirror.hpp"

namespace cyclops::cal {
namespace {

using core::persist::expect_line;
using core::persist::expect_u64_line;
using core::persist::fail;
using core::persist::write_u64_values;
using core::persist::write_values;

constexpr const char* kMagic = "cyclops-cal-checkpoint v1";
constexpr std::size_t kModelParams = galvo::GalvoParams::kParamCount;  // 25
constexpr std::size_t kReportDoubles = kModelParams + 4;               // 29

// Poses round-trip through the raw rotation matrix (row-major) plus the
// translation: 12 doubles.  Pose::params() goes through the
// rotation-vector form, which loses ULPs — not acceptable for bit-exact
// resume.
std::array<double, 12> pose_to_raw(const geom::Pose& pose) {
  std::array<double, 12> out{};
  const geom::Mat3& r = pose.rotation();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) out[static_cast<std::size_t>(3 * i + j)] = r.m[i][j];
  }
  out[9] = pose.translation().x;
  out[10] = pose.translation().y;
  out[11] = pose.translation().z;
  return out;
}

geom::Pose pose_from_raw(const std::vector<double>& v, std::size_t offset = 0) {
  geom::Mat3 r;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      r.m[i][j] = v[offset + static_cast<std::size_t>(3 * i + j)];
    }
  }
  return {r, {v[offset + 9], v[offset + 10], v[offset + 11]}};
}

std::array<double, kReportDoubles> kspace_report_to_raw(
    const std::optional<core::KSpaceFitReport>& report) {
  std::array<double, kReportDoubles> out{};
  if (!report) return out;
  const auto packed = report->model.params().pack();
  std::copy(packed.begin(), packed.end(), out.begin());
  out[kModelParams] = report->avg_error_m;
  out[kModelParams + 1] = report->max_error_m;
  out[kModelParams + 2] = static_cast<double>(report->optimizer_iterations);
  out[kModelParams + 3] = report->converged ? 1.0 : 0.0;
  return out;
}

core::KSpaceFitReport kspace_report_from_raw(const std::vector<double>& v) {
  // Raw field assignment, NOT GalvoParams::unpack: unpack re-normalizes
  // the direction vectors, which shifts ULPs on load and would break the
  // bit-exact-continuation contract for every phase after a Stage-1 fit
  // completes.  The checkpointed model is already canonical (it came out
  // of unpack when the fit finished); the reader must reproduce it
  // verbatim.
  galvo::GalvoParams params;
  params.p0 = {v[0], v[1], v[2]};
  params.x0 = {v[3], v[4], v[5]};
  params.n1 = {v[6], v[7], v[8]};
  params.q1 = {v[9], v[10], v[11]};
  params.r1 = {v[12], v[13], v[14]};
  params.n2 = {v[15], v[16], v[17]};
  params.q2 = {v[18], v[19], v[20]};
  params.r2 = {v[21], v[22], v[23]};
  params.theta1 = v[24];
  return {core::GmaModel(params), v[kModelParams], v[kModelParams + 1],
          static_cast<int>(v[kModelParams + 2]), v[kModelParams + 3] != 0.0};
}

std::array<double, 28> mapping_report_to_raw(
    const core::MappingFitReport& report) {
  std::array<double, 28> out{};
  const auto tx = pose_to_raw(report.map_tx);
  const auto rx = pose_to_raw(report.map_rx);
  std::copy(tx.begin(), tx.end(), out.begin());
  std::copy(rx.begin(), rx.end(), out.begin() + 12);
  out[24] = report.avg_coincidence_m;
  out[25] = report.max_coincidence_m;
  out[26] = static_cast<double>(report.optimizer_iterations);
  out[27] = report.converged ? 1.0 : 0.0;
  return out;
}

core::MappingFitReport mapping_report_from_raw(const std::vector<double>& v) {
  return {pose_from_raw(v, 0),  pose_from_raw(v, 12),       v[24], v[25],
          static_cast<int>(v[26]), v[27] != 0.0};
}

bool flag(const std::vector<std::uint64_t>& values, std::size_t index,
          const char* what, int line_number) {
  if (values[index] > 1) {
    fail(line_number, std::string(what) + " flag must be 0 or 1, got " +
                          std::to_string(values[index]));
  }
  return values[index] == 1;
}

}  // namespace

void write_engine_checkpoint(std::ostream& out, const EngineCheckpoint& cp) {
  out << kMagic << '\n';
  const std::uint64_t state[9] = {
      static_cast<std::uint64_t>(cp.phase),
      cp.steps,
      static_cast<std::uint64_t>(cp.stage2_i),
      static_cast<std::uint64_t>(cp.blind_a),
      static_cast<std::uint64_t>(cp.blind_b),
      static_cast<std::uint64_t>(cp.retry_attempt),
      cp.lm_active ? 1ull : 0ull,
      cp.tx_report ? 1ull : 0ull,
      cp.rx_report ? 1ull : 0ull};
  write_u64_values(out, "state", state);
  write_u64_values(out, "rng_state", cp.rng.s);
  const double rng_normal[2] = {cp.rng.cached_normal,
                                cp.rng.has_cached_normal ? 1.0 : 0.0};
  write_values(out, "rng_normal", rng_normal);
  const double collector[4] = {static_cast<double>(cp.collector.i),
                               static_cast<double>(cp.collector.j),
                               cp.collector.v1, cp.collector.v2};
  write_values(out, "collector", collector);
  write_values(out, "tx_report", kspace_report_to_raw(cp.tx_report));
  write_values(out, "rx_report", kspace_report_to_raw(cp.rx_report));

  const auto write_board_samples =
      [&out](const char* count_key, const char* data_key,
             const std::vector<core::BoardSample>& samples) {
        const std::uint64_t n[1] = {samples.size()};
        write_u64_values(out, count_key, n);
        std::vector<double> flat;
        flat.reserve(samples.size() * 4);
        for (const auto& s : samples) {
          flat.push_back(s.x);
          flat.push_back(s.y);
          flat.push_back(s.v1);
          flat.push_back(s.v2);
        }
        write_values(out, data_key, flat);
      };
  write_board_samples("tx_samples_n", "tx_samples", cp.tx_samples);
  write_board_samples("rx_samples_n", "rx_samples", cp.rx_samples);

  const std::uint64_t lm_n[1] = {cp.lm.params.size()};
  write_u64_values(out, "lm_n", lm_n);
  write_values(out, "lm_params", cp.lm.params);
  const double lm_state[4] = {cp.lm.lambda, cp.lm.initial_cost,
                              static_cast<double>(cp.lm.iterations),
                              cp.lm.converged ? 1.0 : 0.0};
  write_values(out, "lm_state", lm_state);

  const std::uint64_t tuples_n[1] = {cp.tuples.size()};
  write_u64_values(out, "tuples_n", tuples_n);
  std::vector<double> flat;
  flat.reserve(cp.tuples.size() * 16);
  for (const auto& t : cp.tuples) {
    flat.push_back(t.voltages.tx1);
    flat.push_back(t.voltages.tx2);
    flat.push_back(t.voltages.rx1);
    flat.push_back(t.voltages.rx2);
    const auto psi = pose_to_raw(t.psi);
    flat.insert(flat.end(), psi.begin(), psi.end());
  }
  write_values(out, "tuples", flat);

  const double hint[4] = {cp.hint.tx1, cp.hint.tx2, cp.hint.rx1, cp.hint.rx2};
  write_values(out, "hint", hint);
  write_values(out, "tx_guess", pose_to_raw(cp.tx_guess));
  write_values(out, "rx_guess", pose_to_raw(cp.rx_guess));
  write_values(out, "mapping", mapping_report_to_raw(cp.mapping));

  std::array<double, 11> blind{};
  blind[0] = cp.blind_centroid.x;
  blind[1] = cp.blind_centroid.y;
  blind[2] = cp.blind_centroid.z;
  std::copy(cp.blind_tx_best.begin(), cp.blind_tx_best.end(),
            blind.begin() + 3);
  blind[9] = cp.blind_tx_best_value;
  blind[10] = cp.blind_best_value;
  write_values(out, "blind", blind);
  write_values(out, "blind_seed", pose_to_raw(cp.blind_tx_seed));
  write_values(out, "blind_best", mapping_report_to_raw(cp.blind_best));
  write_values(out, "retry_tx", pose_to_raw(cp.retry_tx));
  write_values(out, "retry_rx", pose_to_raw(cp.retry_rx));
}

EngineCheckpoint read_engine_checkpoint(std::istream& in) {
  std::string magic;
  std::getline(in, magic);
  int line = 1;
  if (magic != kMagic) {
    fail(line, "not a cyclops calibration-engine checkpoint header: '" +
                   magic + "' (expected '" + kMagic + "')");
  }

  EngineCheckpoint cp;
  const auto state = expect_u64_line(in, "state", 9, line);
  if (state[0] > static_cast<std::uint64_t>(Phase::kDone)) {
    fail(line, "phase " + std::to_string(state[0]) + " out of range (0.." +
                   std::to_string(static_cast<int>(Phase::kDone)) + ")");
  }
  cp.phase = static_cast<int>(state[0]);
  cp.steps = state[1];
  cp.stage2_i = static_cast<int>(state[2]);
  cp.blind_a = static_cast<int>(state[3]);
  cp.blind_b = static_cast<int>(state[4]);
  cp.retry_attempt = static_cast<int>(state[5]);
  cp.lm_active = flag(state, 6, "lm_active", line);
  const bool has_tx_report = flag(state, 7, "tx_report", line);
  const bool has_rx_report = flag(state, 8, "rx_report", line);

  const auto rng_s = expect_u64_line(in, "rng_state", 4, line);
  std::copy(rng_s.begin(), rng_s.end(), cp.rng.s);
  const auto rng_normal = expect_line(in, "rng_normal", 2, line);
  cp.rng.cached_normal = rng_normal[0];
  cp.rng.has_cached_normal = rng_normal[1] != 0.0;

  const auto collector = expect_line(in, "collector", 4, line);
  cp.collector = {static_cast<int>(collector[0]),
                  static_cast<int>(collector[1]), collector[2], collector[3]};

  const auto tx_report = expect_line(in, "tx_report", kReportDoubles, line);
  if (has_tx_report) cp.tx_report = kspace_report_from_raw(tx_report);
  const auto rx_report = expect_line(in, "rx_report", kReportDoubles, line);
  if (has_rx_report) cp.rx_report = kspace_report_from_raw(rx_report);

  const auto read_board_samples = [&](const char* count_key,
                                      const char* data_key) {
    const auto n = expect_u64_line(in, count_key, 1, line)[0];
    const auto flat = expect_line(in, data_key, n * 4, line);
    std::vector<core::BoardSample> samples;
    samples.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      samples.push_back({flat[4 * i], flat[4 * i + 1], flat[4 * i + 2],
                         flat[4 * i + 3]});
    }
    return samples;
  };
  cp.tx_samples = read_board_samples("tx_samples_n", "tx_samples");
  cp.rx_samples = read_board_samples("rx_samples_n", "rx_samples");

  const auto lm_n = expect_u64_line(in, "lm_n", 1, line)[0];
  cp.lm.params = expect_line(in, "lm_params", lm_n, line);
  const auto lm_state = expect_line(in, "lm_state", 4, line);
  cp.lm.lambda = lm_state[0];
  cp.lm.initial_cost = lm_state[1];
  cp.lm.iterations = static_cast<int>(lm_state[2]);
  cp.lm.converged = lm_state[3] != 0.0;

  const auto tuples_n = expect_u64_line(in, "tuples_n", 1, line)[0];
  const auto tuples = expect_line(in, "tuples", tuples_n * 16, line);
  cp.tuples.reserve(tuples_n);
  for (std::uint64_t i = 0; i < tuples_n; ++i) {
    const std::size_t base = 16 * i;
    cp.tuples.push_back(
        {sim::Voltages{tuples[base], tuples[base + 1], tuples[base + 2],
                       tuples[base + 3]},
         pose_from_raw(tuples, base + 4)});
  }

  const auto hint = expect_line(in, "hint", 4, line);
  cp.hint = {hint[0], hint[1], hint[2], hint[3]};
  cp.tx_guess = pose_from_raw(expect_line(in, "tx_guess", 12, line));
  cp.rx_guess = pose_from_raw(expect_line(in, "rx_guess", 12, line));
  cp.mapping = mapping_report_from_raw(expect_line(in, "mapping", 28, line));

  const auto blind = expect_line(in, "blind", 11, line);
  cp.blind_centroid = {blind[0], blind[1], blind[2]};
  std::copy(blind.begin() + 3, blind.begin() + 9, cp.blind_tx_best.begin());
  cp.blind_tx_best_value = blind[9];
  cp.blind_best_value = blind[10];
  cp.blind_tx_seed = pose_from_raw(expect_line(in, "blind_seed", 12, line));
  cp.blind_best =
      mapping_report_from_raw(expect_line(in, "blind_best", 28, line));
  cp.retry_tx = pose_from_raw(expect_line(in, "retry_tx", 12, line));
  cp.retry_rx = pose_from_raw(expect_line(in, "retry_rx", 12, line));
  return cp;
}

void save_engine_checkpoint(const std::filesystem::path& path,
                            const EngineCheckpoint& cp) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  write_engine_checkpoint(out, cp);
  if (!out) throw std::runtime_error("write failed: " + path.string());
}

EngineCheckpoint load_engine_checkpoint(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return read_engine_checkpoint(in);
}

EngineCheckpoint CalibrationEngine::checkpoint() const {
  EngineCheckpoint cp;
  cp.phase = static_cast<int>(phase_);
  cp.steps = steps_;
  cp.rng = rng_.state();
  cp.tx_samples = tx_samples_;
  cp.rx_samples = rx_samples_;
  if (collector_) {
    cp.collector = collector_->state();
    // Mid-collection the in-progress samples live in the collector.
    if (phase_ == Phase::kStage1TxCollect) {
      cp.tx_samples = collector_->samples();
    } else {
      cp.rx_samples = collector_->samples();
    }
  }
  cp.tx_report = tx_report_;
  cp.rx_report = rx_report_;
  if (lm_) {
    cp.lm_active = true;
    cp.lm = lm_->checkpoint();
  }
  cp.tuples = tuples_;
  cp.hint = hint_;
  cp.stage2_i = stage2_i_;
  cp.tx_guess = tx_guess_;
  cp.rx_guess = rx_guess_;
  cp.mapping = mapping_;
  cp.blind_centroid = blind_centroid_;
  cp.blind_a = blind_a_;
  cp.blind_b = blind_b_;
  cp.blind_tx_best = blind_tx_best_;
  cp.blind_tx_best_value = blind_tx_best_value_;
  cp.blind_tx_seed = blind_tx_seed_;
  cp.blind_best = blind_best_;
  cp.blind_best_value = blind_best_value_;
  cp.retry_attempt = retry_attempt_;
  cp.retry_tx = retry_tx_;
  cp.retry_rx = retry_rx_;
  return cp;
}

void CalibrationEngine::restore(const EngineCheckpoint& cp) {
  if (cp.phase < 0 || cp.phase > static_cast<int>(Phase::kDone)) {
    throw std::runtime_error("checkpoint phase " + std::to_string(cp.phase) +
                             " out of range");
  }
  phase_ = static_cast<Phase>(cp.phase);
  steps_ = cp.steps;
  rng_ = util::Rng::from_state(cp.rng);
  tx_samples_ = cp.tx_samples;
  rx_samples_ = cp.rx_samples;
  tx_report_ = cp.tx_report;
  rx_report_ = cp.rx_report;
  tuples_ = cp.tuples;
  hint_ = cp.hint;
  stage2_i_ = cp.stage2_i;
  tx_guess_ = cp.tx_guess;
  rx_guess_ = cp.rx_guess;
  mapping_ = cp.mapping;
  blind_centroid_ = cp.blind_centroid;
  blind_a_ = cp.blind_a;
  blind_b_ = cp.blind_b;
  blind_tx_best_ = cp.blind_tx_best;
  blind_tx_best_value_ = cp.blind_tx_best_value;
  blind_tx_seed_ = cp.blind_tx_seed;
  blind_best_ = cp.blind_best;
  blind_best_value_ = cp.blind_best_value;
  retry_attempt_ = cp.retry_attempt;
  retry_tx_ = cp.retry_tx;
  retry_rx_ = cp.retry_rx;

  collector_.reset();
  galvo_.reset();
  aligner_.reset();
  lm_.reset();
  lm_wall_us_ = 0.0;
  result_.reset();

  const auto require_models = [this] {
    if (!tx_report_ || !rx_report_) {
      throw std::runtime_error(
          "checkpoint phase needs Stage-1 models but carries none");
    }
  };
  const auto require_lm = [&cp] {
    if (!cp.lm_active) {
      throw std::runtime_error(
          "checkpoint phase is mid-solve but carries no lm record");
    }
  };

  switch (phase_) {
    case Phase::kStage1TxCollect:
      begin_tx_collect();
      collector_->restore(cp.collector, std::move(tx_samples_));
      tx_samples_.clear();
      break;
    case Phase::kStage1TxFit: {
      require_lm();
      const core::KSpaceFitProblem problem =
          core::make_kspace_problem(tx_samples_, guess_);
      lm_.emplace(problem.residuals, cp.lm, config_.stage1_options, *ctx_);
      break;
    }
    case Phase::kStage1RxCollect:
      begin_rx_collect();
      collector_->restore(cp.collector, std::move(rx_samples_));
      rx_samples_.clear();
      break;
    case Phase::kStage1RxFit: {
      require_lm();
      const core::KSpaceFitProblem problem =
          core::make_kspace_problem(rx_samples_, guess_);
      lm_.emplace(problem.residuals, cp.lm, config_.stage1_options, *ctx_);
      break;
    }
    case Phase::kStage2Collect:
      require_models();
      aligner_.emplace(config_.aligner, ctx_->pool());
      break;
    case Phase::kStage2Fit: {
      require_models();
      require_lm();
      const core::MappingFitProblem problem = core::make_mapping_problem(
          tx_report_->model, rx_report_->model, tuples_, tx_guess_, rx_guess_);
      lm_.emplace(problem.residuals, cp.lm, config_.stage2_options, *ctx_);
      break;
    }
    case Phase::kStage2BlindA:
      require_models();
      blind_tx_residuals_ =
          core::make_blind_tx_residuals(tx_report_->model, tuples_);
      break;
    case Phase::kStage2BlindB:
      require_models();
      break;
    case Phase::kStage2Retry:
      require_models();
      if (cp.lm_active) {
        const core::MappingFitProblem problem = core::make_mapping_problem(
            tx_report_->model, rx_report_->model, tuples_, retry_tx_,
            retry_rx_);
        lm_.emplace(problem.residuals, cp.lm, config_.stage2_options, *ctx_);
      }
      break;
    case Phase::kDone:
      require_models();
      result_.emplace(core::CalibrationResult{*tx_report_, *rx_report_,
                                              mapping_, tuples_});
      break;
  }
}

}  // namespace cyclops::cal

#include "cal/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "galvo/galvo_mirror.hpp"

namespace cyclops::cal {
namespace {

constexpr const char* kMagic = "cyclops-cal-checkpoint v1";
constexpr std::size_t kModelParams = galvo::GalvoParams::kParamCount;  // 25
constexpr std::size_t kReportDoubles = kModelParams + 4;               // 29

// ---- `<key> <values...>` records: doubles at 17 significant digits,
// unsigned integers verbatim, every rejection naming the 1-based line and
// field. ----

void write_values(std::ostream& out, const char* key,
                  std::span<const double> values) {
  out << key;
  out.precision(17);
  for (double v : values) out << ' ' << v;
  out << '\n';
}

void write_u64_values(std::ostream& out, const char* key,
                      std::span<const std::uint64_t> values) {
  out << key;
  for (std::uint64_t v : values) out << ' ' << v;
  out << '\n';
}

[[noreturn]] void fail(int line_number, const std::string& what) {
  throw std::runtime_error("calibration file line " +
                           std::to_string(line_number) + ": " + what);
}

std::string field_name(std::size_t index, const std::string& key) {
  return "field " + std::to_string(index + 1) + " of " + key;
}

/// Parses the next line as the `<key> <count values>` record.
/// `line_number` counts the lines consumed so far (the header is line 1)
/// and is advanced.  Tokens go through from_chars, not the istream
/// extractor: RNG words above 2^53 would silently lose bits through a
/// double, and istream's unsigned extraction accepts '-' and wraps.
/// Doubles must be finite.
template <class T = double>
std::vector<T> expect_line(std::istream& in, const std::string& key,
                           std::size_t count, int& line_number) {
  std::string line;
  if (!std::getline(in, line)) {
    fail(line_number + 1, "file truncated, expected '" + key + "' record");
  }
  ++line_number;
  std::istringstream ss(line);
  std::string found_key;
  ss >> found_key;
  if (found_key != key) {
    fail(line_number,
         "expected '" + key + "' record, found '" + found_key + "'");
  }
  std::vector<T> values;
  for (std::string token; ss >> token;) {
    T v{};
    const char* last = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), last, v);
    const std::string field = field_name(values.size(), key);
    if (ec != std::errc{} || ptr != last) {
      fail(line_number, field + (std::is_same_v<T, double>
                                     ? " is not a number"
                                     : " is not an unsigned 64-bit integer"));
    }
    if constexpr (std::is_same_v<T, double>) {
      if (!std::isfinite(v)) fail(line_number, field + " is not finite");
    }
    values.push_back(v);
  }
  if (values.size() != count) {
    fail(line_number, "expected " + std::to_string(count) + " values for " +
                          key + ", got " + std::to_string(values.size()));
  }
  return values;
}

/// A count record sizing the next record at `per_item` values per item.
/// A count whose product with `per_item` would wrap, or that no vector
/// could hold, is rejected here.
std::uint64_t expect_count(std::istream& in, const std::string& key,
                           std::uint64_t per_item, int& line_number) {
  const std::uint64_t n =
      expect_line<std::uint64_t>(in, key, 1, line_number)[0];
  if (n > std::vector<double>().max_size() / per_item) {
    fail(line_number, field_name(0, key) + ": count " + std::to_string(n) +
                          " is too large for its record");
  }
  return n;
}

// Int fields.  Converting a value outside int's range, or a non-integral
// double, to int is undefined behaviour, so those are rejected first.
int int_field(const std::vector<double>& values, std::size_t index,
              const std::string& key, int line_number) {
  const double v = values[index];
  if (v != std::trunc(v) || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    fail(line_number,
         field_name(index, key) + " is not an integer in int range");
  }
  return static_cast<int>(v);
}

int int_field(const std::vector<std::uint64_t>& values, std::size_t index,
              const std::string& key, int line_number) {
  if (!std::in_range<int>(values[index])) {
    fail(line_number, field_name(index, key) + " is out of int range");
  }
  return static_cast<int>(values[index]);
}

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

core::KSpaceFitReport kspace_report_from_raw(const std::vector<double>& v,
                                             const std::string& key,
                                             int line_number) {
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
          int_field(v, kModelParams + 2, key, line_number),
          v[kModelParams + 3] != 0.0};
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

core::MappingFitReport mapping_report_from_raw(const std::vector<double>& v,
                                               const std::string& key,
                                               int line_number) {
  return {pose_from_raw(v, 0),  pose_from_raw(v, 12), v[24], v[25],
          int_field(v, 26, key, line_number), v[27] != 0.0};
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
  const EngineState& s = cp.state;
  out << kMagic << '\n';
  const std::uint64_t state[9] = {
      static_cast<std::uint64_t>(s.phase),
      s.steps,
      static_cast<std::uint64_t>(s.stage2_i),
      static_cast<std::uint64_t>(s.blind_a),
      static_cast<std::uint64_t>(s.blind_b),
      static_cast<std::uint64_t>(s.retry_attempt),
      cp.lm ? 1ull : 0ull,
      s.tx_report ? 1ull : 0ull,
      s.rx_report ? 1ull : 0ull};
  write_u64_values(out, "state", state);
  write_u64_values(out, "rng_state", cp.rng.s);
  const double rng_normal[2] = {cp.rng.cached_normal,
                                cp.rng.has_cached_normal ? 1.0 : 0.0};
  write_values(out, "rng_normal", rng_normal);
  const double collector[4] = {static_cast<double>(cp.collector.i),
                               static_cast<double>(cp.collector.j),
                               cp.collector.v1, cp.collector.v2};
  write_values(out, "collector", collector);
  write_values(out, "tx_report", kspace_report_to_raw(s.tx_report));
  write_values(out, "rx_report", kspace_report_to_raw(s.rx_report));

  const auto write_board_samples =
      [&out](const char* count_key, const char* data_key,
             const std::vector<core::BoardSample>& samples) {
        const std::uint64_t n[1] = {samples.size()};
        write_u64_values(out, count_key, n);
        std::vector<double> flat;
        flat.reserve(samples.size() * 4);
        for (const auto& sample : samples) {
          flat.push_back(sample.x);
          flat.push_back(sample.y);
          flat.push_back(sample.v1);
          flat.push_back(sample.v2);
        }
        write_values(out, data_key, flat);
      };
  write_board_samples("tx_samples_n", "tx_samples", s.tx_samples);
  write_board_samples("rx_samples_n", "rx_samples", s.rx_samples);

  // With no solve in flight the lm records hold a default LmCheckpoint.
  const opt::LmCheckpoint lm = cp.lm.value_or(opt::LmCheckpoint{});
  const std::uint64_t lm_n[1] = {lm.params.size()};
  write_u64_values(out, "lm_n", lm_n);
  write_values(out, "lm_params", lm.params);
  const double lm_state[4] = {lm.lambda, lm.initial_cost,
                              static_cast<double>(lm.iterations),
                              lm.converged ? 1.0 : 0.0};
  write_values(out, "lm_state", lm_state);

  const std::uint64_t tuples_n[1] = {s.tuples.size()};
  write_u64_values(out, "tuples_n", tuples_n);
  std::vector<double> flat;
  flat.reserve(s.tuples.size() * 16);
  for (const auto& t : s.tuples) {
    flat.push_back(t.voltages.tx1);
    flat.push_back(t.voltages.tx2);
    flat.push_back(t.voltages.rx1);
    flat.push_back(t.voltages.rx2);
    const auto psi = pose_to_raw(t.psi);
    flat.insert(flat.end(), psi.begin(), psi.end());
  }
  write_values(out, "tuples", flat);

  const double hint[4] = {s.hint.tx1, s.hint.tx2, s.hint.rx1, s.hint.rx2};
  write_values(out, "hint", hint);
  write_values(out, "tx_guess", pose_to_raw(s.tx_guess));
  write_values(out, "rx_guess", pose_to_raw(s.rx_guess));
  write_values(out, "mapping", mapping_report_to_raw(s.mapping));

  std::array<double, 11> blind{};
  blind[0] = s.blind_centroid.x;
  blind[1] = s.blind_centroid.y;
  blind[2] = s.blind_centroid.z;
  std::copy(s.blind_tx_best.begin(), s.blind_tx_best.end(),
            blind.begin() + 3);
  blind[9] = s.blind_tx_best_value;
  blind[10] = s.blind_best_value;
  write_values(out, "blind", blind);
  write_values(out, "blind_seed", pose_to_raw(s.blind_tx_seed));
  write_values(out, "blind_best", mapping_report_to_raw(s.blind_best));
  write_values(out, "retry_tx", pose_to_raw(s.retry_tx));
  write_values(out, "retry_rx", pose_to_raw(s.retry_rx));
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
  EngineState& s = cp.state;
  const auto state = expect_line<std::uint64_t>(in, "state", 9, line);
  if (state[0] > static_cast<std::uint64_t>(Phase::kDone)) {
    fail(line, "phase " + std::to_string(state[0]) + " out of range (0.." +
                   std::to_string(static_cast<int>(Phase::kDone)) + ")");
  }
  s.phase = static_cast<Phase>(state[0]);
  s.steps = state[1];
  s.stage2_i = int_field(state, 2, "state", line);
  s.blind_a = int_field(state, 3, "state", line);
  s.blind_b = int_field(state, 4, "state", line);
  s.retry_attempt = int_field(state, 5, "state", line);
  const bool lm_active = flag(state, 6, "lm_active", line);
  const bool has_tx_report = flag(state, 7, "tx_report", line);
  const bool has_rx_report = flag(state, 8, "rx_report", line);

  const auto rng_s = expect_line<std::uint64_t>(in, "rng_state", 4, line);
  std::copy(rng_s.begin(), rng_s.end(), cp.rng.s);
  const auto rng_normal = expect_line(in, "rng_normal", 2, line);
  cp.rng.cached_normal = rng_normal[0];
  cp.rng.has_cached_normal = rng_normal[1] != 0.0;

  const auto collector = expect_line(in, "collector", 4, line);
  cp.collector = {int_field(collector, 0, "collector", line),
                  int_field(collector, 1, "collector", line), collector[2],
                  collector[3]};

  const auto tx_report = expect_line(in, "tx_report", kReportDoubles, line);
  if (has_tx_report) {
    s.tx_report = kspace_report_from_raw(tx_report, "tx_report", line);
  }
  const auto rx_report = expect_line(in, "rx_report", kReportDoubles, line);
  if (has_rx_report) {
    s.rx_report = kspace_report_from_raw(rx_report, "rx_report", line);
  }

  const auto read_board_samples = [&](const char* count_key,
                                      const char* data_key) {
    const std::uint64_t n = expect_count(in, count_key, 4, line);
    const auto flat = expect_line(in, data_key, n * 4, line);
    std::vector<core::BoardSample> samples;
    samples.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      samples.push_back({flat[4 * i], flat[4 * i + 1], flat[4 * i + 2],
                         flat[4 * i + 3]});
    }
    return samples;
  };
  s.tx_samples = read_board_samples("tx_samples_n", "tx_samples");
  s.rx_samples = read_board_samples("rx_samples_n", "rx_samples");

  opt::LmCheckpoint lm;
  const std::uint64_t lm_n = expect_count(in, "lm_n", 1, line);
  lm.params = expect_line(in, "lm_params", lm_n, line);
  const auto lm_state = expect_line(in, "lm_state", 4, line);
  lm.lambda = lm_state[0];
  lm.initial_cost = lm_state[1];
  lm.iterations = int_field(lm_state, 2, "lm_state", line);
  lm.converged = lm_state[3] != 0.0;
  if (lm_active) cp.lm = std::move(lm);

  const std::uint64_t tuples_n = expect_count(in, "tuples_n", 16, line);
  const auto tuples = expect_line(in, "tuples", tuples_n * 16, line);
  s.tuples.reserve(tuples_n);
  for (std::uint64_t i = 0; i < tuples_n; ++i) {
    const std::size_t base = 16 * i;
    s.tuples.push_back(
        {sim::Voltages{tuples[base], tuples[base + 1], tuples[base + 2],
                       tuples[base + 3]},
         pose_from_raw(tuples, base + 4)});
  }

  const auto hint = expect_line(in, "hint", 4, line);
  s.hint = {hint[0], hint[1], hint[2], hint[3]};
  s.tx_guess = pose_from_raw(expect_line(in, "tx_guess", 12, line));
  s.rx_guess = pose_from_raw(expect_line(in, "rx_guess", 12, line));
  const auto mapping = expect_line(in, "mapping", 28, line);
  s.mapping = mapping_report_from_raw(mapping, "mapping", line);

  const auto blind = expect_line(in, "blind", 11, line);
  s.blind_centroid = {blind[0], blind[1], blind[2]};
  std::copy(blind.begin() + 3, blind.begin() + 9, s.blind_tx_best.begin());
  s.blind_tx_best_value = blind[9];
  s.blind_best_value = blind[10];
  s.blind_tx_seed = pose_from_raw(expect_line(in, "blind_seed", 12, line));
  const auto blind_best = expect_line(in, "blind_best", 28, line);
  s.blind_best = mapping_report_from_raw(blind_best, "blind_best", line);
  s.retry_tx = pose_from_raw(expect_line(in, "retry_tx", 12, line));
  s.retry_rx = pose_from_raw(expect_line(in, "retry_rx", 12, line));
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

void save_calibration(const std::filesystem::path& path,
                      const core::CalibrationResult& calibration) {
  EngineCheckpoint cp;
  cp.state.phase = Phase::kDone;
  cp.state.tx_report = calibration.tx_stage1;
  cp.state.rx_report = calibration.rx_stage1;
  cp.state.mapping = calibration.mapping;
  cp.state.tuples = calibration.stage2_samples;
  save_engine_checkpoint(path, cp);
}

core::CalibrationResult load_calibration(const std::filesystem::path& path) {
  EngineCheckpoint cp = load_engine_checkpoint(path);
  EngineState& s = cp.state;
  if (s.phase != Phase::kDone || !s.tx_report || !s.rx_report) {
    throw std::runtime_error(
        path.string() + ": not a finished calibration (phase " +
        phase_name(s.phase) + (s.tx_report && s.rx_report
                                   ? ")"
                                   : ", Stage-1 reports missing)"));
  }
  return {std::move(*s.tx_report), std::move(*s.rx_report),
          std::move(s.mapping), std::move(s.tuples)};
}

EngineCheckpoint CalibrationEngine::checkpoint() const {
  EngineCheckpoint cp{state_, rng_.state(), {}, std::nullopt};
  if (collector_) {
    cp.collector = collector_->state();
    // Mid-collection the in-progress samples live in the collector.
    if (state_.phase == Phase::kStage1TxCollect) {
      cp.state.tx_samples = collector_->samples();
    } else {
      cp.state.rx_samples = collector_->samples();
    }
  }
  if (lm_) cp.lm = lm_->checkpoint();
  return cp;
}

void CalibrationEngine::restore(const EngineCheckpoint& cp) {
  if (cp.state.phase < Phase::kStage1TxCollect ||
      cp.state.phase > Phase::kDone) {
    throw std::runtime_error(
        "checkpoint phase " + std::to_string(static_cast<int>(cp.state.phase)) +
        " out of range");
  }
  state_ = cp.state;
  rng_ = util::Rng::from_state(cp.rng);
  collector_.reset();
  galvo_.reset();
  aligner_.reset();
  lm_.reset();
  lm_wall_us_ = 0.0;
  result_.reset();

  const auto require_models = [this] {
    if (!state_.tx_report || !state_.rx_report) {
      throw std::runtime_error(
          "checkpoint phase needs Stage-1 models but carries none");
    }
  };
  // A collection resumes at its cursor, which must lie on the board grid:
  // an outside cursor never reaches done() or overflows `++j`.  (A board
  // without interior rows keeps the reset cursor j = 1.)
  const auto resume_collect = [&](std::vector<core::BoardSample>& samples) {
    const core::BoardConfig& board = config_.board;
    const core::BoardSampleCollector::State& cursor = cp.collector;
    if (cursor.i < 1 || cursor.i > board.cells_x || cursor.j < 1 ||
        cursor.j >= std::max(board.cells_y, 2)) {
      throw std::runtime_error(
          "checkpoint collector cursor (" + std::to_string(cursor.i) + ", " +
          std::to_string(cursor.j) + ") lies outside the " +
          std::to_string(board.cells_x) + " x " +
          std::to_string(board.cells_y) + " board grid");
    }
    collector_->restore(cursor, std::move(samples));
    samples.clear();
  };
  // Every fit resumes here, with its Jacobian probes.  The LM record must
  // carry exactly the parameters the phase's problem solves for: the
  // residual functions index their parameter span by the problem's
  // layout.  The probes' cache is rebuilt from the parameters at every
  // Jacobian, so the checkpoint carries none.
  const auto resume_fit = [&](const auto& problem,
                              const opt::LevMarOptions& options) {
    if (!cp.lm) {
      throw std::runtime_error(
          "checkpoint phase is mid-solve but carries no lm record");
    }
    if (cp.lm->params.size() != problem.initial.size()) {
      throw std::runtime_error(
          "checkpoint lm record carries " +
          std::to_string(cp.lm->params.size()) + " parameters, but " +
          phase_name(state_.phase) + " solves for " +
          std::to_string(problem.initial.size()));
    }
    lm_.emplace(problem.residuals, *cp.lm, options, *ctx_, problem.probes);
  };
  const auto mapping_problem = [this](const geom::Pose& tx,
                                      const geom::Pose& rx) {
    return core::make_mapping_problem(state_.tx_report->model,
                                      state_.rx_report->model, state_.tuples,
                                      tx, rx);
  };

  switch (state_.phase) {
    case Phase::kStage1TxCollect:
      begin_tx_collect();
      resume_collect(state_.tx_samples);
      break;
    case Phase::kStage1TxFit:
      resume_fit(
          core::make_kspace_problem(state_.tx_samples, guess_, ctx_->pool()),
          config_.stage1_options);
      break;
    case Phase::kStage1RxCollect:
      begin_rx_collect();
      resume_collect(state_.rx_samples);
      break;
    case Phase::kStage1RxFit:
      resume_fit(
          core::make_kspace_problem(state_.rx_samples, guess_, ctx_->pool()),
          config_.stage1_options);
      break;
    case Phase::kStage2Collect:
      require_models();
      aligner_.emplace(config_.aligner, ctx_->pool());
      break;
    case Phase::kStage2Fit:
      require_models();
      resume_fit(mapping_problem(state_.tx_guess, state_.rx_guess),
                 config_.stage2_options);
      break;
    case Phase::kStage2BlindA:
      require_models();
      blind_tx_residuals_ =
          core::make_blind_tx_residuals(state_.tx_report->model, state_.tuples);
      break;
    case Phase::kStage2BlindB:
      require_models();
      break;
    case Phase::kStage2Retry:
      require_models();
      if (cp.lm) {
        resume_fit(mapping_problem(state_.retry_tx, state_.retry_rx),
                   config_.stage2_options);
      }
      break;
    case Phase::kDone:
      require_models();
      result_.emplace(core::CalibrationResult{
          *state_.tx_report, *state_.rx_report, state_.mapping,
          state_.tuples});
      break;
  }
}

}  // namespace cyclops::cal

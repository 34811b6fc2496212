// Round-trip property tests for the calibration-engine checkpoint file
// (cal/checkpoint.hpp): randomized EngineCheckpoint values must survive
// write -> read bit-exactly (including RNG words above 2^53, which a
// double cannot carry), and malformed inputs — truncation, garbled
// fields, wrong version, wrong counts, signed integers — must be
// rejected with a std::runtime_error naming the 1-based line, never
// loaded silently.
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cal/checkpoint.hpp"
#include "cal/engine.hpp"
#include "core/kspace_calibration.hpp"
#include "geom/pose.hpp"
#include "util/rng.hpp"

using namespace cyclops;
using cal::EngineCheckpoint;

namespace {

geom::Pose random_pose(util::Rng& rng) {
  geom::Vec3 axis{rng.normal(), rng.normal(), rng.normal()};
  if (axis.norm() < 1e-9) axis = {1.0, 0.0, 0.0};
  return {geom::Mat3::rotation(axis.normalized(), rng.uniform(-2.0, 2.0)),
          {rng.normal(), rng.normal(), rng.normal()}};
}

core::KSpaceFitReport random_kspace_report(util::Rng& rng) {
  // One pack/unpack cycle canonicalizes the model (unpack re-normalizes
  // direction vectors) — every model the real pipeline produces has been
  // through unpack, so this is the representative input.
  const core::GmaModel canonical(galvo::GalvoParams::unpack(
      core::nominal_kspace_guess(rng.uniform(1.0, 2.0)).params().pack()));
  return {canonical, rng.normal(), rng.normal(),
          static_cast<int>(rng.uniform(0.0, 100.0)),
          rng.uniform(0.0, 1.0) < 0.5};
}

core::MappingFitReport random_mapping_report(util::Rng& rng) {
  return {random_pose(rng), random_pose(rng), rng.normal(), rng.normal(),
          static_cast<int>(rng.uniform(0.0, 100.0)),
          rng.uniform(0.0, 1.0) < 0.5};
}

EngineCheckpoint random_checkpoint(std::uint64_t seed) {
  util::Rng rng(seed);
  EngineCheckpoint cp;
  cal::EngineState& s = cp.state;
  s.phase = static_cast<cal::Phase>(rng.uniform(0.0, 9.999));
  s.steps = rng.next_u64();
  // Raw xoshiro words regularly exceed 2^53 — the exact case a
  // double-typed field would corrupt.
  for (auto& word : cp.rng.s) word = rng.next_u64() | (1ull << 63);
  cp.rng.cached_normal = rng.normal();
  cp.rng.has_cached_normal = rng.uniform(0.0, 1.0) < 0.5;

  cp.collector = {static_cast<int>(rng.uniform(1.0, 19.0)),
                  static_cast<int>(rng.uniform(1.0, 14.0)), rng.normal(),
                  rng.normal()};
  const int n_tx = static_cast<int>(rng.uniform(0.0, 5.0));
  for (int i = 0; i < n_tx; ++i) {
    s.tx_samples.push_back(
        {rng.normal(), rng.normal(), rng.normal(), rng.normal()});
  }
  const int n_rx = static_cast<int>(rng.uniform(0.0, 5.0));
  for (int i = 0; i < n_rx; ++i) {
    s.rx_samples.push_back(
        {rng.normal(), rng.normal(), rng.normal(), rng.normal()});
  }
  if (rng.uniform(0.0, 1.0) < 0.7) s.tx_report = random_kspace_report(rng);
  if (rng.uniform(0.0, 1.0) < 0.7) s.rx_report = random_kspace_report(rng);

  const bool lm_active = rng.uniform(0.0, 1.0) < 0.5;
  opt::LmCheckpoint lm;
  const int n_lm = static_cast<int>(rng.uniform(0.0, 25.0));
  for (int i = 0; i < n_lm; ++i) lm.params.push_back(rng.normal());
  lm.lambda = rng.uniform(0.0, 10.0);
  lm.initial_cost = rng.uniform(0.0, 1.0);
  lm.iterations = static_cast<int>(rng.uniform(0.0, 200.0));
  lm.converged = rng.uniform(0.0, 1.0) < 0.5;
  if (lm_active) cp.lm = lm;

  const int n_tuples = static_cast<int>(rng.uniform(0.0, 4.0));
  for (int i = 0; i < n_tuples; ++i) {
    s.tuples.push_back(
        {sim::Voltages{rng.normal(), rng.normal(), rng.normal(), rng.normal()},
         random_pose(rng)});
  }
  s.hint = {rng.normal(), rng.normal(), rng.normal(), rng.normal()};
  s.stage2_i = static_cast<int>(rng.uniform(0.0, 30.0));
  s.tx_guess = random_pose(rng);
  s.rx_guess = random_pose(rng);
  s.mapping = random_mapping_report(rng);

  s.blind_centroid = {rng.normal(), rng.normal(), rng.normal()};
  s.blind_a = static_cast<int>(rng.uniform(0.0, 50.0));
  s.blind_b = static_cast<int>(rng.uniform(0.0, 50.0));
  for (auto& v : s.blind_tx_best) v = rng.normal();
  s.blind_tx_best_value = rng.uniform(0.0, 1e6);
  s.blind_tx_seed = random_pose(rng);
  s.blind_best = random_mapping_report(rng);
  s.blind_best_value = rng.uniform(0.0, 1e6);

  s.retry_attempt = static_cast<int>(rng.uniform(0.0, 10.0));
  s.retry_tx = random_pose(rng);
  s.retry_rx = random_pose(rng);
  return cp;
}

void expect_pose_eq(const geom::Pose& a, const geom::Pose& b) {
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_EQ(a.rotation().m[i][j], b.rotation().m[i][j]);
  }
  EXPECT_EQ(a.translation().x, b.translation().x);
  EXPECT_EQ(a.translation().y, b.translation().y);
  EXPECT_EQ(a.translation().z, b.translation().z);
}

void expect_kspace_report_eq(const std::optional<core::KSpaceFitReport>& a,
                             const std::optional<core::KSpaceFitReport>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a) return;
  const auto pa = a->model.params().pack();
  const auto pb = b->model.params().pack();
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
  EXPECT_EQ(a->avg_error_m, b->avg_error_m);
  EXPECT_EQ(a->max_error_m, b->max_error_m);
  EXPECT_EQ(a->optimizer_iterations, b->optimizer_iterations);
  EXPECT_EQ(a->converged, b->converged);
}

void expect_mapping_report_eq(const core::MappingFitReport& a,
                              const core::MappingFitReport& b) {
  expect_pose_eq(a.map_tx, b.map_tx);
  expect_pose_eq(a.map_rx, b.map_rx);
  EXPECT_EQ(a.avg_coincidence_m, b.avg_coincidence_m);
  EXPECT_EQ(a.max_coincidence_m, b.max_coincidence_m);
  EXPECT_EQ(a.optimizer_iterations, b.optimizer_iterations);
  EXPECT_EQ(a.converged, b.converged);
}

void expect_checkpoint_eq(const EngineCheckpoint& a, const EngineCheckpoint& b) {
  EXPECT_EQ(a.state.phase, b.state.phase);
  EXPECT_EQ(a.state.steps, b.state.steps);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.rng.s[i], b.rng.s[i]);
  EXPECT_EQ(a.rng.cached_normal, b.rng.cached_normal);
  EXPECT_EQ(a.rng.has_cached_normal, b.rng.has_cached_normal);

  EXPECT_EQ(a.collector.i, b.collector.i);
  EXPECT_EQ(a.collector.j, b.collector.j);
  EXPECT_EQ(a.collector.v1, b.collector.v1);
  EXPECT_EQ(a.collector.v2, b.collector.v2);

  ASSERT_EQ(a.state.tx_samples.size(), b.state.tx_samples.size());
  for (std::size_t i = 0; i < a.state.tx_samples.size(); ++i) {
    EXPECT_EQ(a.state.tx_samples[i].x, b.state.tx_samples[i].x);
    EXPECT_EQ(a.state.tx_samples[i].y, b.state.tx_samples[i].y);
    EXPECT_EQ(a.state.tx_samples[i].v1, b.state.tx_samples[i].v1);
    EXPECT_EQ(a.state.tx_samples[i].v2, b.state.tx_samples[i].v2);
  }
  ASSERT_EQ(a.state.rx_samples.size(), b.state.rx_samples.size());
  for (std::size_t i = 0; i < a.state.rx_samples.size(); ++i) {
    EXPECT_EQ(a.state.rx_samples[i].x, b.state.rx_samples[i].x);
    EXPECT_EQ(a.state.rx_samples[i].v2, b.state.rx_samples[i].v2);
  }
  expect_kspace_report_eq(a.state.tx_report, b.state.tx_report);
  expect_kspace_report_eq(a.state.rx_report, b.state.rx_report);

  ASSERT_EQ(a.lm.has_value(), b.lm.has_value());
  if (a.lm) {
    ASSERT_EQ(a.lm->params.size(), b.lm->params.size());
    for (std::size_t i = 0; i < a.lm->params.size(); ++i) {
      EXPECT_EQ(a.lm->params[i], b.lm->params[i]);
    }
    EXPECT_EQ(a.lm->lambda, b.lm->lambda);
    EXPECT_EQ(a.lm->initial_cost, b.lm->initial_cost);
    EXPECT_EQ(a.lm->iterations, b.lm->iterations);
    EXPECT_EQ(a.lm->converged, b.lm->converged);
  }

  ASSERT_EQ(a.state.tuples.size(), b.state.tuples.size());
  for (std::size_t i = 0; i < a.state.tuples.size(); ++i) {
    EXPECT_EQ(a.state.tuples[i].voltages.tx1, b.state.tuples[i].voltages.tx1);
    EXPECT_EQ(a.state.tuples[i].voltages.rx2, b.state.tuples[i].voltages.rx2);
    expect_pose_eq(a.state.tuples[i].psi, b.state.tuples[i].psi);
  }
  EXPECT_EQ(a.state.hint.tx1, b.state.hint.tx1);
  EXPECT_EQ(a.state.hint.rx2, b.state.hint.rx2);
  EXPECT_EQ(a.state.stage2_i, b.state.stage2_i);
  expect_pose_eq(a.state.tx_guess, b.state.tx_guess);
  expect_pose_eq(a.state.rx_guess, b.state.rx_guess);
  expect_mapping_report_eq(a.state.mapping, b.state.mapping);

  EXPECT_EQ(a.state.blind_centroid.x, b.state.blind_centroid.x);
  EXPECT_EQ(a.state.blind_centroid.y, b.state.blind_centroid.y);
  EXPECT_EQ(a.state.blind_centroid.z, b.state.blind_centroid.z);
  EXPECT_EQ(a.state.blind_a, b.state.blind_a);
  EXPECT_EQ(a.state.blind_b, b.state.blind_b);
  for (std::size_t i = 0; i < a.state.blind_tx_best.size(); ++i) {
    EXPECT_EQ(a.state.blind_tx_best[i], b.state.blind_tx_best[i]);
  }
  EXPECT_EQ(a.state.blind_tx_best_value, b.state.blind_tx_best_value);
  expect_pose_eq(a.state.blind_tx_seed, b.state.blind_tx_seed);
  expect_mapping_report_eq(a.state.blind_best, b.state.blind_best);
  EXPECT_EQ(a.state.blind_best_value, b.state.blind_best_value);

  EXPECT_EQ(a.state.retry_attempt, b.state.retry_attempt);
  expect_pose_eq(a.state.retry_tx, b.state.retry_tx);
  expect_pose_eq(a.state.retry_rx, b.state.retry_rx);
}

std::string serialize(const EngineCheckpoint& cp) {
  std::ostringstream out;
  cal::write_engine_checkpoint(out, cp);
  return out.str();
}

EngineCheckpoint parse(const std::string& text) {
  std::istringstream in(text);
  return cal::read_engine_checkpoint(in);
}

/// Expects parse(text) to throw a runtime_error whose message contains
/// both `line_tag` (e.g. "line 3") and `fragment`.
void expect_parse_error(const std::string& text, const std::string& line_tag,
                        const std::string& fragment) {
  try {
    parse(text);
    FAIL() << "expected a parse error mentioning '" << fragment << "'";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(line_tag), std::string::npos)
        << "message '" << what << "' lacks '" << line_tag << "'";
    EXPECT_NE(what.find(fragment), std::string::npos)
        << "message '" << what << "' lacks '" << fragment << "'";
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// ---- round-trip property ----

TEST(CalCheckpointTest, RandomizedRoundTripIsBitExact) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const EngineCheckpoint cp = random_checkpoint(seed);
    expect_checkpoint_eq(cp, parse(serialize(cp)));
  }
}

TEST(CalCheckpointTest, FileSaveLoadRoundTrip) {
  const EngineCheckpoint cp = random_checkpoint(99);
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "engine.ckpt";
  cal::save_engine_checkpoint(path, cp);
  expect_checkpoint_eq(cp, cal::load_engine_checkpoint(path));
  std::filesystem::remove(path);
}

TEST(CalCheckpointTest, LoadOfMissingFileThrows) {
  EXPECT_THROW(cal::load_engine_checkpoint("/nonexistent/engine.ckpt"),
               std::runtime_error);
}

// ---- negatives: every rejection names the offending line ----

TEST(CalCheckpointTest, EmptyInputRejectedAtLine1) {
  expect_parse_error("", "line 1", "not a cyclops calibration-engine");
}

TEST(CalCheckpointTest, WrongVersionRejectedAtLine1) {
  auto lines = split_lines(serialize(random_checkpoint(1)));
  lines[0] = "cyclops-cal-checkpoint v2";
  expect_parse_error(join_lines(lines), "line 1", "expected 'cyclops-cal-checkpoint v1'");
}

TEST(CalCheckpointTest, ResultFileMagicIsNotACheckpoint) {
  // A retired calibration-file header never loads as a checkpoint.
  expect_parse_error("cyclops-calibration v1\n", "line 1",
                     "not a cyclops calibration-engine");
}

TEST(CalCheckpointTest, TruncationRejectedWithNextExpectedRecord) {
  const auto lines = split_lines(serialize(random_checkpoint(2)));
  ASSERT_EQ(lines.size(), 25u);
  // Cut after the rng lines: the reader must name the first missing
  // record ("collector", line 5) rather than crash or zero-fill.
  const std::vector<std::string> head(lines.begin(), lines.begin() + 4);
  expect_parse_error(join_lines(head), "line 5", "file truncated");
}

TEST(CalCheckpointTest, EveryTruncationPointRejected) {
  const std::string text = serialize(random_checkpoint(3));
  const auto lines = split_lines(text);
  for (std::size_t keep = 0; keep < lines.size(); ++keep) {
    SCOPED_TRACE("keep " + std::to_string(keep) + " lines");
    const std::vector<std::string> head(lines.begin(),
                                        lines.begin() + static_cast<long>(keep));
    EXPECT_THROW(parse(join_lines(head)), std::runtime_error);
  }
  EXPECT_NO_THROW(parse(text));
}

TEST(CalCheckpointTest, GarbledFieldNamesLineAndField) {
  auto lines = split_lines(serialize(random_checkpoint(4)));
  // Line 4 is "rng_normal <2 doubles>"; garble its second value.
  std::istringstream in(lines[3]);
  std::string key, v1, v2;
  in >> key >> v1 >> v2;
  ASSERT_EQ(key, "rng_normal");
  lines[3] = key + " " + v1 + " bogus";
  expect_parse_error(join_lines(lines), "line 4", "field 2 of rng_normal");
}

TEST(CalCheckpointTest, SignedRngWordRejected) {
  auto lines = split_lines(serialize(random_checkpoint(5)));
  // Line 3 is "rng_state <4 u64>"; a negative word must not wrap.
  lines[2] = "rng_state 1 2 -3 4";
  expect_parse_error(join_lines(lines), "line 3",
                     "not an unsigned 64-bit integer");
}

TEST(CalCheckpointTest, WrongValueCountRejected) {
  auto lines = split_lines(serialize(random_checkpoint(6)));
  lines[4] = "collector 1 1 0.5";  // 3 values where 4 are required.
  expect_parse_error(join_lines(lines), "line 5", "expected 4 values");
}

TEST(CalCheckpointTest, WrongKeyRejected) {
  auto lines = split_lines(serialize(random_checkpoint(7)));
  lines[16] = "hintt 0 0 0 0";
  expect_parse_error(join_lines(lines), "line 17", "hint");
}

TEST(CalCheckpointTest, PhaseOutOfRangeRejected) {
  auto lines = split_lines(serialize(random_checkpoint(8)));
  lines[1] = "state 99 0 0 0 0 0 0 0 0";
  expect_parse_error(join_lines(lines), "line 2", "phase 99 out of range");
}

TEST(CalCheckpointTest, NonBinaryFlagRejected) {
  auto lines = split_lines(serialize(random_checkpoint(9)));
  lines[1] = "state 0 0 0 0 0 0 2 0 0";  // lm_active = 2.
  expect_parse_error(join_lines(lines), "line 2", "flag must be 0 or 1");
}

TEST(CalCheckpointTest, RngWordsAbove2To53SurviveRoundTrip) {
  EngineCheckpoint cp;
  cp.rng.s[0] = 0xffffffffffffffffull;
  cp.rng.s[1] = (1ull << 53) + 1;  // The first value a double cannot hold.
  cp.rng.s[2] = 0x9e3779b97f4a7c15ull;
  cp.rng.s[3] = 1;
  cp.state.steps = 0xfedcba9876543210ull;
  const EngineCheckpoint back = parse(serialize(cp));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(cp.rng.s[i], back.rng.s[i]);
  EXPECT_EQ(cp.state.steps, back.state.steps);
}

TEST(CalCheckpointTest, NonIntegralIntFieldRejected) {
  // Casting a non-integral double to int truncates silently; the reader
  // refuses it instead.
  auto lines = split_lines(serialize(random_checkpoint(10)));
  lines[4] = "collector 1.5 1 0 0";
  expect_parse_error(join_lines(lines), "line 5",
                     "field 1 of collector is not an integer");
}

TEST(CalCheckpointTest, OutOfRangeIntFieldRejected) {
  // Casting a double outside int's range to int is undefined behaviour:
  // the collector cursor, each report's iteration count and the LM
  // iteration count are checked before the cast.
  EngineCheckpoint cp;
  util::Rng rng(11);
  cp.state.tx_report = random_kspace_report(rng);
  cp.state.mapping = random_mapping_report(rng);
  const auto lines = split_lines(serialize(cp));
  const auto replace_field = [&lines](std::size_t line, std::size_t field,
                                      const std::string& value) {
    std::istringstream in(lines[line]);
    std::vector<std::string> tokens;
    for (std::string token; in >> token;) tokens.push_back(token);
    tokens[field] = value;
    auto edited = lines;
    edited[line] = tokens[0];
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      edited[line] += " " + tokens[i];
    }
    return join_lines(edited);
  };
  expect_parse_error(replace_field(4, 1, "1e300"), "line 5",
                     "field 1 of collector is not an integer in int range");
  expect_parse_error(replace_field(4, 2, "-3e9"), "line 5",
                     "field 2 of collector is not an integer in int range");
  expect_parse_error(replace_field(5, 28, "3e9"), "line 6",
                     "field 28 of tx_report is not an integer in int range");
  expect_parse_error(replace_field(13, 3, "1e19"), "line 14",
                     "field 3 of lm_state is not an integer in int range");
  expect_parse_error(replace_field(19, 27, "-1e300"), "line 20",
                     "field 27 of mapping is not an integer in int range");
}

TEST(CalCheckpointTest, StateCounterAboveIntRangeRejected) {
  // The state record's counters are u64 on disk but int in the engine; a
  // value above INT_MAX must not wrap.
  auto lines = split_lines(serialize(random_checkpoint(12)));
  lines[1] = "state 4 0 4294967296 0 0 0 0 0 0";
  expect_parse_error(join_lines(lines), "line 2",
                     "field 3 of state is out of int range");
  lines[1] = "state 8 0 0 0 0 2147483648 0 0 0";
  expect_parse_error(join_lines(lines), "line 2",
                     "field 6 of state is out of int range");
}

TEST(CalCheckpointTest, CountTooLargeForRecordRejected) {
  // 2^62 samples of 4 doubles (and 2^62 tuples of 16) wrap the expected
  // value count to 0, which an empty data line would match.
  const auto lines = split_lines(serialize(EngineCheckpoint{}));
  auto edited = lines;
  edited[7] = "tx_samples_n 4611686018427387904";
  expect_parse_error(join_lines(edited), "line 8",
                     "field 1 of tx_samples_n: count 4611686018427387904 is "
                     "too large");
  edited = lines;
  edited[14] = "tuples_n 4611686018427387904";
  expect_parse_error(join_lines(edited), "line 15",
                     "field 1 of tuples_n: count 4611686018427387904 is too "
                     "large");
}

}  // namespace

// Calibration files (cal::save_calibration / cal::load_calibration): a
// saved calibration is a finished engine checkpoint, so the malformed-file
// rejections (truncation, wrong value counts, non-finite or non-numeric
// fields, wrong keys, foreign or retired headers) name the checkpoint
// record's line and field, and an unfinished checkpoint is refused.  Uses
// a synthetic CalibrationResult so no (slow) calibration runs.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cal/checkpoint.hpp"

namespace cyclops::core {
namespace {

using cal::load_calibration;
using cal::save_calibration;

CalibrationResult make_synthetic() {
  std::array<double, galvo::GalvoParams::kParamCount> tx_packed{};
  std::array<double, galvo::GalvoParams::kParamCount> rx_packed{};
  for (std::size_t i = 0; i < tx_packed.size(); ++i) {
    tx_packed[i] = 0.013 * static_cast<double>(i + 1);
    rx_packed[i] = -0.007 * static_cast<double>(i + 1);
  }
  const std::array<double, 6> tx_map{0.1, -0.2, 0.3, 0.01, -0.02, 0.03};
  const std::array<double, 6> rx_map{-0.4, 0.5, -0.6, 0.04, -0.05, 0.06};
  return CalibrationResult{
      KSpaceFitReport{GmaModel(galvo::GalvoParams::unpack(tx_packed)),
                      1.2e-3, 3.4e-3, 0, true},
      KSpaceFitReport{GmaModel(galvo::GalvoParams::unpack(rx_packed)),
                      2.3e-3, 4.5e-3, 0, true},
      MappingFitReport{geom::Pose::from_params(tx_map),
                       geom::Pose::from_params(rx_map), 5.6e-3, 7.8e-3, 0,
                       true},
      {}};
}

std::filesystem::path temp_file(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::filesystem::path& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const auto& line : lines) out << line << '\n';
}

/// Runs load_calibration and returns the thrown message ("" if none).
std::string load_error(const std::filesystem::path& path) {
  try {
    load_calibration(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(PersistenceV2Test, RejectsUnknownHeaderNamingIt) {
  const auto path = temp_file("cyclops_persist_badmagic.txt");
  save_calibration(path, make_synthetic());
  auto lines = read_lines(path);
  lines[0] = "cyclops-calibration v3";
  write_lines(path, lines);

  const std::string what = load_error(path);
  EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  EXPECT_NE(what.find("cyclops-calibration v3"), std::string::npos) << what;
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, RejectsRetiredCalibrationHeaders) {
  // The v1/v2 calibration formats are retired: their files are refused at
  // the header, which the message names, rather than half-read.
  const auto path = temp_file("cyclops_persist_retired.txt");
  for (const std::string header :
       {"cyclops-calibration v1", "cyclops-calibration v2"}) {
    SCOPED_TRACE(header);
    write_lines(path, {header, "tx_model 1 2 3", "rx_model 1 2 3",
                       "map_tx 0 0 0 0 0 0", "map_rx 0 0 0 0 0 0",
                       "stats 0 0 0 0 0 0"});
    const std::string what = load_error(path);
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("'" + header + "'"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, RejectsUnfinishedCheckpoint) {
  // Only a Phase::kDone checkpoint that carries both Stage-1 reports is a
  // calibration.
  const CalibrationResult calib = make_synthetic();
  cal::EngineCheckpoint mid_fit;
  mid_fit.state.phase = cal::Phase::kStage2Fit;
  mid_fit.state.tx_report = calib.tx_stage1;
  mid_fit.state.rx_report = calib.rx_stage1;
  cal::EngineCheckpoint no_models;
  no_models.state.phase = cal::Phase::kDone;
  const auto path = temp_file("cyclops_persist_unfinished.txt");
  for (const auto& cp : {mid_fit, no_models}) {
    cal::save_engine_checkpoint(path, cp);
    const std::string what = load_error(path);
    EXPECT_NE(what.find("not a finished calibration"), std::string::npos)
        << what;
  }
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, TruncatedFileNamesMissingRecord) {
  const auto path = temp_file("cyclops_persist_trunc.txt");
  save_calibration(path, make_synthetic());
  auto lines = read_lines(path);
  lines.resize(6);  // header .. tx_report; rx_report onwards gone
  write_lines(path, lines);

  const std::string what = load_error(path);
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  EXPECT_NE(what.find("rx_report"), std::string::npos) << what;
  EXPECT_NE(what.find("line 7"), std::string::npos) << what;
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, WrongValueCountNamesLineAndCounts) {
  const auto path = temp_file("cyclops_persist_arity.txt");
  save_calibration(path, make_synthetic());
  auto lines = read_lines(path);
  lines[5] = "tx_report 1 2 3";  // 29 expected
  write_lines(path, lines);

  const std::string what = load_error(path);
  EXPECT_NE(what.find("line 6"), std::string::npos) << what;
  EXPECT_NE(what.find("expected 29"), std::string::npos) << what;
  EXPECT_NE(what.find("got 3"), std::string::npos) << what;
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, NonFiniteFieldNamesLineAndField) {
  const auto path = temp_file("cyclops_persist_nan.txt");
  save_calibration(path, make_synthetic());
  auto lines = read_lines(path);
  // Replace rx_report's third value with NaN (line 7, field 3).
  std::istringstream ss(lines[6]);
  std::string token;
  std::vector<std::string> tokens;
  while (ss >> token) tokens.push_back(token);
  tokens[3] = "nan";  // tokens[0] is the key
  std::string rebuilt;
  for (const auto& t : tokens) rebuilt += t + " ";
  lines[6] = rebuilt;
  write_lines(path, lines);

  const std::string what = load_error(path);
  EXPECT_NE(what.find("line 7"), std::string::npos) << what;
  EXPECT_NE(what.find("field 3 of rx_report"), std::string::npos) << what;
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, NonNumericFieldNamesLineAndField) {
  const auto path = temp_file("cyclops_persist_text.txt");
  save_calibration(path, make_synthetic());
  auto lines = read_lines(path);
  lines[16] = "hint 0.1 0.2 bogus 0.4";
  write_lines(path, lines);

  const std::string what = load_error(path);
  EXPECT_NE(what.find("line 17"), std::string::npos) << what;
  EXPECT_NE(what.find("field 3 of hint"), std::string::npos) << what;
  std::filesystem::remove(path);
}

TEST(PersistenceV2Test, WrongRecordKeyNamesBoth) {
  const auto path = temp_file("cyclops_persist_key.txt");
  save_calibration(path, make_synthetic());
  auto lines = read_lines(path);
  lines[5].replace(0, 9, "ty_report");
  write_lines(path, lines);

  const std::string what = load_error(path);
  EXPECT_NE(what.find("tx_report"), std::string::npos) << what;
  EXPECT_NE(what.find("ty_report"), std::string::npos) << what;
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cyclops::core

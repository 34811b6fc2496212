#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "motion/profile.hpp"
#include "motion/trace.hpp"
#include "motion/trace_generator.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace cyclops::motion {
namespace {

const geom::Pose kBase{geom::Mat3::rotation({0, 1, 0}, 0.3), {0.0, 0.8, 1.2}};

double mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

// ---- profiles ----

TEST(StillMotionTest, NeverMoves) {
  const StillMotion profile(kBase, 5.0);
  EXPECT_DOUBLE_EQ(profile.duration_s(), 5.0);
  const Speeds s = measure_speeds(profile, util::us_from_s(2.0));
  EXPECT_DOUBLE_EQ(s.linear_mps, 0.0);
  EXPECT_DOUBLE_EQ(s.angular_rps, 0.0);
}

TEST(LinearStrokeTest, TravelsFullStroke) {
  const LinearStrokeMotion profile(kBase, {1, 0, 0}, 0.25, {0.1});
  const geom::Vec3 start = profile.pose_at(0).translation();
  EXPECT_NEAR(start.x, kBase.translation().x - 0.25, 1e-9);
  // Stroke of 0.5 m at 0.1 m/s takes 5 s.
  const geom::Vec3 end = profile.pose_at(util::us_from_s(5.0)).translation();
  EXPECT_NEAR(end.x, kBase.translation().x + 0.25, 1e-6);
}

TEST(LinearStrokeTest, SpeedMatchesSchedule) {
  const LinearStrokeMotion profile(kBase, {1, 0, 0}, 0.25, {0.1, 0.2});
  // Mid-first-stroke.
  const Speeds s1 = measure_speeds(profile, util::us_from_s(2.5));
  EXPECT_NEAR(s1.linear_mps, 0.1, 1e-3);
  EXPECT_NEAR(s1.angular_rps, 0.0, 1e-9);
  // Second stroke starts at 5 + 0.25 rest; takes 2.5 s.
  const Speeds s2 = measure_speeds(profile, util::us_from_s(6.5));
  EXPECT_NEAR(s2.linear_mps, 0.2, 1e-2);
}

TEST(LinearStrokeTest, RestsBetweenStrokes) {
  const LinearStrokeMotion profile(kBase, {1, 0, 0}, 0.25, {0.1, 0.1}, 0.5);
  // Rest window right after the first stroke (5.0 .. 5.5 s).
  const geom::Vec3 a = profile.pose_at(util::us_from_s(5.1)).translation();
  const geom::Vec3 b = profile.pose_at(util::us_from_s(5.4)).translation();
  EXPECT_NEAR(geom::distance(a, b), 0.0, 1e-12);
}

TEST(LinearStrokeTest, OrientationNeverChanges) {
  const LinearStrokeMotion profile(kBase, {0, 0, 1}, 0.2, {0.15, 0.3});
  for (double t : {0.0, 1.0, 3.0, 6.0}) {
    EXPECT_NEAR(geom::rotation_distance(
                    kBase, profile.pose_at(util::us_from_s(t))),
                0.0, 1e-12);
  }
}

TEST(AngularStrokeTest, SpeedMatchesSchedule) {
  const double w = util::deg_to_rad(10.0);
  const AngularStrokeMotion profile(kBase, {0, 1, 0}, util::deg_to_rad(20.0),
                                    {w});
  const Speeds s = measure_speeds(profile, util::us_from_s(1.0));
  EXPECT_NEAR(s.angular_rps, w, w * 0.02);
  EXPECT_NEAR(s.linear_mps, 0.0, 1e-9);
}

TEST(AngularStrokeTest, PositionFixed) {
  const AngularStrokeMotion profile(kBase, {0, 1, 0}, 0.3, {0.2, 0.4});
  for (double t : {0.0, 0.7, 1.9, 3.0}) {
    EXPECT_NEAR(geom::distance(profile.pose_at(util::us_from_s(t)).translation(),
                               kBase.translation()),
                0.0, 1e-12);
  }
}

TEST(AngularStrokeTest, SweepsExpectedAngle) {
  const AngularStrokeMotion profile(kBase, {0, 1, 0}, 0.25, {0.25});
  const geom::Pose start = profile.pose_at(0);
  const geom::Pose end = profile.pose_at(util::us_from_s(2.0));
  EXPECT_NEAR(geom::rotation_distance(start, end), 0.5, 1e-3);
}

TEST(MixedRandomTest, RespectsSpeedCaps) {
  MixedRandomMotion::Config config;
  config.duration_s = 20.0;
  config.max_linear_speed = 0.3;
  config.max_angular_speed = 0.4;
  const MixedRandomMotion profile(kBase, config, util::Rng(3));
  for (double t = 0.1; t < 19.9; t += 0.05) {
    const Speeds s = measure_speeds(profile, util::us_from_s(t));
    EXPECT_LT(s.linear_mps, 0.45);   // cap + interpolation slack
    EXPECT_LT(s.angular_rps, 0.6);
  }
}

TEST(MixedRandomTest, StaysNearBase) {
  MixedRandomMotion::Config config;
  config.duration_s = 30.0;
  const MixedRandomMotion profile(kBase, config, util::Rng(5));
  for (double t = 0; t < 30.0; t += 0.5) {
    const double excursion = geom::distance(
        profile.pose_at(util::us_from_s(t)).translation(),
        kBase.translation());
    EXPECT_LT(excursion, 0.6);
  }
}

TEST(MixedRandomTest, ActuallyMoves) {
  MixedRandomMotion::Config config;
  const MixedRandomMotion profile(kBase, config, util::Rng(7));
  util::RunningStats lin;
  for (double t = 0.5; t < 25.0; t += 0.25) {
    lin.add(measure_speeds(profile, util::us_from_s(t)).linear_mps);
  }
  EXPECT_GT(lin.mean(), 0.01);
}

TEST(MixedRandomTest, DeterministicPerSeed) {
  MixedRandomMotion::Config config;
  const MixedRandomMotion a(kBase, config, util::Rng(11));
  const MixedRandomMotion b(kBase, config, util::Rng(11));
  const MixedRandomMotion c(kBase, config, util::Rng(12));
  const auto t = util::us_from_s(3.0);
  EXPECT_DOUBLE_EQ(
      geom::translation_distance(a.pose_at(t), b.pose_at(t)), 0.0);
  EXPECT_GT(geom::translation_distance(a.pose_at(t), c.pose_at(t)), 0.0);
}

// ---- traces ----

Trace tiny_trace() {
  Trace trace;
  for (int i = 0; i <= 10; ++i) {
    const double t_ms = i * 10.0;
    trace.samples.push_back(
        {util::us_from_ms(t_ms),
         geom::Pose{geom::Mat3::rotation({0, 1, 0}, 0.01 * i),
                    {0.001 * i, 0.8, 1.2}}});
  }
  return trace;
}

TEST(TraceTest, PoseAtInterpolates) {
  const Trace trace = tiny_trace();
  const geom::Pose mid = trace.pose_at(util::us_from_ms(5.0));
  EXPECT_NEAR(mid.translation().x, 0.0005, 1e-9);
  EXPECT_NEAR(geom::rotation_distance(trace.samples[0].pose, mid), 0.005,
              1e-6);
}

TEST(TraceTest, PoseAtClampsEnds) {
  const Trace trace = tiny_trace();
  EXPECT_NEAR(geom::translation_distance(trace.pose_at(-5),
                                         trace.samples.front().pose),
              0.0, 1e-12);
  EXPECT_NEAR(
      geom::translation_distance(trace.pose_at(util::us_from_s(100.0)),
                                 trace.samples.back().pose),
      0.0, 1e-12);
}

TEST(TraceTest, CsvRoundTrip) {
  const Trace trace = tiny_trace();
  const auto path =
      std::filesystem::temp_directory_path() / "cyclops_trace_test.csv";
  trace.save_csv(path);
  const Trace loaded = Trace::load_csv(path);
  ASSERT_EQ(loaded.samples.size(), trace.samples.size());
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    EXPECT_EQ(loaded.samples[i].time, trace.samples[i].time);
    EXPECT_LT(geom::translation_distance(loaded.samples[i].pose,
                                         trace.samples[i].pose),
              1e-9);
    EXPECT_LT(geom::rotation_distance(loaded.samples[i].pose,
                                      trace.samples[i].pose),
              1e-6);
  }
  std::filesystem::remove(path);
}

TEST(TraceTest, LoadCsvRejectsTimesTheClockCannotHold) {
  const auto path =
      std::filesystem::temp_directory_path() / "cyclops_trace_hostile.csv";
  const auto write = [&path](const std::string& t_ms) {
    std::ofstream out(path);
    out << "t_ms,x,y,z,qw,qx,qy,qz\n"
        << "0,0,0.8,1.2,1,0,0,0\n"
        << t_ms << ",0,0.8,1.2,1,0,0,0\n";
  };
  // 9.3e15 ms is 9.3e18 us, past INT64_MAX.
  for (const std::string token :
       {"nan", "-nan", "inf", "-inf", "infinity", "1e300", "-1e300",
        "9.3e15", "-9.3e15"}) {
    write(token);
    try {
      Trace::load_csv(path);
      ADD_FAILURE() << token << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("row 2"), std::string::npos)
          << e.what();
    }
  }
  write("9.2e15");  // 9.2e18 us still fits
  EXPECT_EQ(Trace::load_csv(path).samples.back().time,
            static_cast<util::SimTimeUs>(9.2e18));
  std::filesystem::remove(path);
}

TEST(TraceTest, ComputeSpeeds) {
  const Trace trace = tiny_trace();
  const TraceSpeeds speeds = compute_speeds(trace);
  ASSERT_EQ(speeds.linear_mps.size(), 10u);
  // 1 mm per 10 ms = 0.1 m/s; 0.01 rad per 10 ms = 1 rad/s.
  EXPECT_NEAR(speeds.linear_mps[3], 0.1, 1e-6);
  EXPECT_NEAR(speeds.angular_rps[3], 1.0, 1e-4);
}

TEST(TraceMotionTest, WrapsTrace) {
  const TraceMotion profile(tiny_trace());
  EXPECT_NEAR(profile.duration_s(), 0.1, 1e-9);
  EXPECT_NEAR(profile.pose_at(util::us_from_ms(10.0)).translation().x, 0.001,
              1e-9);
}

// ---- generator ----

TEST(TraceGeneratorTest, ShapeMatchesDatasetSpec) {
  util::Rng rng(1);
  TraceGeneratorConfig config;
  config.duration_s = 60.0;
  const Trace trace = generate_viewing_trace(kBase, config, rng);
  // 1 min at 10 ms = 6000 samples (+1 fencepost).
  EXPECT_NEAR(static_cast<double>(trace.samples.size()), 6001.0, 2.0);
  EXPECT_NEAR(trace.duration_s(), 60.0, 0.1);
}

TEST(TraceGeneratorTest, SpeedsRespectFig3Caps) {
  util::Rng rng(2);
  TraceGeneratorConfig config;
  const Trace trace = generate_viewing_trace(kBase, config, rng);
  const TraceSpeeds speeds = compute_speeds(trace);
  for (double v : speeds.linear_mps) EXPECT_LE(v, 0.145);
  for (double w : speeds.angular_rps) EXPECT_LE(w, 0.34);
}

TEST(TraceGeneratorTest, SpeedsAreNontrivial) {
  util::Rng rng(3);
  const Trace trace = generate_viewing_trace(kBase, {}, rng);
  const TraceSpeeds speeds = compute_speeds(trace);
  EXPECT_GT(mean(speeds.angular_rps), util::deg_to_rad(0.5));
  EXPECT_GT(mean(speeds.linear_mps), 0.002);
}

TEST(TraceGeneratorTest, MedianSpeedsInFig3Band) {
  // Fig 3: medians of a seated 360° viewer are a few deg/s and ~1-2 cm/s.
  util::Rng rng(4);
  std::vector<double> lin, ang;
  for (int i = 0; i < 10; ++i) {
    util::Rng trng = rng.split();
    const Trace trace = generate_viewing_trace(kBase, {}, trng);
    const TraceSpeeds speeds = compute_speeds(trace);
    lin.insert(lin.end(), speeds.linear_mps.begin(), speeds.linear_mps.end());
    ang.insert(ang.end(), speeds.angular_rps.begin(),
               speeds.angular_rps.end());
  }
  const double lin_median = util::percentile(lin, 50.0);
  const double ang_median_deg = util::rad_to_deg(util::percentile(ang, 50.0));
  EXPECT_GT(lin_median, 0.002);
  EXPECT_LT(lin_median, 0.05);
  EXPECT_GT(ang_median_deg, 0.5);
  EXPECT_LT(ang_median_deg, 8.0);
}

TEST(TraceGeneratorTest, DatasetHasRequestedCountAndVariety) {
  util::Rng rng(5);
  util::ThreadPool pool(2);
  const auto traces = generate_dataset(kBase, 20, {}, rng, pool);
  ASSERT_EQ(traces.size(), 20u);
  // Different viewers behave differently.
  const TraceSpeeds a = compute_speeds(traces[0]);
  const TraceSpeeds b = compute_speeds(traces[1]);
  EXPECT_NE(mean(a.angular_rps), mean(b.angular_rps));
}

TEST(TraceGeneratorTest, PitchStaysComfortable) {
  util::Rng rng(6);
  TraceGeneratorConfig config;
  const Trace trace = generate_viewing_trace(kBase, config, rng);
  for (std::size_t i = 0; i < trace.samples.size(); i += 100) {
    EXPECT_LT(geom::rotation_distance(kBase, trace.samples[i].pose), 2.2);
  }
}


// ---- walking generator ----

TEST(WalkingTraceTest, StaysInsideTheBox) {
  util::Rng rng(1);
  motion::WalkingConfig config;
  config.area_half_extent = 0.5;
  const Trace trace = generate_walking_trace(kBase, config, rng);
  for (std::size_t i = 0; i < trace.samples.size(); i += 50) {
    const geom::Vec3 local =
        kBase.rotation().transposed() *
        (trace.samples[i].pose.translation() - kBase.translation());
    EXPECT_LT(std::abs(local.x), 0.56);
    EXPECT_LT(std::abs(local.z), 0.56);
    EXPECT_NEAR(local.y, 0.0, 1e-9);  // walking stays at head height
  }
}

TEST(WalkingTraceTest, WalkSpeedsInConfiguredBand) {
  util::Rng rng(2);
  motion::WalkingConfig config;
  const Trace trace = generate_walking_trace(kBase, config, rng);
  const TraceSpeeds speeds = compute_speeds(trace);
  double max_lin = 0.0;
  for (double v : speeds.linear_mps) max_lin = std::max(max_lin, v);
  EXPECT_GT(max_lin, config.walk_speed_min);
  EXPECT_LT(max_lin, config.walk_speed_max + 0.05);
}

TEST(WalkingTraceTest, ForwardFacingKeepsYawBounded) {
  util::Rng rng(3);
  motion::WalkingConfig config;
  const Trace trace = generate_walking_trace(kBase, config, rng);
  for (std::size_t i = 0; i < trace.samples.size(); i += 100) {
    EXPECT_LT(geom::rotation_distance(kBase, trace.samples[i].pose), 0.9);
  }
}

TEST(WalkingTraceTest, AngularSpeedsArePhysical) {
  util::Rng rng(5);
  const Trace trace = generate_walking_trace(kBase, {}, rng);
  const TraceSpeeds speeds = compute_speeds(trace);
  for (double w : speeds.angular_rps) {
    EXPECT_LT(w, util::deg_to_rad(120.0));  // no white-noise head spins
  }
}

}  // namespace
}  // namespace cyclops::motion

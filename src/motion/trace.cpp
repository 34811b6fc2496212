#include "motion/trace.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/csv.hpp"

namespace cyclops::motion {

geom::Pose Trace::pose_at(util::SimTimeUs t) const {
  if (samples.empty()) return {};
  if (t <= samples.front().time) return samples.front().pose;
  if (t >= samples.back().time) return samples.back().pose;

  const auto it = std::lower_bound(
      samples.begin(), samples.end(), t,
      [](const TimedPose& s, util::SimTimeUs value) { return s.time < value; });
  const TimedPose& b = *it;
  const TimedPose& a = *(it - 1);
  const double span = static_cast<double>(b.time - a.time);
  const double frac =
      span > 0.0 ? static_cast<double>(t - a.time) / span : 1.0;

  return geom::Pose{
      geom::slerp(a.pose.rotation_quat(), b.pose.rotation_quat(), frac)
          .to_matrix(),
      a.pose.translation() +
          (b.pose.translation() - a.pose.translation()) * frac};
}

void Trace::save_csv(const std::filesystem::path& path) const {
  std::vector<std::vector<double>> rows;
  rows.reserve(samples.size());
  for (const auto& s : samples) {
    const geom::Quat q = s.pose.rotation_quat();
    const geom::Vec3& p = s.pose.translation();
    rows.push_back({util::us_to_ms(s.time), p.x, p.y, p.z, q.w, q.x, q.y, q.z});
  }
  util::write_csv(path, {"t_ms", "x", "y", "z", "qw", "qx", "qy", "qz"}, rows);
}

Trace Trace::load_csv(const std::filesystem::path& path) {
  const util::CsvTable table = util::read_csv(path);
  Trace trace;
  trace.samples.reserve(table.rows.size());
  const auto bad_row = [&path](std::size_t r, const char* why) {
    return std::runtime_error("bad trace row " + std::to_string(r + 1) +
                              " in " + path.string() + why);
  };
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    if (row.size() != 8) throw bad_row(r, "");
    // us_from_ms casts to SimTimeUs: NaN, inf and out-of-range times would
    // be undefined behaviour there, so they are rejected here.
    const double t_us = row[0] * 1e3;
    if (!(t_us >= -0x1p63 && t_us < 0x1p63)) {
      throw bad_row(r, ": t_ms is not a finite time in range");
    }
    const geom::Quat q = geom::Quat{row[4], row[5], row[6], row[7]}.normalized();
    trace.samples.push_back({util::us_from_ms(row[0]),
                             geom::Pose::from_quat(q, {row[1], row[2], row[3]})});
  }
  return trace;
}

TraceSpeeds compute_speeds(const Trace& trace) {
  TraceSpeeds speeds;
  if (trace.samples.size() < 2) return speeds;
  speeds.linear_mps.reserve(trace.samples.size() - 1);
  speeds.angular_rps.reserve(trace.samples.size() - 1);
  for (std::size_t i = 1; i < trace.samples.size(); ++i) {
    const auto& a = trace.samples[i - 1];
    const auto& b = trace.samples[i];
    const double dt = util::us_to_s(b.time - a.time);
    if (dt <= 0.0) continue;
    speeds.linear_mps.push_back(geom::translation_distance(a.pose, b.pose) /
                                dt);
    speeds.angular_rps.push_back(geom::rotation_distance(a.pose, b.pose) / dt);
  }
  return speeds;
}

}  // namespace cyclops::motion

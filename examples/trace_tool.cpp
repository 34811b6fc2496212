// Trace tooling: generate a synthetic 360°-viewing dataset, export it to
// CSV, reload it, and print per-trace speed statistics — the workflow for
// anyone who wants to swap in their own head-movement recordings (the
// Trace CSV schema is t_ms, x, y, z, qw, qx, qy, qz).
//
// Usage: trace_tool [count] [output_dir]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "link/event_eval.hpp"
#include "link/slot_eval.hpp"
#include "motion/trace_generator.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

using namespace cyclops;

int main(int argc, char** argv) {
  const int count = argc > 1 ? std::atoi(argv[1]) : 5;
  const std::filesystem::path dir =
      argc > 2 ? argv[2]
               : std::filesystem::temp_directory_path() / "cyclops_traces";
  std::filesystem::create_directories(dir);

  std::printf("== Cyclops trace tool: %d traces -> %s ==\n\n", count,
              dir.string().c_str());

  util::Rng rng(2022);
  const geom::Pose base{geom::Mat3::identity(), {0.0, 0.8, 1.2}};
  const auto traces = motion::generate_dataset(base, count, {}, rng);

  std::printf("trace, samples, lin_p50_cm_s, lin_max_cm_s, ang_p50_deg_s, "
              "ang_max_deg_s, off_slots_pct\n");
  const link::SlotEvalConfig slot_config;
  for (int i = 0; i < count; ++i) {
    const auto path = dir / ("trace_" + std::to_string(i) + ".csv");
    traces[static_cast<std::size_t>(i)].save_csv(path);

    // Reload to prove the round trip, then analyze the loaded copy.
    const motion::Trace loaded = motion::Trace::load_csv(path);
    const motion::TraceSpeeds speeds = motion::compute_speeds(loaded);
    const link::SlotEvalResult connectivity =
        link::evaluate_trace_events(loaded, slot_config);

    std::printf("%d, %zu, %.2f, %.2f, %.2f, %.2f, %.3f\n", i,
                loaded.samples.size(),
                util::percentile(speeds.linear_mps, 50.0) * 100.0,
                util::percentile(speeds.linear_mps, 100.0) * 100.0,
                util::rad_to_deg(util::percentile(speeds.angular_rps, 50.0)),
                util::rad_to_deg(util::percentile(speeds.angular_rps, 100.0)),
                100.0 * connectivity.off_fraction());
  }

  std::printf("\nwrote %d CSV traces to %s (schema: t_ms, x, y, z, qw, qx, "
              "qy, qz @ 10 ms)\n",
              count, dir.string().c_str());
  return 0;
}

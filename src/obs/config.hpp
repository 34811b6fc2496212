// Telemetry is always compiled in: every instrumentation site records
// into its context's registry.  The constant below stays only because the
// repo benchmark prints it in its host record.
#pragma once

namespace cyclops::obs {

inline constexpr bool kEnabled = true;

}  // namespace cyclops::obs

// Build-time switch for the telemetry subsystem.
//
// `-DCYCLOPS_OBS=OFF` at configure time defines CYCLOPS_OBS_ENABLED=0 for
// the whole tree; instrumentation sites guard their recording code with
// `if constexpr (obs::kEnabled)`, so an OFF build compiles every site to a
// no-op (the discarded branch is eliminated, not just skipped at runtime).
// The obs *library* — metric types, registry, exporters — stays fully
// functional in both modes: only the cross-cutting instrumentation of the
// control plane disappears, so code that owns its metrics explicitly
// (e.g. a caller-held obs::Registry) behaves identically in either build.
#pragma once

#ifndef CYCLOPS_OBS_ENABLED
#define CYCLOPS_OBS_ENABLED 1
#endif

namespace cyclops::obs {

inline constexpr bool kEnabled = CYCLOPS_OBS_ENABLED != 0;

}  // namespace cyclops::obs

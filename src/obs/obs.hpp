// Umbrella header for the telemetry subsystem (DESIGN.md §10).
#pragma once

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

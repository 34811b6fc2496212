// Registry exporters: Prometheus text exposition and JSONL.
//
// Prometheus text is the human/scrape-facing format: `# TYPE` comments,
// cumulative `_bucket{le="..."}` lines, derived `_sum`/`_count`.  It drops
// histogram min/max (the format has no slot for them); `_sum` is the
// bucket-derived approx_sum, never a stored float, so the text depends only
// on the integer counts.
//
// JSONL is the machine format: one metric per line at full fidelity
// (bounds, per-bucket counts, count, min/max).  Both use util::json_number,
// which prints every double exactly.
#pragma once

#include <string>

#include "obs/registry.hpp"

namespace cyclops::obs {

std::string to_prometheus(const Registry& registry);

std::string to_jsonl(const Registry& registry);

}  // namespace cyclops::obs

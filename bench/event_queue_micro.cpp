// Event-queue microbench: push / pop / steady-state churn throughput of
// the binary-heap event queue under three arrival-time distributions:
//
//   hot_bucket — all offsets within ~4 ms: the dense near-future regime
//                a slot-sampled session produces (§13 of DESIGN.md).
//   uniform    — offsets spread over ~4 s.
//   long_tail  — 90% near-future, 10% up to ~67 s ahead.
//
// Emits BENCH_event_queue.json with one Mops/s field per (distribution,
// operation).  The churn loops are the numbers that predict engine
// throughput: a DES steady state holds a bounded set of pending timers
// and replaces the popped head with a new event a bounded offset ahead.
// `churn` holds 1024 pending events; `session_churn` holds 3, the most
// any fleet session was measured to hold (DESIGN.md §13).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "event/event_queue.hpp"
#include "util/rng.hpp"

using namespace cyclops;

namespace {

constexpr std::size_t kEvents = 1u << 17;  // per timed pass
constexpr std::size_t kChurnLive = 1024;   // pending set during churn
constexpr std::size_t kSessionLive = 3;    // pending set of a session
constexpr std::size_t kChurnOps = 1u << 18;

/// Deterministic offset stream for one distribution (values in us).
std::vector<util::SimTimeUs> make_offsets(const std::string& dist,
                                          std::size_t n) {
  util::Rng rng(0x5eed5 + static_cast<std::uint64_t>(dist.size()));
  std::vector<util::SimTimeUs> offsets;
  offsets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    util::SimTimeUs off = 0;
    if (dist == "hot_bucket") {
      off = static_cast<util::SimTimeUs>(rng.uniform_index(1u << 12));
    } else if (dist == "uniform") {
      off = static_cast<util::SimTimeUs>(rng.uniform_index(1u << 22));
    } else {  // long_tail
      off = rng.uniform() < 0.9
                ? static_cast<util::SimTimeUs>(rng.uniform_index(1u << 13))
                : static_cast<util::SimTimeUs>(rng.uniform_index(1u << 26));
    }
    offsets.push_back(off);
  }
  return offsets;
}

double mops(std::size_t ops, double ms) {
  return ms > 0.0 ? static_cast<double>(ops) / (ms * 1e3) : 0.0;
}

struct Row {
  double push_mops = 0.0;
  double pop_mops = 0.0;
  double churn_mops = 0.0;
  double session_churn_mops = 0.0;
};

/// Steady-state churn: hold `live` pending events; each op pops the head
/// and schedules a replacement a bounded offset past it.  This is the
/// regime the engines actually run in.
double churn_mops(const std::vector<util::SimTimeUs>& offsets,
                  std::size_t live) {
  event::EventQueue q;
  event::Event ev;
  ev.type = 1;
  std::size_t next = 0;
  const auto offset_at = [&offsets](std::size_t i) {
    return offsets[i % offsets.size()];
  };
  for (std::size_t i = 0; i < live; ++i) {
    ev.time = offset_at(next++);
    q.push(ev);
  }
  bench::Timer timer;
  event::Event out;
  for (std::size_t i = 0; i < kChurnOps; ++i) {
    if (!q.pop_next(out)) std::abort();
    ev.time = out.time + offset_at(next++);
    q.push(ev);
  }
  return mops(kChurnOps, timer.elapsed_ms());
}

Row run_case(const std::vector<util::SimTimeUs>& offsets) {
  Row row;
  event::Event ev;
  ev.type = 1;

  // Fill + drain: N pushes, then N pops in time order.
  {
    event::EventQueue q;
    bench::Timer timer;
    for (const util::SimTimeUs off : offsets) {
      ev.time = off;
      q.push(ev);
    }
    row.push_mops = mops(offsets.size(), timer.elapsed_ms());
    timer.reset();
    event::Event out;
    std::size_t popped = 0;
    while (q.pop_next(out)) ++popped;
    row.pop_mops = mops(popped, timer.elapsed_ms());
    if (popped != offsets.size()) std::abort();
  }

  row.churn_mops = churn_mops(offsets, kChurnLive);
  row.session_churn_mops = churn_mops(offsets, kSessionLive);
  return row;
}

}  // namespace

int main() {
  std::printf("== event queue micro: push/pop/churn throughput "
              "(Mops/s) ==\n\n");

  const char* kDistributions[] = {"hot_bucket", "uniform", "long_tail"};

  std::vector<std::pair<std::string, double>> fields;
  fields.emplace_back("events_per_pass", static_cast<double>(kEvents));
  fields.emplace_back("churn_live", static_cast<double>(kChurnLive));
  fields.emplace_back("session_churn_live",
                      static_cast<double>(kSessionLive));
  std::printf("%-11s %9s %9s %9s %13s\n", "distribution", "push", "pop",
              "churn", "session_churn");
  for (const char* dist : kDistributions) {
    const auto offsets = make_offsets(dist, kEvents);
    const Row row = run_case(offsets);
    std::printf("%-11s %9.2f %9.2f %9.2f %13.2f\n", dist, row.push_mops,
                row.pop_mops, row.churn_mops, row.session_churn_mops);
    const std::string prefix = std::string("heap_") + dist + "_";
    fields.emplace_back(prefix + "push_mops", row.push_mops);
    fields.emplace_back(prefix + "pop_mops", row.pop_mops);
    fields.emplace_back(prefix + "churn_mops", row.churn_mops);
    fields.emplace_back(prefix + "session_churn_mops",
                        row.session_churn_mops);
  }
  bench::write_bench_json("event_queue", fields);
  return 0;
}

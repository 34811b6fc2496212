#include "arena/session.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "event/scheduler.hpp"
#include "link/handover.hpp"
#include "obs/registry.hpp"
#include "session/lifecycle.hpp"

namespace cyclops::arena {

namespace {

// Arena-plane event type (disjoint from link::SessionEventType values by
// construction: each process only receives its own events).
constexpr event::EventType kEvArenaTick = 100;

struct HeadsetState {
  int assigned = -1;          // roster TX, -1 while queued/rejected
  bool admitted = false;
  bool ever_admitted = false;
  double drift_rad = 0.0;     // accumulated fine-pointing error
  util::SimTimeUs last_slot = 0;       // last granted galvo slot
  util::SimTimeUs last_delivery = -1;  // last data slot (or admit time)
  util::SimTimeUs unservable_since = -1;
  util::SimTimeUs occl_start = -1;
  std::int64_t active_ticks = 0;
  std::int64_t sched_slots = 0;
  std::int64_t delivered_slots = 0;
  std::int64_t occl_ticks = 0;
  util::SimTimeUs longest_gap = 0;
  int migrations = 0;
};

// Metric handles, hoisted once per session.
struct ArenaMetrics {
  obs::Counter* admissions = nullptr;
  obs::Counter* queued = nullptr;
  obs::Counter* rejections = nullptr;
  obs::Counter* migrations = nullptr;
  obs::Counter* evictions = nullptr;
  obs::Counter* slots = nullptr;
  obs::Counter* delivered = nullptr;
  obs::Counter* duty_violations = nullptr;
  obs::Counter* tx_failures = nullptr;
  obs::Histogram* rate_gbps = nullptr;
  obs::Histogram* occl_outage_us = nullptr;

  explicit ArenaMetrics(const runtime::Context& ctx) {
    obs::Registry& reg = ctx.registry();
    admissions = &reg.counter("arena_admissions_total");
    queued = &reg.counter("arena_queued_total");
    rejections = &reg.counter("arena_rejections_total");
    migrations = &reg.counter("arena_migrations_total");
    evictions = &reg.counter("arena_evictions_total");
    slots = &reg.counter("arena_slots_total");
    delivered = &reg.counter("arena_delivered_slots_total");
    duty_violations = &reg.counter("arena_duty_violations_total");
    tx_failures = &reg.counter("arena_tx_failures_total");
    // 0..12 Gbps in 0.5 Gbps steps covers min-rate floors through the
    // 10 G peak with headroom for future 25 G SLAs' lower shares.
    rate_gbps = &reg.histogram("arena_headset_rate_gbps",
                               obs::HistogramSpec::linear(0.0, 0.5, 24));
    occl_outage_us = &reg.histogram("arena_occlusion_outage_us",
                                    obs::HistogramSpec::duration_us());
  }
};

class ArenaSlotProcess final : public event::Process {
 public:
  ArenaSlotProcess(const ArenaTopology& topo, const ArenaOptions& opt,
                   event::Scheduler& sched, const runtime::Context& ctx,
                   ArenaResult& result)
      : topo_(topo),
        opt_(opt),
        sched_(sched),
        metrics_(ctx),
        result_(result),
        beam_(opt.scheduler, topo.num_tx()),
        admission_(opt.sla, opt.scheduler.duty_budget,
                   opt.scheduler.frame_slots),
        heads_(topo.num_players()),
        tx_failed_logged_(topo.num_tx(), false),
        tx_serve_slots_(topo.num_tx(), 0),
        geo_(topo.num_tx() * topo.num_players()),
        occl_(topo.num_tx() * topo.num_players()),
        choice_(topo.num_tx()) {
    self_ = sched_.add_process(this);
    // One HandoverProcess per headset: the same cancellable-switch-timer
    // machinery as the single-headset rig, fed candidate margins instead
    // of receive powers.  Registered after this process, so a switch-done
    // timer and a tick at the same instant dispatch timer-first (FIFO by
    // schedule order — the timer is always scheduled earlier).
    handovers_.reserve(heads_.size());
    for (std::size_t h = 0; h < heads_.size(); ++h) {
      handovers_.push_back(std::make_unique<link::HandoverProcess>(
          topo_.num_tx(), opt_.handover, sched_, ctx));
    }
    total_ticks_ =
        std::max<std::int64_t>(1, util::us_from_s(opt.duration_s) / opt.slot);
  }

  void start() {
    initial_admission();
    event::Event tick;
    tick.type = kEvArenaTick;
    tick.target = self_;
    tick.time = 0;
    sched_.schedule(tick);
  }

  void handle(event::Scheduler& sched, const event::Event& ev) override {
    assert(ev.type == kEvArenaTick);
    tick(ev.time, static_cast<std::uint64_t>(ev.i64));
    if (ev.i64 + 1 < total_ticks_) {
      event::Event next;
      next.type = kEvArenaTick;
      next.target = self_;
      next.i64 = ev.i64 + 1;
      sched.schedule_after(opt_.slot, next);
    }
  }

  void finish();

 private:
  double& geo(std::size_t tx, std::size_t h) {
    return geo_[tx * heads_.size() + h];
  }
  bool occl(std::size_t tx, std::size_t h) const {
    return occl_[tx * heads_.size() + h] != 0;
  }

  std::size_t roster_load(std::size_t tx) const {
    return beam_.roster(tx).size();
  }

  void log_event(util::SimTimeUs t, ArenaEventKind kind, int headset, int tx) {
    result_.log.push_back(ArenaEvent{t, kind, headset, tx});
  }

  void admit(util::SimTimeUs t, int h, int tx) {
    HeadsetState& s = heads_[static_cast<std::size_t>(h)];
    beam_.add(static_cast<std::size_t>(tx), h);
    handovers_[static_cast<std::size_t>(h)]->set_active(tx);
    s.assigned = tx;
    s.admitted = true;
    s.ever_admitted = true;
    s.drift_rad = 0.0;
    s.last_slot = t;
    if (s.last_delivery < 0) s.last_delivery = t;
    s.unservable_since = -1;
    ++result_.admissions;
    metrics_.admissions->inc();
    log_event(t, ArenaEventKind::kAdmitted, h, tx);
  }

  void initial_admission() {
    const auto samples = topo_.sample_all(0);
    refresh_margins(0, samples);
    for (std::size_t h = 0; h < heads_.size(); ++h) {
      const auto margins = margins_for(h);
      const auto loads = all_loads();
      const auto d = admission_.place(margins, loads, queue_.size());
      switch (d.action) {
        case AdmissionController::Decision::kAdmit:
          admit(0, static_cast<int>(h), d.tx);
          break;
        case AdmissionController::Decision::kQueue:
          queue_.push_back(static_cast<int>(h));
          ++result_.queued;
          metrics_.queued->inc();
          log_event(0, ArenaEventKind::kQueued, static_cast<int>(h), -1);
          break;
        case AdmissionController::Decision::kReject:
          ++result_.rejections;
          metrics_.rejections->inc();
          log_event(0, ArenaEventKind::kRejected, static_cast<int>(h), -1);
          break;
      }
    }
  }

  void refresh_margins(util::SimTimeUs t,
                       const std::vector<TrackSample>& samples) {
    for (std::size_t tx = 0; tx < topo_.num_tx(); ++tx) {
      const bool failed = opt_.tx_failed && opt_.tx_failed(t, tx);
      if (failed && !tx_failed_logged_[tx]) {
        tx_failed_logged_[tx] = true;
        metrics_.tx_failures->inc();
        log_event(t, ArenaEventKind::kTxFailed, -1, static_cast<int>(tx));
      }
      for (std::size_t h = 0; h < heads_.size(); ++h) {
        const bool blocked = topo_.beam_occluded(tx, h, samples);
        occl_[tx * heads_.size() + h] = blocked ? 1 : 0;
        geo(tx, h) = failed ? kBlockedMarginDb
                            : topo_.geo_margin_db(tx, samples[h], blocked);
      }
    }
  }

  std::vector<double> margins_for(std::size_t h) const {
    std::vector<double> m(topo_.num_tx());
    for (std::size_t tx = 0; tx < topo_.num_tx(); ++tx) {
      m[tx] = geo_[tx * heads_.size() + h];
    }
    return m;
  }

  std::vector<std::size_t> all_loads() const {
    std::vector<std::size_t> loads(topo_.num_tx());
    for (std::size_t tx = 0; tx < topo_.num_tx(); ++tx) {
      loads[tx] = roster_load(tx);
    }
    return loads;
  }

  void tick(util::SimTimeUs t, std::uint64_t slot_index) {
    const auto samples = topo_.sample_all(t);
    refresh_margins(t, samples);
    const double dt_s = util::us_to_s(opt_.slot);
    const std::size_t capacity = admission_.per_tx_capacity();

    std::vector<int> evict;
    for (std::size_t h = 0; h < heads_.size(); ++h) {
      HeadsetState& s = heads_[h];
      if (!s.admitted) continue;
      ++s.active_ticks;
      link::HandoverProcess& ho = *handovers_[h];

      // Migration commits (switch-done timers fired since the last tick
      // — same-instant timers already dispatched, FIFO order).  The
      // commit force-up's fine pointing on the new TX: re-acquisition is
      // part of the switch delay already paid.
      if (ho.active() != s.assigned) {
        beam_.migrate(static_cast<int>(h),
                      static_cast<std::size_t>(s.assigned),
                      static_cast<std::size_t>(ho.active()));
        s.assigned = ho.active();
        s.drift_rad = 0.0;
        ++s.migrations;
        ++result_.migrations;
        metrics_.migrations->inc();
        log_event(t, ArenaEventKind::kMigrated, static_cast<int>(h),
                  s.assigned);
      }

      // Fine-pointing drift: the TP loop only closes while the beam is on
      // this headset, so error grows with head rotation plus translation
      // swept angle between serve slots.
      const TrackSample& smp = samples[h];
      const double range =
          std::max(0.5, topo_.range_m(static_cast<std::size_t>(s.assigned),
                                      smp));
      s.drift_rad += smp.ang_speed * dt_s + smp.lin_speed * dt_s / range;

      // Candidate margins: geometry minus a contention charge per roster
      // occupant, with non-serving TXs at admission capacity masked out
      // entirely (a migration there would break the SLA promise).
      bool any_usable = false;
      std::vector<double> cand(topo_.num_tx());
      for (std::size_t tx = 0; tx < topo_.num_tx(); ++tx) {
        const double g = geo(tx, h);
        const bool self_tx = static_cast<int>(tx) == s.assigned;
        const std::size_t load =
            roster_load(tx) - (self_tx ? 1u : 0u);
        if (g <= kBlockedMarginDb || (!self_tx && load >= capacity)) {
          cand[tx] = kBlockedMarginDb;
        } else {
          cand[tx] = g - opt_.contention_penalty_db *
                             static_cast<double>(load);
          any_usable = true;
        }
      }

      // Feed handover only while at least one TX is usable: with every
      // candidate blocked there is no beam to switch *to*, and letting
      // the drop trigger fire would churn blocked->blocked migrations.
      if (any_usable || ho.switching()) {
        (void)ho.on_powers(cand);
      }

      const bool mid_switch = ho.switching();
      const double serving_geo =
          geo(static_cast<std::size_t>(ho.active()), h);

      // Occlusion accounting against the serving TX.
      const bool serving_occluded =
          occl(static_cast<std::size_t>(ho.active()), h);
      if (serving_occluded) {
        ++s.occl_ticks;
        if (s.occl_start < 0) s.occl_start = t;
      } else if (s.occl_start >= 0) {
        record_occl_span(t - s.occl_start);
        s.occl_start = -1;
      }

      // Eviction clock: continuously unservable (no usable beam from the
      // serving TX and no switch under way) beyond the grace period sends
      // the headset back to the wait queue — logged, never silent.
      const bool unservable = !mid_switch && serving_geo < 0.0;
      if (unservable) {
        if (s.unservable_since < 0) s.unservable_since = t;
        if (util::us_to_s(t - s.unservable_since) >
            opt_.sla.eviction_grace_s) {
          evict.push_back(static_cast<int>(h));
        }
      } else {
        s.unservable_since = -1;
      }
    }

    for (const int h : evict) {
      HeadsetState& s = heads_[static_cast<std::size_t>(h)];
      assert(!handovers_[static_cast<std::size_t>(h)]->switching());
      beam_.remove(static_cast<std::size_t>(s.assigned), h);
      if (s.occl_start >= 0) {
        record_occl_span(t - s.occl_start);
        s.occl_start = -1;
      }
      s.admitted = false;
      s.assigned = -1;
      s.unservable_since = -1;
      queue_.push_back(h);
      ++result_.evictions;
      metrics_.evictions->inc();
      log_event(t, ArenaEventKind::kEvicted, h, -1);
    }

    // Wait-queue pump: strict FIFO — the head either places now or keeps
    // everyone behind it waiting (no queue jumping past a blocked head).
    while (!queue_.empty()) {
      const int h = queue_.front();
      const auto d = admission_.place(margins_for(static_cast<std::size_t>(h)),
                                      all_loads(), queue_.size() - 1);
      if (d.action != AdmissionController::Decision::kAdmit) break;
      queue_.pop_front();
      admit(t, h, d.tx);
    }

    // Galvo slot assignment + service.
    const auto urgency = [&](int h) {
      const HeadsetState& s = heads_[static_cast<std::size_t>(h)];
      const link::HandoverProcess& ho =
          *handovers_[static_cast<std::size_t>(h)];
      HeadsetUrgency u;
      u.servable = s.admitted && !ho.switching() &&
                   geo(static_cast<std::size_t>(ho.active()),
                       static_cast<std::size_t>(h)) >= 0.0;
      u.drift_rad = s.drift_rad;
      const util::SimTimeUs look = util::us_from_s(opt_.scheduler.lookahead_s);
      u.predicted_rad =
          s.drift_rad + topo_.track(static_cast<std::size_t>(h))
                                .sample(t + look)
                                .ang_speed *
                            opt_.scheduler.lookahead_s;
      u.starved_s = util::us_to_s(t - s.last_slot);
      return u;
    };
    beam_.schedule_slot(slot_index, urgency, choice_);

    for (std::size_t tx = 0; tx < topo_.num_tx(); ++tx) {
      // The budget is enforced inside schedule_slot; count (rather than
      // trust) any excess so the bench gate can assert zero.
      const int over = beam_.frame_served(tx) - beam_.budget_per_frame();
      if (over > 0) {
        result_.duty_violations += over;
        metrics_.duty_violations->inc(static_cast<std::uint64_t>(over));
      }
      const int h = choice_[tx];
      if (h < 0) continue;
      ++tx_serve_slots_[tx];
      HeadsetState& s = heads_[static_cast<std::size_t>(h)];
      ++s.sched_slots;
      s.last_slot = t;
      metrics_.slots->inc();
      // Serve: margin left after the drift penalty decides data vs a
      // re-pointing (recovery) slot; either way the TP loop re-converges.
      const double penalty =
          std::max(0.0, s.drift_rad - opt_.drift_free_rad) *
          opt_.drift_penalty_db_per_rad;
      const double eff = geo(tx, static_cast<std::size_t>(h)) - penalty;
      if (eff >= 0.0) {
        ++s.delivered_slots;
        const util::SimTimeUs gap = t - s.last_delivery;
        s.longest_gap = std::max(s.longest_gap, gap);
        s.last_delivery = t;
        metrics_.delivered->inc();
      }
      s.drift_rad = 0.0;
    }
  }

  void record_occl_span(util::SimTimeUs span) {
    metrics_.occl_outage_us->record(static_cast<double>(span));
  }

  const ArenaTopology& topo_;
  const ArenaOptions& opt_;
  event::Scheduler& sched_;
  ArenaMetrics metrics_;
  ArenaResult& result_;
  BeamScheduler beam_;
  AdmissionController admission_;
  std::vector<std::unique_ptr<link::HandoverProcess>> handovers_;
  std::vector<HeadsetState> heads_;
  std::deque<int> queue_;
  std::vector<char> tx_failed_logged_;
  std::vector<std::int64_t> tx_serve_slots_;
  std::vector<double> geo_;   // [tx * M + h]
  std::vector<char> occl_;    // [tx * M + h]
  std::vector<int> choice_;
  event::ProcessId self_ = event::kNoProcess;
  std::int64_t total_ticks_ = 0;
};

void ArenaSlotProcess::finish() {
  const util::SimTimeUs end = total_ticks_ * opt_.slot;
  result_.headsets.resize(heads_.size());
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    HeadsetState& s = heads_[h];
    HeadsetQoE& q = result_.headsets[h];
    q.admitted = s.ever_admitted;
    q.final_tx = s.assigned;
    q.migrations = s.migrations;
    if (s.occl_start >= 0) {
      record_occl_span(end - s.occl_start);
      s.occl_start = -1;
    }
    if (s.active_ticks > 0) {
      const double ticks = static_cast<double>(s.active_ticks);
      q.avg_rate_gbps = static_cast<double>(s.delivered_slots) / ticks *
                        opt_.sla.peak_rate_gbps;
      q.served_fraction = static_cast<double>(s.sched_slots) / ticks;
      q.delivered_fraction = static_cast<double>(s.delivered_slots) / ticks;
      q.occluded_fraction = static_cast<double>(s.occl_ticks) / ticks;
    }
    if (s.ever_admitted) {
      s.longest_gap = std::max(s.longest_gap, end - s.last_delivery);
      q.longest_outage_s = util::us_to_s(s.longest_gap);
      q.sla_met = q.avg_rate_gbps >= opt_.sla.min_rate_gbps;
    }
    if (s.ever_admitted) metrics_.rate_gbps->record(q.avg_rate_gbps);
  }
  result_.per_tx_duty.resize(topo_.num_tx());
  std::int64_t total_sched = 0, total_delivered = 0;
  for (std::size_t tx = 0; tx < topo_.num_tx(); ++tx) {
    result_.per_tx_duty[tx] =
        static_cast<double>(tx_serve_slots_[tx]) /
        static_cast<double>(total_ticks_);
    result_.slots += static_cast<std::uint64_t>(tx_serve_slots_[tx]);
  }
  for (const HeadsetState& s : heads_) {
    total_sched += s.sched_slots;
    total_delivered += s.delivered_slots;
  }
  result_.schedule_efficiency =
      total_sched > 0
          ? static_cast<double>(total_delivered) /
                static_cast<double>(total_sched)
          : 0.0;
  int cancelled = 0;
  for (const auto& ho : handovers_) cancelled += ho->cancelled_switches();
  result_.cancelled_migrations = cancelled;
}

}  // namespace

const char* to_string(ArenaEventKind kind) noexcept {
  switch (kind) {
    case ArenaEventKind::kAdmitted: return "admitted";
    case ArenaEventKind::kQueued: return "queued";
    case ArenaEventKind::kRejected: return "rejected";
    case ArenaEventKind::kMigrated: return "migrated";
    case ArenaEventKind::kEvicted: return "evicted";
    case ArenaEventKind::kTxFailed: return "tx_failed";
  }
  return "?";
}

int ArenaResult::sla_met_count() const {
  int n = 0;
  for (const HeadsetQoE& q : headsets) n += q.sla_met ? 1 : 0;
  return n;
}

ArenaResult run_arena_session(const ArenaTopology& topology,
                              const ArenaOptions& options,
                              const runtime::Context& ctx) {
  if (options.slot <= 0) throw std::invalid_argument("arena slot <= 0");
  ArenaResult result;
  event::Scheduler sched(session::bind_session_clock(ctx));
  ArenaSlotProcess arena(topology, options, sched, ctx, result);
  arena.start();
  sched.run();
  arena.finish();
  result.events = sched.dispatched();
  return result;
}

}  // namespace cyclops::arena

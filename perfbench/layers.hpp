// Per-layer figures the compute workloads share: scheduler counters per
// solve, the trace::session busy/scheduling/idle split, cilkview's
// prediction, and the slab allocator's traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "alloc/slab.hpp"
#include "cilkview/profile.hpp"
#include "common.hpp"
#include "runtime/scheduler.hpp"
#include "trace/session.hpp"

namespace perfbench {

/// runtime.steals / steal_attempts / steal_yield / backoff_naps per solve,
/// from the P-worker scheduler's counters over `solves` solves.
inline void add_runtime_counters(report& rep, const cilkpp::rt::worker_stats& s,
                                 double solves) {
  rep.add("runtime.steals", static_cast<double>(s.steals) / solves, "count");
  rep.add("runtime.steal_attempts",
          static_cast<double>(s.steal_attempts) / solves, "count");
  rep.add("runtime.steal_yield",
          s.steal_attempts == 0 ? 0.0
                                : static_cast<double>(s.steals) /
                                      static_cast<double>(s.steal_attempts),
          "ratio");
  rep.add("runtime.backoff_naps", static_cast<double>(s.backoff_naps) / solves,
          "count");
}

/// Slab traffic between two slab_totals() snapshots, per solve.
inline void add_alloc_traffic(report& rep, const cilkpp::alloc::slab_stats& before,
                              const cilkpp::alloc::slab_stats& after,
                              double solves) {
  rep.add("alloc.system_allocs",
          static_cast<double>(after.system_allocs - before.system_allocs) / solves,
          "count");
  rep.add("alloc.magazine_trips",
          static_cast<double>((after.magazine_refills - before.magazine_refills) +
                              (after.magazine_returns - before.magazine_returns)) /
              solves,
          "count");
}

/// Calls each of `runs` (one scheduler::run on `sched` apiece) under its
/// own trace::session — a timeline holds one run: a second would reuse the
/// root pedigree — and adds the busy / scheduling / idle time summed over
/// the workers, per solve (`solves` solves in all the runs together).
inline void add_trace_split(report& rep, cilkpp::rt::scheduler& sched,
                            double solves,
                            const std::vector<std::function<void()>>& runs) {
  double busy = 0;
  double sched_ns = 0;
  double idle = 0;
  std::uint64_t lost = 0;
  std::uint64_t wall_ns = 0;
  for (const auto& run : runs) {
    cilkpp::trace::session_options so;
    so.ring_capacity = std::size_t{1} << 20;
    cilkpp::trace::session session(sched, so);
    const std::uint64_t t0 = now_ns();
    run();
    wall_ns += now_ns() - t0;
    const cilkpp::trace::timeline tl = session.assemble();
    for (const auto& lane : tl.lanes) {
      busy += static_cast<double>(lane.busy_ns);
      sched_ns += static_cast<double>(lane.scheduling_ns);
      idle += static_cast<double>(lane.idle_ns);
    }
    lost += tl.dropped + tl.anomalies;
  }
  rep.add("runtime.busy_ms", busy / 1e6 / solves, "ms");
  rep.add("runtime.scheduling_ms", sched_ns / 1e6 / solves, "ms");
  rep.add("runtime.idle_ms", idle / 1e6 / solves, "ms");
  // Beside tp_ms, the cost of recording every scheduler event.
  rep.note("trace.session_tp_ms", static_cast<double>(wall_ns) / 1e6 / solves, "ms");
  rep.check(lost == 0, "trace session dropped events or found anomalies (" +
                           std::to_string(lost) + "): busy/idle split incomplete");
}

/// cilkview's figures for one solve's dag, with its prediction
/// T1/P + T1/parallelism set beside the measured tp.
inline void add_cilkview(report& rep, const cilkpp::cilkview::profile& prof,
                         double t1_ms, double tp_ms, unsigned p) {
  const double par = prof.parallelism();
  rep.add("cilkview.parallelism", par, "ratio");
  rep.add("cilkview.burdened_parallelism", prof.burdened_parallelism(), "ratio");
  const double predicted = t1_ms / p + (par > 0 ? t1_ms / par : 0.0);
  rep.add("cilkview.predicted_tp_ms", predicted, "ms");
  rep.note("cilkview.measured_tp_ms", tp_ms, "ms");
}

}  // namespace perfbench

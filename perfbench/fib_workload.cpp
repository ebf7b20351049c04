// fib: doubly recursive workloads::fib with a small serial cutoff, one
// scheduler::run per solve. Spawn+sync, the deque, frame allocation and
// pedigree maintenance dominate; steals are rare and wake-ups negligible.
#include <functional>
#include <string>

#include "checks.hpp"
#include "common.hpp"
#include "dag/recorder.hpp"
#include "layers.hpp"
#include "runtime/serial.hpp"
#include "workloads/fib.hpp"

namespace perfbench {

namespace {
constexpr unsigned fib_n = 34;
constexpr unsigned fib_cutoff = 10;
}  // namespace

void run_fib(const options& opt, report& rep, span_log& spans) {
  using cilkpp::rt::context;
  using cilkpp::workloads::fib;
  // The recursion has no input data: the seed only rotates the leg order.
  host_reference host = call_reference(28);
  if (opt.trace) host.time_pool_free(pool_free_calls);
  cilkpp::rt::scheduler s1(1);
  cilkpp::rt::scheduler sp(opt.p);
  auto solve_ts = [&] {
    scoped_span s(spans, "serial.fib");
    cilkpp::rt::serial_context ctx;
    return fib(ctx, fib_n, fib_cutoff);
  };
  auto solve_on = [&](cilkpp::rt::scheduler& sched, const char* name) {
    scoped_span s(spans, name);
    return sched.run([&](context& ctx) { return fib(ctx, fib_n, fib_cutoff); });
  };

  // Warm-up: a fixed number of solves per leg faults in frames, magazines
  // and deques, and gives set-up a fixed amount of work to time.
  for (int i = 0; i < 12; ++i) {
    for (const std::uint64_t got : {solve_ts(), solve_on(s1, "scheduler::run.p1"),
                                    solve_on(sp, "scheduler::run.pmax")}) {
      const std::string why = checks::fib_value(got, fib_n);
      rep.check(why.empty(), "warm-up: " + why);
    }
  }
  const double setup_s = since_start_s();

  s1.reset_stats();
  sp.reset_stats();
  const cilkpp::alloc::slab_stats slab_before = cilkpp::alloc::slab_totals();
  leg ts;
  leg t1;
  leg tp;
  std::uint64_t wrong = 0;
  auto timed = [&](leg& l, auto&& solve) {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t got = solve();
    l.add(now_ns() - t0);
    if (!checks::fib_value(got, fib_n).empty()) ++wrong;
  };
  round_robin(opt.seconds, opt.seed, host,
              {[&] { timed(ts, solve_ts); },
               [&] { timed(t1, [&] { return solve_on(s1, "scheduler::run.p1"); }); },
               [&] { timed(tp, [&] { return solve_on(sp, "scheduler::run.pmax"); }); }});
  const cilkpp::alloc::slab_stats slab_after = cilkpp::alloc::slab_totals();

  rep.attempted = ts.solves() + t1.solves() + tp.solves();
  rep.failed = wrong;
  auto check_counters = [&](const cilkpp::rt::worker_stats& st, std::size_t solves) {
    const std::string why =
        checks::fib_counters(st.spawns, st.tasks_executed, solves, fib_n, fib_cutoff);
    rep.check(why.empty(), why);
  };
  const cilkpp::rt::worker_stats stp = sp.stats();
  check_counters(s1.stats(), t1.solves());
  check_counters(stp, tp.solves());

  add_legs(rep, host, setup_s, ts, t1, tp);
  add_tp_jobs(rep, host, tp);
  if (!opt.trace) return;

  rep.add("host.reference_under_pool", host.under_pool(), "ratio");
  const double tps = static_cast<double>(tp.solves());
  add_runtime_counters(rep, stp, tps);
  add_alloc_traffic(rep, slab_before, slab_after,
                    static_cast<double>(rep.attempted));
  auto traced = [&] {
    const std::string why = checks::fib_value(
        sp.run([&](context& ctx) { return fib(ctx, fib_n, fib_cutoff); }), fib_n);
    rep.check(why.empty(), "traced solve: " + why);
  };
  add_trace_split(rep, sp, 3, {traced, traced, traced});
  const cilkpp::dag::graph dag = cilkpp::dag::record(
      [&](cilkpp::dag::recorder_context& ctx) { (void)fib(ctx, fib_n, fib_cutoff); });
  add_cilkview(rep, cilkpp::cilkview::analyze_dag(dag), t1.per_solve_ms(),
               tp.per_solve_ms(), opt.p);
}

}  // namespace perfbench

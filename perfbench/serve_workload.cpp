// serve: a serve::job_server over a one-instance runtime_set, fed a mix of
// tiny jobs (serial-leaf fib, a 192-double sort, a 256-row spmv with an
// internal parallel_for) by one generating thread. Each round runs
//   * a closed loop: a fixed window of outstanding jobs (throughput);
//   * an open loop: a fixed absolute rate, each job timed from its due time
//     to the moment its body finishes (the body records it);
//   * the batch legs: one batch of the mix as serial elision, on a
//     1-worker scheduler, and on the serving instance itself while the
//     server is drained (ts/t1/tp per batch).
// Admission, dispatch and per-batch run() wake-ups show here; fib and
// graph bypass all of it.
#include <algorithm>
#include <deque>
#include <functional>
#include <future>

#include "checks.hpp"
#include "common.hpp"
#include "dag/recorder.hpp"
#include "layers.hpp"
#include "runtime/serial.hpp"
#include "serve/job_server.hpp"
#include "support/rng.hpp"
#include "workloads/fib.hpp"
#include "workloads/qsort.hpp"
#include "workloads/spmv.hpp"

namespace perfbench {
namespace {

using cilkpp::rt::context;

constexpr std::size_t sort_n = 192;
constexpr std::uint32_t spmv_rows = 256;
constexpr std::uint32_t spmv_nnz = 8;
constexpr std::uint64_t spmv_grain = 16;
constexpr std::size_t variants = 16;     // distinct sort inputs / spmv vectors
constexpr std::size_t mix_len = 4096;    // the job sequence cycles through this
constexpr std::size_t window = 64;       // closed loop: outstanding jobs
constexpr double open_rate = 20'000.0;   // open loop: jobs per second
constexpr std::size_t open_jobs = 8'000; // open loop: jobs per round (0.4 s)
constexpr double closed_s = 0.4;         // closed loop: seconds per round
constexpr std::size_t batch_jobs = 96;   // one ts/t1/tp solve
constexpr int batches_per_leg = 64;      // solves per leg per round
constexpr std::uint64_t span_every = 16; // try_submit spans kept: 1 in 16

enum class kind : std::uint8_t { fib, sort, spmv };

struct job_spec {
  kind k = kind::fib;
  std::uint8_t fib_n = 0;
  std::uint16_t variant = 0;
};

struct job_out {
  std::uint64_t fib = 0;
  std::vector<double> v;
  std::uint64_t finish_ns = 0;
};

struct inputs {
  std::vector<std::vector<double>> sort_in;
  std::vector<std::uint64_t> sort_hash;
  cilkpp::workloads::csr a;
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> y_ref;
  std::vector<job_spec> mix;
};

inputs make_inputs(std::uint64_t seed) {
  inputs in;
  for (std::size_t v = 0; v < variants; ++v) {
    in.sort_in.push_back(cilkpp::workloads::random_doubles(sort_n, seed * 131 + v));
    in.sort_hash.push_back(checks::multiset_hash(in.sort_in.back()));
  }
  in.a = cilkpp::workloads::random_sparse_matrix(spmv_rows, spmv_nnz, seed);
  for (std::size_t v = 0; v < variants; ++v) {
    in.x.push_back(cilkpp::workloads::random_doubles(spmv_rows, seed * 977 + v));
    in.y_ref.push_back(checks::spmv_plain(in.a, in.x.back()));
  }
  cilkpp::xoshiro256 rng(seed);
  for (std::size_t i = 0; i < mix_len; ++i) {
    job_spec j;
    j.k = static_cast<kind>(rng.below(3));
    j.fib_n = static_cast<std::uint8_t>(15 + rng.below(3));
    j.variant = static_cast<std::uint16_t>(rng.below(variants));
    in.mix.push_back(j);
  }
  return in;
}

/// The job body: engine-generic, so the batch legs can run it under the
/// serial elision and the dag recorder too.
template <typename Ctx>
job_out run_job(Ctx& ctx, const job_spec& j, const inputs& in) {
  job_out out;
  switch (j.k) {
    case kind::fib:
      out.fib = cilkpp::workloads::fib(ctx, j.fib_n, j.fib_n);  // serial leaf
      break;
    case kind::sort:
      out.v = in.sort_in[j.variant];
      cilkpp::workloads::qsort(ctx, out.v.begin(), out.v.end());
      break;
    case kind::spmv:
      out.v = cilkpp::workloads::spmv(ctx, in.a, in.x[j.variant], spmv_grain);
      break;
  }
  out.finish_ns = now_ns();
  return out;
}

std::string check_job(const job_spec& j, const job_out& out, const inputs& in) {
  switch (j.k) {
    case kind::fib:
      return checks::job_fib(out.fib, j.fib_n);
    case kind::sort:
      return checks::job_sort(out.v, sort_n, in.sort_hash[j.variant]);
    case kind::spmv:
      return checks::job_spmv(out.v, in.y_ref[j.variant]);
  }
  return "unknown job kind";
}

/// One batch of the mix as one Cilk function: every job spawned, then the
/// implicit sync — what a job_server dispatch does, without admission.
template <typename Ctx>
void run_batch(Ctx& ctx, const inputs& in, std::size_t first,
               std::vector<job_out>& outs) {
  for (std::size_t i = 0; i < batch_jobs; ++i) {
    const job_spec& j = in.mix[(first + i) % mix_len];
    job_out* slot = &outs[i];
    ctx.spawn([&in, &j, slot](Ctx& child) { *slot = run_job(child, j, in); });
  }
  ctx.sync();
}

}  // namespace

void run_serve(const options& opt, report& rep, span_log& spans) {
  namespace sv = cilkpp::serve;
  const inputs in = make_inputs(opt.seed);
  host_reference host = call_reference(28);
  if (opt.trace) host.time_pool_free(pool_free_calls);
  // Thread budget: the serving instance runs P-1 workers (its dispatcher is
  // worker 0) and the generator is the P-th thread. The tp leg runs on the
  // same instance (the generator becomes its worker 0 while the server is
  // drained), so no second pool ever competes for the cores.
  const unsigned serve_workers = std::max(1u, opt.p - 1);
  sv::runtime_set runtimes({cilkpp::rt::scheduler_options{serve_workers, {}, "serve"}});
  sv::tenant_options tenant;
  tenant.name = "mix";
  tenant.queue_capacity = 4096;
  tenant.policy = sv::admission::block;
  tenant.batch_max = 32;
  sv::job_server server(runtimes, {tenant});
  cilkpp::rt::scheduler s1(1);
  cilkpp::rt::scheduler& sp = runtimes.at(0);

  std::uint64_t attempted = 0;   // jobs the generator offered the server
  std::uint64_t wrong = 0;
  std::uint64_t submitted = 0;   // admission ledger, summed over phases
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t next_job = 0;
  auto settle_ledger = [&] {
    const sv::tenant_stats st = server.tenant_snapshot(0);
    submitted += st.submitted;
    rejected += st.rejected;
    completed += st.completed;
    return st;
  };
  // A job whose value fails its check counts as failed; `correct` speaks
  // of the jobs that did not fail.
  auto check = [&](const job_spec& j, const job_out& out) {
    const std::string why = check_job(j, out, in);
    if (!why.empty() && wrong++ == 0) {
      std::fprintf(stderr, "perfbench: first failed job: %s\n", why.c_str());
    }
  };
  auto submit = [&](std::uint64_t id, std::uint64_t* submit_ns) {
    const job_spec& j = in.mix[id % mix_len];
    const std::uint64_t t0 = now_ns();
    auto fut = server.try_submit(0, [&in, &j](context& ctx) { return run_job(ctx, j, in); });
    const std::uint64_t t1 = now_ns();
    if (submit_ns != nullptr) *submit_ns += t1 - t0;
    if (id % span_every == 0) spans.add("serve::try_submit", t0, t1, id);
    ++attempted;
    return fut;
  };

  // --- closed loop: keep `window` jobs outstanding --------------------------
  std::uint64_t closed_jobs = 0;
  std::uint64_t closed_ns = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t submits = 0;
  auto closed_round = [&](double seconds) {
    scoped_span s(spans, "serve.closed_loop");
    server.reset_stats();
    std::deque<std::pair<std::future<job_out>, std::uint64_t>> live;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t done = 0;
    auto retire = [&] {
      auto [fut, id] = std::move(live.front());
      live.pop_front();
      check(in.mix[id % mix_len], fut.get());
      ++done;
    };
    while (now_ns() < end) {
      while (live.size() < window) {
        const std::uint64_t id = next_job++;
        auto fut = submit(id, &submit_ns);
        ++submits;
        if (fut) live.emplace_back(std::move(*fut), id);
      }
      retire();
    }
    while (!live.empty()) retire();
    closed_ns += now_ns() - t0;
    closed_jobs += done;
    server.drain();  // every dispatch has returned: the instance is idle
    settle_ledger();
  };

  // --- open loop: jobs due at a fixed absolute rate --------------------------
  std::vector<double> open_latency_us;
  std::vector<double> lag_us;
  sv::latency_recorder open_server_side;
  auto open_round = [&](std::size_t jobs) {
    scoped_span s(spans, "serve.open_loop");
    server.reset_stats();
    struct pending {
      std::future<job_out> fut;
      std::uint64_t id;
      std::uint64_t due;
    };
    std::vector<pending> live;
    live.reserve(jobs);
    const double interval_ns = 1e9 / open_rate;
    const std::uint64_t t0 = now_ns() + 100'000;
    for (std::size_t k = 0; k < jobs; ++k) {
      const std::uint64_t due = t0 + static_cast<std::uint64_t>(k * interval_ns);
      std::uint64_t now = now_ns();
      while (now < due) now = now_ns();
      const std::uint64_t id = next_job++;
      auto fut = submit(id, nullptr);
      lag_us.push_back(static_cast<double>(now - due) / 1e3);
      if (fut) live.push_back({std::move(*fut), id, due});
    }
    for (pending& p : live) {
      const job_out out = p.fut.get();
      open_latency_us.push_back(static_cast<double>(out.finish_ns - p.due) / 1e3);
      check(in.mix[p.id % mix_len], out);
    }
    server.drain();
    open_server_side.merge(settle_ledger().latency);
  };

  // --- batch legs: ts / t1 / tp per batch of the mix -------------------------
  leg ts;
  leg t1;
  leg tp;
  std::vector<job_out> outs(batch_jobs);
  std::size_t batch_first = 0;
  auto check_batch = [&](std::size_t first) {
    for (std::size_t i = 0; i < batch_jobs; ++i) {
      check(in.mix[(first + i) % mix_len], outs[i]);
    }
    attempted += batch_jobs;
  };
  auto batch_leg = [&](leg& l, auto&& solve) {
    for (int b = 0; b < batches_per_leg; ++b) {
      const std::size_t first = (batch_first++ * batch_jobs) % mix_len;
      const std::uint64_t t0 = now_ns();
      solve(first);
      l.add(now_ns() - t0);
      check_batch(first);
    }
  };
  auto solve_ts = [&](std::size_t first) {
    cilkpp::rt::serial_context ctx;
    run_batch(ctx, in, first, outs);
  };
  auto solve_on = [&](cilkpp::rt::scheduler& sched, const char* name) {
    return [&sched, name, &spans, &in, &outs](std::size_t first) {
      scoped_span s(spans, name);
      sched.run([&](context& ctx) { run_batch(ctx, in, first, outs); });
    };
  };
  auto solve_1 = solve_on(s1, "scheduler::run.p1");
  auto solve_p = solve_on(sp, "scheduler::run.pmax");

  // Warm-up: every path once, then clear the tallies. The loops are timed
  // by the clock, not by their work, so they are kept short here.
  closed_round(0.05);
  open_round(open_jobs / 8);
  batch_leg(ts, solve_ts);
  batch_leg(t1, solve_1);
  batch_leg(tp, solve_p);
  const double setup_s = since_start_s();
  rep.check(wrong == 0 && rejected == 0, "a warm-up job failed its check");
  attempted = wrong = submitted = rejected = completed = 0;
  closed_jobs = closed_ns = submit_ns = submits = 0;
  open_latency_us.clear();
  lag_us.clear();
  open_server_side = sv::latency_recorder();
  ts = t1 = tp = leg{};

  sp.reset_stats();
  const cilkpp::alloc::slab_stats slab_before = cilkpp::alloc::slab_totals();
  round_robin(opt.seconds, opt.seed, host,
              {[&] { closed_round(closed_s); }, [&] { open_round(open_jobs); },
               [&] { batch_leg(ts, solve_ts); }, [&] { batch_leg(t1, solve_1); },
               [&] { batch_leg(tp, solve_p); }});
  const cilkpp::alloc::slab_stats slab_after = cilkpp::alloc::slab_totals();

  const std::uint64_t batch_solved = batch_jobs * (ts.solves() + t1.solves() + tp.solves());
  const std::string ledger =
      checks::job_accounting(attempted - batch_solved, submitted, completed, rejected);
  rep.check(ledger.empty(), ledger);
  rep.attempted = attempted;
  rep.failed = wrong + rejected;

  add_legs(rep, host, setup_s, ts, t1, tp);
  const double k = host.scale();
  rep.add_scaled("jobs_per_s",
                 static_cast<double>(closed_jobs) / (static_cast<double>(closed_ns) / 1e9),
                 "1/s", 1.0 / k);
  rep.add_scaled("job_p50_us", quantile(open_latency_us, 0.50), "us", k);
  rep.add_scaled("job_p90_us", quantile(open_latency_us, 0.90), "us", k);
  rep.note("open_jobs", static_cast<double>(open_latency_us.size()), "count");
  rep.note("closed_jobs", static_cast<double>(closed_jobs), "count");
  double latency_sum = 0;
  for (const double v : open_latency_us) latency_sum += v;
  rep.note("wall.job_mean_us",
           latency_sum / static_cast<double>(std::max<std::size_t>(1, open_latency_us.size())),
           "us");
  rep.note("wall.job_p99_us", quantile(open_latency_us, 0.99), "us");
  rep.note("wall.job_p999_us", quantile(open_latency_us, 0.999), "us");
  rep.note("generator_lag_p99_us", quantile(lag_us, 0.99), "us");
  if (!opt.trace) return;

  rep.add("host.reference_under_pool", host.under_pool(), "ratio");
  rep.add("serve.submit_ns", submits == 0 ? 0.0 : static_cast<double>(submit_ns) / submits, "ns");
  rep.add("serve.queue_us.p50", static_cast<double>(open_server_side.queue_ns().p50()) / 1e3, "us");
  rep.add("serve.queue_us.p99", static_cast<double>(open_server_side.queue_ns().p99()) / 1e3, "us");
  rep.add("serve.exec_us.p50", static_cast<double>(open_server_side.exec_ns().p50()) / 1e3, "us");
  double lag_sum = 0;
  for (const double v : lag_us) lag_sum += v;
  rep.add("serve.generator_lag_us", lag_us.empty() ? 0.0 : lag_sum / static_cast<double>(lag_us.size()), "us");

  // The serving instance's counters cover every job it ran (both loops and
  // the tp leg); a "solve" is one batch's worth of jobs.
  const double instance_jobs =
      static_cast<double>(completed + batch_jobs * tp.solves());
  add_runtime_counters(rep, sp.stats(), instance_jobs / batch_jobs);
  add_alloc_traffic(rep, slab_before, slab_after, static_cast<double>(attempted));
  const std::function<void()> traced = [&] { solve_p(0); };
  add_trace_split(rep, sp, 4, {traced, traced, traced, traced});
  const cilkpp::dag::graph dag = cilkpp::dag::record([&](cilkpp::dag::recorder_context& ctx) {
    run_batch(ctx, in, 0, outs);
  });
  add_cilkview(rep, cilkpp::cilkview::analyze_dag(dag), t1.per_solve_ms(),
               tp.per_solve_ms(), opt.p);
}

}  // namespace perfbench

// Shared plumbing of the benchmark program: options, the metric report, the
// span log of the traced run, and the round-robin leg timer.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "support/timing.hpp"

namespace perfbench {

using cilkpp::now_ns;

/// Command-line options of one run (see main.cpp for the flags).
struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  unsigned p = 1;             ///< worker budget: the CPUs nproc counts
  std::string out_dir = ".bench_out";
};

/// Wall-clock instant main() was entered: set-up is timed from here.
extern std::uint64_t process_start_ns;

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: correctness, operation counts, metrics, and
/// reference figures that go only to the result file (for the README).
struct report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
  std::vector<metric> reference;
  std::vector<std::string> problems;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    reference.push_back({name, value, unit});
  }
  /// Adds an end-to-end figure scaled to the reference host (a wall time
  /// times host_reference::scale(), a rate divided by it) and notes the
  /// wall-clock figure as "wall.<name>".
  void add_scaled(const std::string& name, double wall, const std::string& unit,
                  double factor) {
    add(name, wall * factor, unit);
    note("wall." + name, wall, unit);
  }
  /// Records a failed output check: the run is no longer correct.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    problems.push_back(what);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
};

/// One span of the traced run: a call into a layer, timed from the
/// benchmark's side. Spans of one request share `request`.
struct span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< index + 1 of the enclosing span; 0 = none
  std::uint64_t request = 0;
};

/// In-memory span log, written out once when the run ends. Disabled in the
/// untimed (end-to-end) runs: every call then costs one branch.
class span_log {
 public:
  void enable(bool on) { on_ = on; }

  /// Opens a span as a child of the innermost open one; returns its handle.
  std::uint32_t open(const char* name, std::uint64_t request = 0) {
    if (!on_) return 0;
    span s;
    s.name = name;
    s.start_ns = now_ns();
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.request = request;
    spans_.push_back(s);
    const auto id = static_cast<std::uint32_t>(spans_.size());
    stack_.push_back(id);
    return id;
  }
  void close(std::uint32_t id) {
    if (!on_ || id == 0) return;
    spans_[id - 1].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  /// Records an already-timed span (for calls timed anyway).
  void add(const char* name, std::uint64_t start, std::uint64_t end,
           std::uint64_t request = 0) {
    if (!on_) return;
    spans_.push_back({name, start, end,
                      stack_.empty() ? 0u : stack_.back(), request});
  }

  /// Writes every span as one JSON array row [id, parent, name, start,
  /// end, request] (times in ns since the first span).
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span.
class scoped_span {
 public:
  scoped_span(span_log& log, const char* name, std::uint64_t request = 0)
      : log_(log), id_(log.open(name, request)) {}
  ~scoped_span() { log_.close(id_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  span_log& log_;
  std::uint32_t id_;
};

/// Accumulated wall time of one timed leg plus each solve's own time.
struct leg {
  std::uint64_t total_ns = 0;
  std::vector<double> solve_us;

  std::size_t solves() const { return solve_us.size(); }
  void add(std::uint64_t ns) {
    total_ns += ns;
    solve_us.push_back(static_cast<double>(ns) / 1e3);
  }
  /// Total timed wall time divided by solves — the leg's reported figure.
  double per_solve_ms() const {
    return solves() == 0 ? 0.0
                         : static_cast<double>(total_ns) / 1e6 /
                               static_cast<double>(solves());
  }
};

/// The host reference: a kernel of the benchmark's own that calls no
/// program code and reads no program data, doing the kind of work the
/// workload's solves do. Timed before every leg of every round, it sees the
/// same host phases as the legs, and the end-to-end times are scaled by its
/// speed: this host's co-tenants slow call/return-heavy and branchy code for
/// minutes at a time, so unscaled times of one commit differ between two
/// sets of runs by more than any bound a regression check could use (the
/// figures are in README.md).
///
/// The in-run timing shares the host with the program's idle worker pools,
/// so whatever those pools cost the main thread between runs moves the
/// reference and the legs alike and cancels out of the scaled figures. The
/// traced run therefore also times the kernel before any scheduler exists
/// (time_pool_free) and reports the ratio of the two (under_pool).
struct host_reference {
  /// Where a kernel stores its result, so that its work is kept.
  static inline volatile double sink = 0;

  std::function<void()> kernel;
  double nominal_ms;  ///< the kernel's time at the reference host speed
  leg timing{};
  leg pool_free{};

  void operator()() {
    const std::uint64_t t0 = now_ns();
    kernel();
    timing.add(now_ns() - t0);
  }
  /// Times `calls` calls of the kernel into `pool_free`; call it before the
  /// workload builds its first scheduler.
  void time_pool_free(int calls) {
    for (int i = 0; i < calls; ++i) {
      const std::uint64_t t0 = now_ns();
      kernel();
      pool_free.add(now_ns() - t0);
    }
  }
  /// The factor that scales a wall time of this run to the reference host.
  double scale() const { return nominal_ms / timing.per_solve_ms(); }
  /// In-run reference time over the pool-free one: above 1 when the
  /// program's pools slow the benchmark's main thread between runs.
  double under_pool() const {
    return timing.per_solve_ms() / pool_free.per_solve_ms();
  }
};

/// Calls of the host reference timed before any scheduler exists, in the
/// traced run.
constexpr int pool_free_calls = 200;

/// Runs the naive doubly recursive function fib-style: the call-bound host
/// reference (`calls` = C(n) = 1 + C(n-1) + C(n-2) calls; at the reference
/// host speed one call takes 1 ns).
std::uint64_t reference_recursion(unsigned n);
host_reference call_reference(unsigned n);

/// Runs whole rounds until `seconds` have passed: each round calls every
/// leg once, in an order rotated by `seed`, with the host reference timed
/// before each, so every leg sees the same mix of fast and slow host phases.
/// Returns the number of rounds.
inline std::uint64_t round_robin(double seconds, std::uint64_t seed,
                                 host_reference& host,
                                 const std::vector<std::function<void()>>& legs) {
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t rounds = 0;
  do {
    for (std::size_t k = 0; k < legs.size(); ++k) {
      host();
      legs[(k + seed) % legs.size()]();
    }
    ++rounds;
  } while (now_ns() < end);
  return rounds;
}

/// Value at quantile q in [0,1] of `v` (linear between closest ranks).
double quantile(std::vector<double> v, double q);

/// The end-to-end metrics every workload reports the same way: set-up and
/// the ts / t1 / tp legs per solve, scaled to the reference host, with the
/// host figure and the leg ratios (each with its base) as reference figures.
inline void add_legs(report& rep, const host_reference& host, double setup_wall_s,
                     const leg& ts, const leg& t1, const leg& tp) {
  const double k = host.scale();
  rep.add_scaled("setup_s", setup_wall_s, "s", k);
  rep.add_scaled("ts_ms", ts.per_solve_ms(), "ms", k);
  rep.add_scaled("t1_ms", t1.per_solve_ms(), "ms", k);
  rep.add_scaled("tp_ms", tp.per_solve_ms(), "ms", k);
  rep.note("host.reference_ms", host.timing.per_solve_ms(), "ms");
  rep.note("t1_over_ts", t1.per_solve_ms() / ts.per_solve_ms(), "ratio");
  rep.note("t1_over_tp", t1.per_solve_ms() / tp.per_solve_ms(), "ratio");
  rep.note("solves_per_leg", static_cast<double>(tp.solves()), "count");
}

/// Every run reports every end-to-end metric, so fib and graph report the
/// serving metrics too, for the job a user of these workloads waits for: a
/// solve on the P-worker scheduler. Their jobs_per_s is 1000 / tp_ms, and
/// their p50 and p90 follow tp_ms closely; they add little beside it.
inline void add_tp_jobs(report& rep, const host_reference& host, const leg& tp) {
  const double k = host.scale();
  rep.add_scaled("jobs_per_s", 1e3 / tp.per_solve_ms(), "1/s", 1.0 / k);
  rep.add_scaled("job_p50_us", quantile(tp.solve_us, 0.50), "us", k);
  rep.add_scaled("job_p90_us", quantile(tp.solve_us, 0.90), "us", k);
  rep.note("wall.job_p99_us", quantile(tp.solve_us, 0.99), "us");
}

/// How many CPUs this process may run on (what nproc counts).
unsigned allowed_cpus();

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

/// Seconds since main() was entered.
double since_start_s();

/// Workload entry points (one per workload file).
void run_fib(const options& opt, report& rep, span_log& spans);
void run_graph(const options& opt, report& rep, span_log& spans);
void run_serve(const options& opt, report& rep, span_log& spans);

/// Layer probes run after every traced workload (probes.cpp).
void run_layer_probes(const options& opt, report& rep, span_log& spans);

/// Self-check: every output check must reject a planted wrong output.
/// Returns the number of checks that failed to reject.
int run_selfcheck();

}  // namespace perfbench

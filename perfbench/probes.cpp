// Layer probes of the traced run: each times calls into one layer's public
// functions from outside, with the layer's own inputs kept tiny so that the
// figure isolates that layer. They run after the workload's legs, on the
// same worker budget (at most P threads).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "alloc/slab.hpp"
#include "common.hpp"
#include "deque/chase_lev.hpp"
#include "hyper/monoid.hpp"
#include "hyper/reducer.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"

namespace perfbench {
namespace {

using cilkpp::rt::context;
using cilkpp::rt::scheduler;

/// ns per empty spawn+sync on worker 0 of `sched` (all pairs in one run).
double pair_ns(scheduler& sched) {
  constexpr std::size_t warm = 20'000;
  constexpr std::size_t pairs = 1'000'000;
  std::uint64_t ns = 0;
  sched.run([&](context& ctx) {
    for (std::size_t i = 0; i < warm; ++i) {
      ctx.spawn([](context&) {});
      ctx.sync();
    }
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < pairs; ++i) {
      ctx.spawn([](context&) {});
      ctx.sync();
    }
    ns = now_ns() - t0;
  });
  return static_cast<double>(ns) / static_cast<double>(pairs);
}

/// Median µs from run() entry until every one of P workers has started a
/// task, measured from an idle pool (the workers have had time to park).
double wake_us(scheduler& sched) {
  const unsigned p = sched.num_workers();
  constexpr int reps = 150;
  std::vector<double> samples;
  samples.reserve(reps);
  std::vector<std::atomic<std::uint64_t>> first(p);
  for (int r = 0; r < reps; ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (auto& f : first) f.store(0, std::memory_order_relaxed);
    std::atomic<unsigned> seen{0};
    const std::uint64_t t0 = now_ns();
    sched.run([&](context& ctx) {
      for (unsigned k = 0; k < 4 * p; ++k) {
        ctx.spawn([&](context& c) {
          std::uint64_t expected = 0;
          if (first[c.worker_id()].compare_exchange_strong(
                  expected, now_ns(), std::memory_order_relaxed)) {
            seen.fetch_add(1, std::memory_order_relaxed);
          }
          // Hold this worker until every worker has a task (or 5 ms), so
          // the remaining tasks are left for the others to steal.
          const std::uint64_t give_up = now_ns() + 5'000'000;
          while (seen.load(std::memory_order_relaxed) < p &&
                 now_ns() < give_up) {
          }
        });
      }
    });
    std::uint64_t last = t0;
    bool all = true;
    for (auto& f : first) {
      const std::uint64_t v = f.load(std::memory_order_relaxed);
      if (v == 0) all = false;
      last = std::max(last, v);
    }
    if (all) samples.push_back(static_cast<double>(last - t0) / 1e3);
  }
  return quantile(samples, 0.5);
}

/// µs per empty-body parallel_for over n iterations (workers awake).
double pfor_empty_us(scheduler& sched, std::uint32_t n, std::uint64_t grain) {
  constexpr int reps = 400;
  std::uint64_t ns = 0;
  sched.run([&](context& ctx) {
    for (int r = 0; r < 20; ++r) {
      cilk::parallel_for(ctx, std::uint32_t{0}, n, [](std::uint32_t) {}, grain);
    }
    const std::uint64_t t0 = now_ns();
    for (int r = 0; r < reps; ++r) {
      cilk::parallel_for(ctx, std::uint32_t{0}, n, [](std::uint32_t) {}, grain);
    }
    ns = now_ns() - t0;
  });
  return static_cast<double>(ns) / 1e3 / reps;
}

/// ns per iteration of a P-worker parallel_for adding into an opadd reducer.
double opadd_pfor_ns(scheduler& sched, report& rep) {
  constexpr std::uint32_t n = 1u << 20;
  constexpr int reps = 20;
  cilkpp::hyper::reducer<cilkpp::hyper::opadd<std::uint64_t>> sum;
  std::uint64_t ns = 0;
  bool exact = true;
  sched.run([&](context& ctx) {
    for (int r = 0; r <= reps; ++r) {
      const std::uint64_t t0 = now_ns();
      cilk::parallel_for(ctx, std::uint32_t{0}, n,
                         [&](context& leaf, std::uint32_t i) {
                           sum.view(leaf) += i;
                         });
      const std::uint64_t got = sum.collect(ctx);
      if (r > 0) ns += now_ns() - t0;  // r == 0 warms the views
      exact = exact && got == std::uint64_t{n} * (n - 1) / 2;
    }
  });
  rep.check(exact, "hyper probe: opadd reducer sum differs from n(n-1)/2");
  return static_cast<double>(ns) / (static_cast<double>(n) * reps);
}

/// Owner push_bottom + pop_bottom pair on an uncontended Chase-Lev deque.
double deque_push_pop_ns() {
  cilkpp::chase_lev_deque<int*> dq;
  constexpr std::size_t pairs = 10'000'000;
  int slot = 0;
  std::size_t popped = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < pairs; ++i) {
    dq.push_bottom(&slot);
    popped += dq.pop_bottom().has_value() ? 1 : 0;
  }
  const std::uint64_t ns = now_ns() - t0;
  return popped == pairs ? static_cast<double>(ns) / pairs : -1.0;
}

/// One successful steal (fence + CAS on top) from an uncontended deque.
double deque_steal_ns() {
  cilkpp::chase_lev_deque<int*> dq(1u << 20);
  constexpr std::size_t batch = 1u << 18;
  constexpr int reps = 16;
  int slot = 0;
  std::uint64_t ns = 0;
  std::size_t stolen = 0;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < batch; ++i) dq.push_bottom(&slot);
    const std::uint64_t t0 = now_ns();
    int* out = nullptr;
    for (std::size_t i = 0; i < batch; ++i) {
      stolen += dq.steal(out) == cilkpp::steal_result::success ? 1 : 0;
    }
    ns += now_ns() - t0;
  }
  return stolen == batch * reps ? static_cast<double>(ns) / (batch * reps)
                                : -1.0;
}

/// slab_allocate + slab_deallocate of one spawn-task-sized block (a task
/// header plus fib's 16-byte capture).
double alloc_free_ns() {
  constexpr std::size_t size = sizeof(cilkpp::rt::task) + 16;
  constexpr std::size_t pairs = 10'000'000;
  void* keep[8] = {};
  for (auto& k : keep) k = cilkpp::alloc::slab_allocate(size);  // warm the class
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < pairs; ++i) {
    void* p = cilkpp::alloc::slab_allocate(size);
    *static_cast<volatile char*>(p) = 1;
    cilkpp::alloc::slab_deallocate(p, size);
  }
  const std::uint64_t ns = now_ns() - t0;
  for (void* k : keep) cilkpp::alloc::slab_deallocate(k, size);
  return static_cast<double>(ns) / pairs;
}

}  // namespace

void run_layer_probes(const options& opt, report& rep, span_log& spans) {
  // The empty parallel_for spans the graph workload's vertex count.
  constexpr std::uint32_t pfor_n = 1u << 14;
  {
    scheduler s1(1);
    scoped_span sp(spans, "probe.pair.p1");
    rep.add("runtime.pair_ns.p1", pair_ns(s1), "ns");
  }
  scheduler sp_sched(opt.p);
  {
    scoped_span sp(spans, "probe.pair.pmax");
    rep.add("runtime.pair_ns.pmax", pair_ns(sp_sched), "ns");
  }
  {
    scoped_span sp(spans, "probe.wake");
    rep.add("runtime.wake_us", wake_us(sp_sched), "us");
  }
  {
    scoped_span sp(spans, "probe.pfor_empty");
    rep.add("runtime.pfor_empty_us", pfor_empty_us(sp_sched, pfor_n, 256), "us");
  }
  {
    scoped_span sp(spans, "probe.opadd_pfor");
    rep.add("hyper.opadd_pfor_ns", opadd_pfor_ns(sp_sched, rep), "ns");
  }
  {
    scoped_span sp(spans, "probe.deque.push_pop");
    const double v = deque_push_pop_ns();
    rep.check(v > 0, "deque probe: a pop missed its own push");
    rep.add("deque.push_pop_ns", v, "ns");
  }
  {
    scoped_span sp(spans, "probe.deque.steal");
    const double v = deque_steal_ns();
    rep.check(v > 0, "deque probe: an uncontended steal failed");
    rep.add("deque.steal_ns", v, "ns");
  }
  {
    scoped_span sp(spans, "probe.alloc");
    rep.add("alloc.alloc_free_ns", alloc_free_ns(), "ns");
  }
}

}  // namespace perfbench

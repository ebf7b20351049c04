#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "common.hpp"
#include "graph/bc.hpp"
#include "graph/generate.hpp"
#include "graph/pagerank.hpp"
#include "runtime/serial.hpp"
#include "workloads/qsort.hpp"

namespace perfbench::checks {
namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t fib_iterative(unsigned n) {
  std::uint64_t a = 0;
  std::uint64_t b = 1;
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t c = a + b;
    a = b;
    b = c;
  }
  return a;
}

std::uint64_t fib_spawns(unsigned n, unsigned cutoff) {
  std::vector<std::uint64_t> s(n + 1, 0);
  for (unsigned k = 2; k <= n; ++k) {
    s[k] = k <= cutoff ? 0 : 1 + s[k - 1] + s[k - 2];
  }
  return s[n];
}

std::string fib_value(std::uint64_t got, unsigned n) {
  const std::uint64_t want = fib_iterative(n);
  return got == want ? "" : fmt("fib result %.0f != iterative %.0f",
                                static_cast<double>(got),
                                static_cast<double>(want));
}

std::string fib_counters(std::uint64_t spawns, std::uint64_t executed,
                         std::uint64_t solves, unsigned n, unsigned cutoff) {
  const std::uint64_t want = fib_spawns(n, cutoff) * solves;
  if (spawns != want) {
    return fmt("scheduler spawns %.0f != recurrence %.0f",
               static_cast<double>(spawns), static_cast<double>(want));
  }
  if (executed != spawns) {
    return fmt("tasks_executed %.0f != spawns %.0f",
               static_cast<double>(executed), static_cast<double>(spawns));
  }
  return "";
}

double bc_path_interior_sum(const std::vector<std::uint64_t>& offsets,
                            const std::vector<std::uint32_t>& targets,
                            const std::vector<std::uint32_t>& pivots) {
  const auto n = static_cast<std::uint32_t>(offsets.size() - 1);
  std::vector<std::uint32_t> dist(n);
  std::vector<std::uint32_t> queue(n);
  double total = 0.0;
  for (const std::uint32_t s : pivots) {
    std::fill(dist.begin(), dist.end(), ~std::uint32_t{0});
    dist[s] = 0;
    std::size_t head = 0;
    std::size_t tail = 0;
    queue[tail++] = s;
    while (head < tail) {
      const std::uint32_t u = queue[head++];
      for (std::uint64_t k = offsets[u]; k < offsets[u + 1]; ++k) {
        const std::uint32_t v = targets[k];
        if (dist[v] == ~std::uint32_t{0}) {
          dist[v] = dist[u] + 1;
          queue[tail++] = v;
          total += dist[v] - 1.0;
        }
      }
    }
  }
  return total;
}

std::vector<double> pagerank_power(const cilkpp::graph::csr& g, double damping,
                                   std::uint32_t sweeps) {
  const std::uint32_t n = g.vertices();
  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> next(n);
  for (std::uint32_t it = 0; it < sweeps; ++it) {
    double dangling = 0.0;
    for (std::uint32_t u = 0; u < n; ++u) {
      if (g.offsets[u + 1] == g.offsets[u]) dangling += rank[u];
    }
    std::fill(next.begin(), next.end(),
              (1.0 - damping) / n + damping * dangling / n);
    for (std::uint32_t u = 0; u < n; ++u) {
      const std::uint64_t deg = g.offsets[u + 1] - g.offsets[u];
      if (deg == 0) continue;
      const double share = damping * rank[u] / static_cast<double>(deg);
      for (std::uint64_t k = g.offsets[u]; k < g.offsets[u + 1]; ++k) {
        next[g.targets[k]] += share;
      }
    }
    rank.swap(next);
  }
  return rank;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string bc_identical(const std::vector<double>& a,
                         const std::vector<double>& b) {
  return bitwise_equal(a, b) ? "" : "BC at P=1 and at P differ bitwise";
}

std::string bc_sum(const std::vector<double>& bc, double expected) {
  const double got = std::accumulate(bc.begin(), bc.end(), 0.0);
  const double tol = 1e-9 * std::max(1.0, std::abs(expected));
  return std::abs(got - expected) <= tol
             ? ""
             : fmt("sum of BC %.17g != BFS path-interior sum %.17g", got, expected);
}

std::string pagerank_mass(const std::vector<double>& rank, double damping) {
  if (rank.empty()) return "PageRank returned no ranks";
  const double sum = std::accumulate(rank.begin(), rank.end(), 0.0);
  if (std::abs(sum - 1.0) > 1e-9) {
    return fmt("PageRank ranks sum to %.17g, not 1 (n=%.0f)", sum,
               static_cast<double>(rank.size()));
  }
  const double floor = (1.0 - damping) / static_cast<double>(rank.size());
  const double low = *std::min_element(rank.begin(), rank.end());
  return low >= floor * (1.0 - 1e-12)
             ? ""
             : fmt("a PageRank rank %.17g is below (1-d)/n = %.17g", low, floor);
}

std::string pagerank_matches(const std::vector<double>& rank,
                             const std::vector<double>& reference) {
  if (rank.size() != reference.size()) return "PageRank length differs";
  double l1 = 0.0;
  for (std::size_t i = 0; i < rank.size(); ++i) {
    l1 += std::abs(rank[i] - reference[i]);
  }
  return l1 <= 1e-9 ? ""
                    : fmt("PageRank L1 distance %.3g to power iteration > %.0g",
                          l1, 1e-9);
}

std::uint64_t fib_closed_form(unsigned n) {
  const double phi = (1.0 + std::sqrt(5.0)) / 2.0;
  return static_cast<std::uint64_t>(std::llround(std::pow(phi, n) / std::sqrt(5.0)));
}

std::uint64_t multiset_hash(const std::vector<double>& v) {
  std::uint64_t h = v.size();
  for (const double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    h += mix64(bits);  // commutative: order-free
  }
  return h;
}

std::vector<double> spmv_plain(const cilkpp::workloads::csr& a,
                               const std::vector<double>& x) {
  std::vector<double> y(a.rows(), 0.0);
  for (std::uint32_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::uint32_t e = a.row_begin[i]; e < a.row_begin[i + 1]; ++e) {
      acc += a.value[e] * x[a.col[e]];
    }
    y[i] = acc;
  }
  return y;
}

std::string job_fib(std::uint64_t got, unsigned n) {
  const std::uint64_t want = fib_closed_form(n);
  return got == want ? "" : fmt("fib job returned %.0f, closed form %.0f",
                                static_cast<double>(got),
                                static_cast<double>(want));
}

std::string job_sort(const std::vector<double>& got, std::size_t n,
                     std::uint64_t input_hash) {
  if (got.size() != n) return "sort job changed the element count";
  if (!std::is_sorted(got.begin(), got.end())) return "sort job output unsorted";
  if (multiset_hash(got) != input_hash) {
    return "sort job output is not a permutation of its input";
  }
  return "";
}

std::string job_spmv(const std::vector<double>& got,
                     const std::vector<double>& reference) {
  if (got.size() != reference.size()) return "spmv job length differs";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::abs(got[i] - reference[i]) >
        1e-12 * std::max(1.0, std::abs(reference[i]))) {
      return fmt("spmv job y[i]=%.17g differs from plain loop %.17g", got[i],
                 reference[i]);
    }
  }
  return "";
}

std::string job_accounting(std::uint64_t attempted, std::uint64_t submitted,
                           std::uint64_t completed, std::uint64_t rejected) {
  if (attempted != completed + rejected) {
    return fmt("attempted %.0f != completed + rejected (%.0f)",
               static_cast<double>(attempted),
               static_cast<double>(completed + rejected));
  }
  if (submitted != completed) {
    return fmt("admitted %.0f != completed %.0f", static_cast<double>(submitted),
               static_cast<double>(completed));
  }
  return "";
}

}  // namespace perfbench::checks

namespace perfbench {

/// Each check must accept the true output and reject a planted wrong one.
int run_selfcheck() {
  namespace c = checks;
  int missed = 0;
  auto expect = [&](const char* what, const std::string& good,
                    const std::string& bad) {
    const bool ok = good.empty() && !bad.empty();
    std::printf("  %-40s %s  (planted fault -> \"%s\")\n", what,
                ok ? "ok" : "MISSED", bad.c_str());
    if (!good.empty()) std::printf("    true output rejected: %s\n", good.c_str());
    if (!ok) ++missed;
  };

  // fib: value and scheduler counters.
  expect("fib value", c::fib_value(c::fib_iterative(27), 27),
         c::fib_value(c::fib_iterative(27) + 1, 27));
  const std::uint64_t s = c::fib_spawns(27, 10);
  expect("fib spawns == recurrence", c::fib_counters(3 * s, 3 * s, 3, 27, 10),
         c::fib_counters(3 * s - 1, 3 * s - 1, 3, 27, 10));
  expect("fib tasks_executed == spawns", c::fib_counters(s, s, 1, 27, 10),
         c::fib_counters(s, s - 1, 1, 27, 10));

  // graph: a small RMAT instance through the serial elision.
  namespace g = cilkpp::graph;
  const g::csr gr = g::rmat_graph_serial(10, 8000, 5);
  const g::csr gt = g::transpose_serial(gr);
  cilkpp::rt::serial_context ctx;
  const g::bc_result bc =
      g::betweenness(ctx, gr, gt, g::bc_options{.pivots = 6, .seed = 3, .grain = 16});
  const g::pagerank_result pr =
      g::pagerank(ctx, gr, gt, g::pagerank_options{.iterations = 8, .grain = 16});

  std::vector<double> bc_flip = bc.centrality;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &bc_flip[bc_flip.size() / 2], sizeof bits);
  bits ^= 1;  // one ulp: only a bitwise comparison sees it
  std::memcpy(&bc_flip[bc_flip.size() / 2], &bits, sizeof bits);
  expect("BC bitwise P-independence", c::bc_identical(bc.centrality, bc.centrality),
         c::bc_identical(bc.centrality, bc_flip));

  const double interior = c::bc_path_interior_sum(gr.offsets, gr.targets, bc.pivots);
  std::vector<double> bc_moved = bc.centrality;
  bc_moved[0] += 1.0;
  expect("BC sum == BFS path interiors", c::bc_sum(bc.centrality, interior),
         c::bc_sum(bc_moved, interior));

  std::vector<double> pr_leak = pr.rank;
  pr_leak[1] *= 0.5;
  expect("PageRank mass == 1", c::pagerank_mass(pr.rank, 0.85),
         c::pagerank_mass(pr_leak, 0.85));
  std::vector<double> pr_low = pr.rank;  // keeps the sum, breaks the floor
  const auto lo = static_cast<std::size_t>(
      std::min_element(pr_low.begin(), pr_low.end()) - pr_low.begin());
  const double take = pr_low[lo] * 0.5;
  pr_low[lo] -= take;
  pr_low[(lo + 1) % pr_low.size()] += take;
  expect("PageRank rank >= (1-d)/n", c::pagerank_mass(pr.rank, 0.85),
         c::pagerank_mass(pr_low, 0.85));
  const std::vector<double> power = c::pagerank_power(gr, 0.85, 8);
  std::vector<double> pr_swap = pr.rank;  // keeps mass and floor
  std::swap(pr_swap[0], pr_swap[pr_swap.size() - 1]);
  if (pr_swap == pr.rank) std::swap(pr_swap[0], pr_swap[1]);
  expect("PageRank == power iteration", c::pagerank_matches(pr.rank, power),
         c::pagerank_matches(pr_swap, power));

  // serve: each job kind and the admission ledger.
  expect("fib job == closed form", c::job_fib(c::fib_iterative(19), 19),
         c::job_fib(c::fib_iterative(18), 19));
  std::vector<double> in = cilkpp::workloads::random_doubles(192, 9);
  const std::uint64_t h = c::multiset_hash(in);
  std::vector<double> sorted = in;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> unsorted = sorted;
  std::swap(unsorted[3], unsorted[100]);
  expect("sort job sorted", c::job_sort(sorted, 192, h),
         c::job_sort(unsorted, 192, h));
  std::vector<double> dup = sorted;
  dup[5] = dup[4];  // still sorted, no longer a permutation
  expect("sort job permutation", c::job_sort(sorted, 192, h),
         c::job_sort(dup, 192, h));
  const cilkpp::workloads::csr a =
      cilkpp::workloads::random_sparse_matrix(256, 8, 4);
  const std::vector<double> x = cilkpp::workloads::random_doubles(256, 6);
  const std::vector<double> y = c::spmv_plain(a, x);
  std::vector<double> y_bad = y;
  y_bad[17] += 1e-6;
  expect("spmv job == plain loop", c::job_spmv(y, y), c::job_spmv(y_bad, y));
  expect("attempted == completed + rejected", c::job_accounting(10, 9, 9, 1),
         c::job_accounting(10, 9, 8, 1));
  return missed;
}

}  // namespace perfbench

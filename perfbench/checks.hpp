// Output checks of the three workloads. Every expected value is computed
// here, apart from the program (iterative Fibonacci, the spawn recurrence,
// a plain BFS, a plain power iteration, a plain spmv loop), or is a
// property the method must have (bitwise P-independence, rank mass 1,
// sortedness). None is a stored copy of an earlier output. A check returns
// an empty string when the output passes and the reason when it does not;
// --selfcheck plants a wrong output under each and expects the reason.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "workloads/sparse.hpp"

namespace perfbench::checks {

// --- fib -------------------------------------------------------------------

/// fib(n) by iteration.
std::uint64_t fib_iterative(unsigned n);

/// Spawns one fib(n, cutoff) solve performs: S(n) = 1 + S(n-1) + S(n-2)
/// above the cutoff (and for n >= 2), 0 at or below it.
std::uint64_t fib_spawns(unsigned n, unsigned cutoff);

std::string fib_value(std::uint64_t got, unsigned n);
/// `spawns`/`executed` are scheduler counters summed over `solves` solves.
std::string fib_counters(std::uint64_t spawns, std::uint64_t executed,
                         std::uint64_t solves, unsigned n, unsigned cutoff);

// --- graph -----------------------------------------------------------------

/// Σ over pivots s of Σ over t reachable from s (t != s) of (d(s,t) - 1),
/// by a plain BFS over the out-edges of a CSR graph given by its row
/// offsets and targets. Brandes' dependencies sum to it.
double bc_path_interior_sum(const std::vector<std::uint64_t>& offsets,
                            const std::vector<std::uint32_t>& targets,
                            const std::vector<std::uint32_t>& pivots);

/// Plain push-style power iteration (dangling mass spread uniformly).
std::vector<double> pagerank_power(const cilkpp::graph::csr& g, double damping,
                                   std::uint32_t sweeps);

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b);
std::string bc_identical(const std::vector<double>& a,
                         const std::vector<double>& b);
std::string bc_sum(const std::vector<double>& bc, double expected);
std::string pagerank_mass(const std::vector<double>& rank, double damping);
std::string pagerank_matches(const std::vector<double>& rank,
                             const std::vector<double>& reference);

// --- serve -----------------------------------------------------------------

/// fib(n) from Binet's closed form (exact for n <= 70 in double).
std::uint64_t fib_closed_form(unsigned n);
/// Order-independent fingerprint of a multiset of doubles.
std::uint64_t multiset_hash(const std::vector<double>& v);
/// y = A x by the plain row loop.
std::vector<double> spmv_plain(const cilkpp::workloads::csr& a,
                               const std::vector<double>& x);

std::string job_fib(std::uint64_t got, unsigned n);
std::string job_sort(const std::vector<double>& got, std::size_t n,
                     std::uint64_t input_hash);
std::string job_spmv(const std::vector<double>& got,
                     const std::vector<double>& reference);
std::string job_accounting(std::uint64_t attempted, std::uint64_t submitted,
                           std::uint64_t completed, std::uint64_t rejected);

}  // namespace perfbench::checks

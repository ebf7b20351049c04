// perfbench: the cilkpp benchmark program. One run = one workload in one
// process:
//
//   perfbench --workload fib|graph|serve --seed N --seconds S --trace 0|1
//   perfbench --selfcheck
//
// --workers P (default and maximum: the CPUs this process may run on, as
// nproc counts them) lowers the worker budget, for reference points such as
// P=2.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": ..,
//    "metrics": {name: {value, unit}}, "reference": {..}, "problems": [..]}
// run.py prints from it the metrics BENCHMARK.json names: the end-to-end
// ones with --trace 0, the per-layer ones with --trace 1. The same object
// goes to <out>/result-<workload>-<seed>-<trace>.json, and the traced run's
// spans to <out>/spans-<workload>.json.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

std::uint64_t process_start_ns = 0;

double since_start_s() {
  return static_cast<double>(now_ns() - process_start_ns) / 1e9;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

unsigned allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

[[gnu::noinline]] std::uint64_t reference_recursion(unsigned n) {
  return n < 2 ? n : reference_recursion(n - 1) + reference_recursion(n - 2);
}

host_reference call_reference(unsigned n) {
  std::uint64_t below = 1;  // C(k-1)
  std::uint64_t calls = 1;  // C(k)
  for (unsigned k = 1; k < n; ++k) {
    const std::uint64_t next = 1 + calls + below;
    below = calls;
    calls = next;
  }
  return {[n] { host_reference::sink = static_cast<double>(reference_recursion(n)); },
          static_cast<double>(calls) / 1e6};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool span_log::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    std::fprintf(f, "[%zu,%u,\"%s\",%llu,%llu,%llu]%s\n", i + 1, s.parent,
                 s.name, static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(
                     s.end_ns >= s.start_ns ? s.end_ns - t0 : s.start_ns - t0),
                 static_cast<unsigned long long>(s.request),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

namespace {

void print_metric_object(std::FILE* f, const std::vector<metric>& ms) {
  std::fputc('{', f);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                 ms[i].unit.c_str());
  }
  std::fputc('}', f);
}

/// One JSON object: correctness, operation counts, every metric measured,
/// the reference figures and the failed checks' reasons.
void print_result(std::FILE* f, const report& rep) {
  std::fprintf(f,
               "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"metrics\": ",
               rep.correct ? "true" : "false",
               static_cast<unsigned long long>(rep.attempted),
               static_cast<unsigned long long>(rep.failed));
  print_metric_object(f, rep.metrics);
  std::fputs(", \"reference\": ", f);
  print_metric_object(f, rep.reference);
  std::fputs(", \"problems\": [", f);
  for (std::size_t i = 0; i < rep.problems.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", rep.problems[i].c_str());
  }
  std::fputs("]}\n", f);
}

/// The graph.* and serve.* metrics of a workload that does not exercise
/// that layer come from a short traced run of the workload that does, in
/// this process after the first workload's pools are gone. Only the
/// layer's own metrics and any failed check are kept from it.
void add_layers_of(const std::string& workload, const options& opt,
                   report& rep, span_log& spans) {
  options side = opt;
  side.workload = workload;
  side.seconds = 1.0;
  report r;
  if (workload == "graph") {
    run_graph(side, r, spans);
  } else {
    run_serve(side, r, spans);
  }
  const std::string prefix = workload + ".";
  for (const metric& m : r.metrics) {
    if (m.name.rfind(prefix, 0) == 0) rep.metrics.push_back(m);
  }
  for (const std::string& why : r.problems) {
    rep.check(false, workload + " layer run: " + why);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fib|graph|serve --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--workers P]\n"
               "       perfbench --selfcheck\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  process_start_ns = now_ns();
  options opt;
  const unsigned nproc = allowed_cpus();
  opt.p = nproc;
  bool selfcheck = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selfcheck") {
      selfcheck = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) != "0";
    } else if (a == "--out" && has_value) {
      opt.out_dir = argv[++i];
    } else if (a == "--workers" && has_value) {
      opt.p = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      return usage();
    }
  }
  if (selfcheck) {
    const int missed = run_selfcheck();
    std::printf("selfcheck: %s\n", missed == 0 ? "every check rejected its planted fault"
                                               : "SOME CHECKS PASSED A WRONG OUTPUT");
    return missed == 0 ? 0 : 1;
  }
  if (opt.seconds <= 0.0 || opt.seconds > 600.0 || opt.p == 0 ||
      opt.p > nproc) {
    return usage();
  }

  report rep;
  span_log spans;
  spans.enable(opt.trace);
  if (opt.workload == "fib") {
    run_fib(opt, rep, spans);
  } else if (opt.workload == "graph") {
    run_graph(opt, rep, spans);
  } else if (opt.workload == "serve") {
    run_serve(opt, rep, spans);
  } else {
    return usage();
  }
  // The layer probes run after the workload's own schedulers and server
  // are gone, so the probes' pools never coexist with them.
  if (opt.trace) {
    run_layer_probes(opt, rep, spans);
    for (const char* other : {"graph", "serve"}) {
      if (opt.workload != other) add_layers_of(other, opt, rep, spans);
    }
  }
  if (!opt.trace) rep.add("peak_rss_mib", peak_rss_mib(), "MiB");

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string tag = opt.workload + "-" + std::to_string(opt.seed) + "-" +
                          (opt.trace ? "1" : "0");
  if (std::FILE* f = std::fopen((opt.out_dir + "/result-" + tag + ".json").c_str(), "w")) {
    print_result(f, rep);
    std::fclose(f);
  }
  if (opt.trace && !spans.write(opt.out_dir + "/spans-" + opt.workload + ".json")) {
    std::fprintf(stderr, "perfbench: could not write spans: %s\n", std::strerror(errno));
  }
  print_result(stdout, rep);
  return 0;
}

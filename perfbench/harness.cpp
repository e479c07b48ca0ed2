// perfbench_harness — one run of one benchmark workload.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--daemon PATH] [--t0 EPOCH_SECONDS] [--sandbox 0|1]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Exits 0 when every check passed, 1 when a check failed (the result
// line is still printed) and 2 when no result could be produced. Run it
// through perfbench/run.py, which builds it and owns its working
// directory.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "bench_suite/suite.hpp"

namespace perfbench {

std::vector<std::string> suite_programs() {
  std::vector<std::string> v;
  for (const auto& b : citroen::bench_suite::benchmark_list())
    v.push_back(b.name);
  return v;
}

std::size_t suite_index(const std::string& program) {
  const auto all = suite_programs();
  return static_cast<std::size_t>(
      std::find(all.begin(), all.end(), program) - all.begin());
}

std::vector<std::string> draw(std::vector<std::string> pool, std::size_t k,
                              std::uint64_t seed) {
  k = std::min(k, pool.size());
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + mix(seed, i) % (pool.size() - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, lo = 0.0, hi = -1e300;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      if (hi > lo) total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

double peak_rss_mb(bool children) {
  rusage ru{};
  ::getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::size_t first_reaching(const citroen::Vec& curve, double share) {
  const double target = share * curve.back();
  for (std::size_t i = 0; i < curve.size(); ++i)
    if (curve[i] >= target) return i;
  return curve.size() - 1;
}

std::string to_json(const RunResult& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    char num[64];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    s += first ? "" : ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
         vu.second + "\"}";
  }
  return s + "}}";
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"citroen.self_s", "s"},
      {"baselines.self_s", "s"},
      {"gp.fit_hypers_s", "s"},
      {"gp.refit_s", "s"},
      {"gp.predict_us", "us"},
      {"gp.fit_points", "count"},
      {"af.score_us", "us"},
      {"sim.evaluate_s", "s"},
      {"sim.evaluate_calls", "count"},
      {"sim.compile_s", "s"},
      {"sim.compile_calls", "count"},
      {"sim.prefetch_s", "s"},
      {"sim.prefetch_candidates", "count"},
      {"sim.binary_cache_hit_ratio", "ratio"},
      {"sim.prefix_cache_hit_ratio", "ratio"},
      {"sim.passes_saved_ratio", "ratio"},
      {"sim.prefix_cache_bytes", "bytes"},
      {"passes.o3_ms", "ms"},
      {"ir.interpret_ms", "ms"},
      {"ir.minstr_per_s", "Minstr/s"},
      {"serve.submit_ms", "ms"},
      {"serve.inspect_ms", "ms"},
      {"serve.admission_rejects", "count"},
      {"sandbox.evaluate_ms", "ms"},
      {"sim.evaluate_ms", "ms"},
      {"sandbox.jobs_dispatched", "count"},
      {"sandbox.forks", "count"},
      {"persist.journal_bytes", "bytes"},
      {"persist.journal_appends", "count"},
      {"persist.checkpoints", "count"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"unattributed_s", "s"},
  };
  return names;
}

void fill_missing_layers(RunResult& out) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    bool have = false;
    for (const auto& m : out.metrics) have = have || m.first == name;
    if (!have) out.put(name, 0.0, unit);
  }
}

citroen::sim::CompileOutcome TimedEvaluator::compile(
    const citroen::sim::SequenceAssignment& seqs, bool keep_program) const {
  if (!timed_) return inner_.compile(seqs, keep_program);
  const double t = now();
  auto out = inner_.compile(seqs, keep_program);
  totals_.compile_s += now() - t;
  ++totals_.compile_calls;
  return out;
}

citroen::sim::EvalOutcome TimedEvaluator::evaluate(
    const citroen::sim::SequenceAssignment& seqs) {
  const double t = timed_ ? now() : 0.0;
  auto out = inner_.evaluate(seqs);
  const double end = now();
  if (timed_) {
    totals_.evaluate_s += end - t;
    ++totals_.evaluate_calls;
  }
  if (!out.cache_hit) stamps_.push_back(end);
  return out;
}

void TimedEvaluator::prefetch(
    std::span<const citroen::sim::SequenceAssignment> batch,
    bool with_measure) {
  if (!timed_) return inner_.prefetch(batch, with_measure);
  const double t = now();
  inner_.prefetch(batch, with_measure);
  totals_.prefetch_s += now() - t;
  totals_.prefetch_candidates += static_cast<long>(batch.size());
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload "
               "tune-citroen|search-random|serve-sandboxed --seed N "
               "--seconds S --trace 0|1 [--daemon PATH] [--t0 EPOCH] "
               "[--sandbox 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  o.t0 = perfbench::wall_now();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v.c_str());
    else if (k == "--trace") o.trace = v != "0";
    else if (k == "--daemon") o.daemon = v;
    else if (k == "--t0") o.t0 = std::atof(v.c_str());
    else if (k == "--sandbox") o.sandbox = v != "0";
    else return usage();
  }
  if (argc % 2 == 0 || o.seconds <= 0.0) return usage();

  perfbench::RunResult r;
  try {
    if (o.workload == "tune-citroen") perfbench::run_tune_citroen(o, r);
    else if (o.workload == "search-random") perfbench::run_search_random(o, r);
    else if (o.workload == "serve-sandboxed")
      perfbench::run_serve_sandboxed(o, r);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(), e.what());
    return 2;
  }
  for (const auto& n : r.notes) std::fprintf(stderr, "perfbench: %s\n", n.c_str());
  std::printf("%s\n", perfbench::to_json(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

#pragma once
// Shared pieces of the benchmark harness: options, the clock, seeded
// draws, summary statistics, the result record and the timing decorator
// that sits between a tuner and the real evaluator.

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/evaluator.hpp"
#include "support/matrix.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon;   ///< path of the citroend executable
  bool sandbox = true;  ///< serve with CITROEN_SANDBOX=1 (0: in process)
  double t0 = 0.0;      ///< wall-clock (epoch) time the process was started
};

/// Wall-clock seconds since the epoch (comparable across processes, so
/// set-up time can be measured from the moment the harness was spawned).
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Monotonic seconds, for every interval measured inside the harness.
inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 of (a, b): derives every seed of a run from --seed.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Names of the suite's programs, in the suite's order.
std::vector<std::string> suite_programs();
/// Position of `program` in suite_programs().
std::size_t suite_index(const std::string& program);

/// `k` distinct elements of `pool`, drawn with seed `seed`, in draw order.
std::vector<std::string> draw(std::vector<std::string> pool, std::size_t k,
                              std::uint64_t seed);

double median(std::vector<double> v);
double geomean(const std::vector<double>& v);
/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> iv);
/// Peak resident set of this process (self) or of its reaped children.
double peak_rss_mb(bool children);

/// Index of the first point of `curve` that reaches `share` of its last.
std::size_t first_reaching(const citroen::Vec& curve, double share);

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> notes;  ///< why checks failed (stderr)
  /// name -> (value, unit), printed in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

/// The result object as one JSON line.
std::string to_json(const RunResult& r);

/// Per-layer metric names and units: every one is printed by every traced
/// run, zero where the workload does not exercise that layer.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// Add every per-layer metric `out` does not have yet, with value 0.
void fill_missing_layers(RunResult& out);

/// Timing decorator over the abstract evaluator, placed between a tuner
/// and the real evaluator. It always stamps the end of every measurement
/// that counted against the budget (an evaluation that was not an
/// identical-binary cache hit), so each point of the best-so-far curve
/// has a wall time. With `timed` it also accumulates the time and count
/// of every call.
class TimedEvaluator final : public citroen::sim::Evaluator {
 public:
  TimedEvaluator(citroen::sim::Evaluator& inner, bool timed)
      : inner_(inner), timed_(timed) {}

  struct Totals {
    double evaluate_s = 0.0, compile_s = 0.0, prefetch_s = 0.0;
    long evaluate_calls = 0, compile_calls = 0, prefetch_candidates = 0;
    double total_s() const { return evaluate_s + compile_s + prefetch_s; }
  };
  const Totals& totals() const { return totals_; }
  /// End time (monotonic) of each budget-counting measurement, in order.
  const std::vector<double>& stamps() const { return stamps_; }

  const citroen::ir::Program& base_program() const override {
    return inner_.base_program();
  }
  const std::string& program_name() const override {
    return inner_.program_name();
  }
  double o3_cycles() const override { return inner_.o3_cycles(); }
  double o0_cycles() const override { return inner_.o0_cycles(); }
  std::int64_t reference_output() const override {
    return inner_.reference_output();
  }
  std::vector<std::pair<std::string, double>> hot_modules() const override {
    return inner_.hot_modules();
  }
  citroen::sim::CompileOutcome compile(
      const citroen::sim::SequenceAssignment& seqs,
      bool keep_program) const override;
  citroen::sim::EvalOutcome evaluate(
      const citroen::sim::SequenceAssignment& seqs) override;
  void prefetch(std::span<const citroen::sim::SequenceAssignment> batch,
                bool with_measure) override;
  bool is_quarantined(
      const citroen::sim::SequenceAssignment& a) const override {
    return inner_.is_quarantined(a);
  }
  void set_fault_injector(
      const citroen::sim::FaultInjector* injector) override {
    inner_.set_fault_injector(injector);
  }
  double total_compile_seconds() const override {
    return inner_.total_compile_seconds();
  }
  double total_measure_seconds() const override {
    return inner_.total_measure_seconds();
  }
  int num_compiles() const override { return inner_.num_compiles(); }
  int num_measurements() const override { return inner_.num_measurements(); }
  int num_cache_hits() const override { return inner_.num_cache_hits(); }

 private:
  citroen::sim::Evaluator& inner_;
  bool timed_;
  mutable Totals totals_;
  std::vector<double> stamps_;
};

/// Workload entry points (each fills `out`; exceptions abort the run).
void run_tune_citroen(const Options& o, RunResult& out);
void run_search_random(const Options& o, RunResult& out);
void run_serve_sandboxed(const Options& o, RunResult& out);

}  // namespace perfbench

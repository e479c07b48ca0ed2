#pragma once
// Output checks of the performance benchmark. None of them trusts the
// tuner's own bookkeeping: a reported best is rebuilt on a fresh
// evaluator, outputs are compared by running the interpreter directly,
// and daemon curves are compared byte for byte with an in-process replay.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/interpreter.hpp"
#include "ir/module.hpp"
#include "sim/evaluator.hpp"
#include "support/matrix.hpp"

namespace perfbench {

/// Outcome of one check; `why` says what differed when !ok.
struct Check {
  bool ok = true;
  std::string why;
  static Check fail(std::string why) { return {false, std::move(why)}; }
};

/// The reported best speedup must equal the speedup of the reported
/// assignment rebuilt elsewhere, to a relative `rel_tol`.
Check check_speedup(double reported, double rebuilt, double rel_tol = 1e-12);

/// A best-so-far curve is non-empty, non-decreasing, at most `budget`
/// long and ends at `reported_best` exactly.
Check check_curve(const citroen::Vec& curve, int budget, double reported_best);

/// Two curves are byte-identical (same length, same bit patterns).
Check check_curves_identical(const citroen::Vec& got,
                             const citroen::Vec& want);

/// Every run completed and returned the reference output.
Check check_outputs(const std::vector<citroen::ir::ExecResult>& optimised,
                    const std::vector<citroen::ir::ExecResult>& reference);

/// `built` with the global data images of `input` (a -O0 program of the
/// same generator with another data seed) swapped in.
citroen::ir::Program with_input(const citroen::ir::Program& built,
                                const citroen::ir::Program& input);

/// Semantic preservation: `optimised` (a build of one input's program)
/// with each input's global data swapped in must return what the -O0
/// program of that input returns. `inputs` are -O0 programs of the same
/// generator with different data seeds.
Check check_semantics(const citroen::ir::Program& optimised,
                      const std::vector<citroen::ir::Program>& inputs,
                      const citroen::ir::CostModel& machine,
                      const citroen::ir::ExecLimits& limits = {});

/// What a tuning run reported, as the checks see it.
struct RunReport {
  std::string program;
  std::string machine = "arm";
  /// Data seeds of the tuning inputs; the first is the base input.
  std::vector<std::uint64_t> input_seeds;
  std::uint64_t heldout_seed = 0;  ///< an input never seen while tuning
  int budget = 0;
  double best_speedup = 0.0;
  citroen::sim::SequenceAssignment best_assignment;
  citroen::Vec curve;
};

/// All checks of one in-process tuning run: the curve, the reported best
/// rebuilt on a fresh evaluator (no shared cache, sandbox or journal),
/// and its outputs on the tuning inputs and the held-out input.
Check check_tuning_run(const RunReport& run);

/// A fresh evaluator over `program` on the given data seeds (the first
/// is the base input, the rest are registered with add_workload).
std::unique_ptr<citroen::sim::ProgramEvaluator> make_evaluator(
    const std::string& program, const std::string& machine,
    const std::vector<std::uint64_t>& input_seeds);

}  // namespace perfbench

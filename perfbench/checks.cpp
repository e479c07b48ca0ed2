#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "bench_suite/suite.hpp"
#include "sim/machine.hpp"

namespace perfbench {

namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), f, a, b);
  return buf;
}

}  // namespace

Check check_speedup(double reported, double rebuilt, double rel_tol) {
  if (!std::isfinite(reported) || !std::isfinite(rebuilt) || rebuilt <= 0.0)
    return Check::fail(fmt("non-finite speedup: reported %.17g, rebuilt %.17g",
                           reported, rebuilt));
  if (std::fabs(reported - rebuilt) > rel_tol * std::fabs(rebuilt))
    return Check::fail(fmt("reported best %.17g but the assignment rebuilds "
                           "to %.17g",
                           reported, rebuilt));
  return {};
}

Check check_curve(const citroen::Vec& curve, int budget,
                  double reported_best) {
  if (curve.empty()) return Check::fail("empty best-so-far curve");
  if (curve.size() > static_cast<std::size_t>(budget))
    return Check::fail(fmt("curve has %.0f points, budget is %.0f",
                           static_cast<double>(curve.size()),
                           static_cast<double>(budget)));
  for (std::size_t i = 1; i < curve.size(); ++i)
    if (!(curve[i] >= curve[i - 1]))
      return Check::fail(fmt("curve decreases from %.17g to %.17g",
                             curve[i - 1], curve[i]));
  if (curve.back() != reported_best)
    return Check::fail(fmt("curve ends at %.17g, reported best is %.17g",
                           curve.back(), reported_best));
  return {};
}

Check check_curves_identical(const citroen::Vec& got,
                             const citroen::Vec& want) {
  if (got.size() != want.size())
    return Check::fail(fmt("curve has %.0f points, replay has %.0f",
                           static_cast<double>(got.size()),
                           static_cast<double>(want.size())));
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0)
      return Check::fail(fmt("curve differs from replay: %.17g vs %.17g",
                             got[i], want[i]));
  return {};
}

Check check_outputs(const std::vector<citroen::ir::ExecResult>& optimised,
                    const std::vector<citroen::ir::ExecResult>& reference) {
  if (optimised.size() != reference.size())
    return Check::fail("run count differs from the reference");
  for (std::size_t i = 0; i < optimised.size(); ++i) {
    if (!reference[i].ok)
      return Check::fail("-O0 reference traps on input " + std::to_string(i) +
                         ": " + reference[i].trap);
    if (!optimised[i].ok)
      return Check::fail("tuned build traps on input " + std::to_string(i) +
                         ": " + optimised[i].trap);
    if (optimised[i].ret != reference[i].ret)
      return Check::fail(fmt("tuned build returns %.0f, -O0 returns %.0f",
                             static_cast<double>(optimised[i].ret),
                             static_cast<double>(reference[i].ret)));
  }
  return {};
}

citroen::ir::Program with_input(const citroen::ir::Program& built,
                                const citroen::ir::Program& input) {
  if (input.modules.size() != built.modules.size())
    throw std::runtime_error("input program has another module structure");
  citroen::ir::Program run = built;
  for (std::size_t mi = 0; mi < run.modules.size(); ++mi) {
    auto& globals = run.modules[mi].globals;
    const auto& data = input.modules[mi].globals;
    if (globals.size() != data.size())
      throw std::runtime_error("input program has other globals in " +
                               run.modules[mi].name);
    for (std::size_t gi = 0; gi < globals.size(); ++gi)
      globals[gi].init = data[gi].init;
  }
  return run;
}

Check check_semantics(const citroen::ir::Program& optimised,
                      const std::vector<citroen::ir::Program>& inputs,
                      const citroen::ir::CostModel& machine,
                      const citroen::ir::ExecLimits& limits) {
  std::vector<citroen::ir::ExecResult> got, want;
  try {
    for (const auto& input : inputs) {
      got.push_back(
          citroen::ir::interpret(with_input(optimised, input), machine, limits));
      want.push_back(citroen::ir::interpret(input, machine, limits));
    }
  } catch (const std::exception& e) {
    return Check::fail(e.what());
  }
  return check_outputs(got, want);
}

std::unique_ptr<citroen::sim::ProgramEvaluator> make_evaluator(
    const std::string& program, const std::string& machine,
    const std::vector<std::uint64_t>& input_seeds) {
  auto ev = std::make_unique<citroen::sim::ProgramEvaluator>(
      citroen::bench_suite::make_program(program, input_seeds.at(0)),
      citroen::sim::machine_by_name(machine));
  for (std::size_t i = 1; i < input_seeds.size(); ++i)
    ev->add_workload(
        citroen::bench_suite::make_program(program, input_seeds[i]));
  return ev;
}

Check check_tuning_run(const RunReport& run) {
  Check c = check_curve(run.curve, run.budget, run.best_speedup);
  if (!c.ok) return c;
  try {
    const auto fresh =
        make_evaluator(run.program, run.machine, run.input_seeds);
    const auto rebuilt = fresh->evaluate(run.best_assignment);
    if (!rebuilt.valid)
      return Check::fail("reported best does not rebuild: " +
                         rebuilt.why_invalid);
    c = check_speedup(run.best_speedup, rebuilt.speedup);
    if (!c.ok) return c;
    const auto built = fresh->compile(run.best_assignment,
                                      /*keep_program=*/true);
    if (!built.valid || !built.program)
      return Check::fail("reported best does not compile: " +
                         built.why_invalid);
    std::vector<citroen::ir::Program> inputs;
    for (const auto s : run.input_seeds)
      inputs.push_back(citroen::bench_suite::make_program(run.program, s));
    inputs.push_back(
        citroen::bench_suite::make_program(run.program, run.heldout_seed));
    return check_semantics(*built.program, inputs,
                           citroen::sim::machine_by_name(run.machine),
                           fresh->exec_limits());
  } catch (const std::exception& e) {
    return Check::fail(std::string("check threw: ") + e.what());
  }
}

}  // namespace perfbench

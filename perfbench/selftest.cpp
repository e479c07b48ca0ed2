// perfbench_selftest — feeds each output check of the benchmark a wrong
// value and confirms that the check fails, and the right value and
// confirms that it passes. run.py runs it before every benchmark run, so
// a check that has gone blind stops the benchmark. Exit status 0 when
// every case behaves, 1 otherwise.

#include <cmath>
#include <cstdio>
#include <string>

#include "baselines/tuners.hpp"
#include "bench_suite/suite.hpp"
#include "checks.hpp"
#include "sim/machine.hpp"

namespace {

int failures = 0;

void expect(bool want_ok, const perfbench::Check& c, const char* what) {
  if (c.ok == want_ok) return;
  ++failures;
  std::fprintf(stderr, "selftest: %s: expected %s, got %s %s\n", what,
               want_ok ? "pass" : "fail", c.ok ? "pass" : "fail",
               c.why.c_str());
}

/// The program with its entry function's return value increased by one.
citroen::ir::Program wrong_output(citroen::ir::Program p) {
  using namespace citroen::ir;
  for (auto& m : p.modules) {
    Function* f = m.find_function(p.entry);
    if (!f) continue;
    for (auto& b : f->blocks) {
      const ValueId term = b.insts.back();
      if (f->instr(term).op != Opcode::Ret) continue;
      const ValueId v = f->instr(term).ops.at(0);
      Instr one;
      one.op = Opcode::ConstInt;
      one.type = kI64;
      one.imm = 1;
      const ValueId c = f->add_instr(one);
      Instr add;
      add.op = Opcode::Add;
      add.type = kI64;
      add.ops = {v, c};
      const ValueId s = f->add_instr(add);
      b.insts.insert(b.insts.end() - 1, {c, s});
      f->instr(term).ops[0] = s;
    }
  }
  return p;
}

}  // namespace

int main() {
  using perfbench::check_curve;
  using perfbench::check_curves_identical;
  using perfbench::check_speedup;

  // Speedup equality, to a relative 1e-12.
  expect(true, check_speedup(1.25, 1.25), "equal speedups");
  expect(true, check_speedup(1.7109189162308482, 1.7109189162308485),
         "speedups one rounding apart");
  expect(false, check_speedup(1.25 * (1 + 1e-9), 1.25), "perturbed speedup");
  expect(false, check_speedup(0.99782731550760151, 1.0),
         "best below -O3 with the -O3 assignment");

  // Best-so-far curves.
  expect(true, check_curve({1.0, 1.2, 1.2}, 3, 1.2), "good curve");
  expect(false, check_curve({1.0, 1.2, 1.1}, 3, 1.1), "non-monotone curve");
  expect(false, check_curve({1.0, 1.2, 1.2}, 2, 1.2), "curve over budget");
  expect(false, check_curve({1.0, 1.2}, 3, 1.3), "curve ends elsewhere");
  expect(false, check_curve({}, 3, 0.0), "empty curve");

  // Byte-identical curves.
  expect(true, check_curves_identical({1.0, 1.5}, {1.0, 1.5}), "same curve");
  expect(false,
         check_curves_identical({1.0, 1.5}, {1.0, std::nextafter(1.5, 2.0)}),
         "curve one ulp off");
  expect(false, check_curves_identical({1.0}, {1.0, 1.5}), "shorter curve");

  // Outputs against the -O0 reference.
  citroen::ir::ExecResult ok_run;
  ok_run.ok = true;
  ok_run.ret = 7;
  auto wrong_run = ok_run;
  wrong_run.ret = 8;
  auto trapped = ok_run;
  trapped.ok = false;
  trapped.trap = "out of bounds";
  expect(true, perfbench::check_outputs({ok_run}, {ok_run}), "same output");
  expect(false, perfbench::check_outputs({wrong_run}, {ok_run}),
         "wrong output");
  expect(false, perfbench::check_outputs({trapped}, {ok_run}),
         "trapping build");

  // A real tuning run through the full check, then with each wrong value.
  const std::string program = "spec_nab";
  perfbench::RunReport run;
  run.program = program;
  run.input_seeds = {42, 1001};
  run.heldout_seed = 9001;
  run.budget = 16;
  {
    auto ev = perfbench::make_evaluator(program, "arm", run.input_seeds);
    citroen::baselines::PhaseTunerConfig cfg;
    cfg.budget = run.budget;
    cfg.seed = 5;
    auto res = citroen::baselines::run_random_search(*ev, cfg);
    run.best_speedup = res.best_speedup;
    run.best_assignment = res.best_assignment;
    run.curve = res.speedup_curve;
  }
  expect(true, perfbench::check_tuning_run(run), "real tuning run");
  auto bad = run;
  bad.best_speedup *= 1 + 1e-9;
  bad.curve.back() = bad.best_speedup;
  expect(false, perfbench::check_tuning_run(bad), "run with perturbed best");
  bad = run;
  bad.curve.insert(bad.curve.begin(), bad.curve.back() + 1.0);
  expect(false, perfbench::check_tuning_run(bad), "run with non-monotone curve");
  bad = run;
  bad.best_assignment.begin()->second.insert(
      bad.best_assignment.begin()->second.begin(), "no-such-pass");
  expect(false, perfbench::check_tuning_run(bad), "run with unknown pass");

  // Semantic preservation on the tuning and held-out inputs.
  auto ev = perfbench::make_evaluator(program, "arm", {42});
  const auto o3 = ev->compile({}, /*keep_program=*/true);
  std::vector<citroen::ir::Program> inputs = {
      citroen::bench_suite::make_program(program, 42),
      citroen::bench_suite::make_program(program, 9001)};
  const auto machine = citroen::sim::machine_by_name("arm");
  expect(true, perfbench::check_semantics(*o3.program, inputs, machine),
         "-O3 build on two inputs");
  expect(false,
         perfbench::check_semantics(wrong_output(*o3.program), inputs, machine),
         "build with a wrong output");
  expect(false,
         perfbench::check_semantics(
             *o3.program, {citroen::bench_suite::make_program("telecom_gsm")},
             machine),
         "input of another program");

  if (failures) {
    std::fprintf(stderr, "selftest: %d case(s) misbehaved\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all output checks reject wrong values\n");
  return 0;
}

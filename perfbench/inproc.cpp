// The two in-process workloads: tune-citroen (the CITROEN tuner) and
// search-random (surrogate-free random search on three inputs).
//
// Set-up builds one evaluator per drawn program (the -O0/-O3 reference
// builds, reference outputs and hot-module profile) and saves its
// pristine runtime state. A round then runs one tuning run per drawn
// program, each on an evaluator restored to that pristine state, so every
// run starts from an empty identical-binary cache. Only the pure prefix
// cache, shared by all evaluators of the run, stays warm across runs.
// Each round has its own tuner seeds; a run does --seconds / round_s rounds.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "af/acquisition.hpp"
#include "baselines/tuners.hpp"
#include "bench.hpp"
#include "bench_suite/suite.hpp"
#include "checks.hpp"
#include "citroen/tuner.hpp"
#include "gp/gp.hpp"
#include "passes/pass.hpp"
#include "persist/codec.hpp"
#include "sim/machine.hpp"
#include "support/transforms.hpp"

namespace perfbench {

namespace {

using citroen::Vec;

constexpr std::uint64_t kBaseInput = 42;  // the suite's default data seed
constexpr std::uint64_t kHeldOutInput = 9001;

struct Plan {
  bool citroen = true;
  /// Tuner seeds are mix(tuner_seeds, 1000 * round + suite index).
  std::uint64_t tuner_seeds = 0;
  /// Wall time of one round on a 4-core box (GCC 12, Release): a run
  /// does --seconds / round_s rounds, so its work does not depend on how
  /// fast the machine is at the moment.
  double round_s = 1.0;
  std::vector<std::string> programs;
  std::vector<std::uint64_t> inputs;  ///< data seeds; first is the base
  int budget = 0;
  bool repro = false;  ///< add the fixed CITROEN fault repro to each round
};

/// One drawn program with its evaluator and that evaluator's state right
/// after construction.
struct Target {
  std::string program;
  std::unique_ptr<citroen::sim::ProgramEvaluator> ev;
  std::string pristine;

  void reset() {
    citroen::persist::Reader r(pristine);
    ev->load_runtime_state(r);
  }
};

struct Op {
  RunReport report;
  int round = 0;
  bool timed = false;
  bool threw = false;
  std::string error;
  double wall = 0.0;  ///< tuner construction + run
  double t95 = 0.0;   ///< start until the curve first reaches 95% of its end
  bool stamps_match = true;
  TimedEvaluator::Totals totals;
  int cache_hits = 0, measurements = 0;
  std::vector<std::pair<Vec, double>> observations;
};

struct Round {
  bool timed = false;
  double wall = 0.0;  ///< drawn runs only, resets included
  double tune = 0.0;  ///< sum of the drawn runs' wall times
  citroen::sim::PrefixCacheStats cache_before, cache_after;
};

Target make_target(const std::string& program,
                   const std::vector<std::uint64_t>& inputs,
                   const std::shared_ptr<citroen::sim::PrefixCache>& cache) {
  Target t;
  t.program = program;
  t.ev = make_evaluator(program, "arm", inputs);
  if (cache) t.ev->set_shared_prefix_cache(cache);
  citroen::persist::Writer w;
  t.ev->save_runtime_state(w);
  t.pristine = w.take();
  return t;
}

/// One tuning run on `t` (restored to pristine state first).
Op tune(Target& t, const Plan& plan, std::uint64_t seed, bool timed,
        const citroen::core::CitroenConfig* citroen_cfg = nullptr) {
  Op op;
  op.timed = timed;
  op.report.program = t.program;
  op.report.input_seeds = plan.inputs;
  op.report.heldout_seed = kHeldOutInput;
  t.reset();
  TimedEvaluator te(*t.ev, timed);
  const double start = now();
  try {
    if (plan.citroen || citroen_cfg) {
      citroen::core::CitroenConfig cfg;
      if (citroen_cfg) cfg = *citroen_cfg;
      else cfg.budget = plan.budget;
      cfg.seed = seed;
      citroen::core::CitroenTuner tuner(te, cfg);
      auto res = tuner.run();
      op.report.budget = cfg.budget;
      op.report.best_speedup = res.best_speedup;
      op.report.best_assignment = std::move(res.best_assignment);
      op.report.curve = std::move(res.speedup_curve);
      if (timed) op.observations = std::move(res.observations);
    } else {
      citroen::baselines::PhaseTunerConfig cfg;
      cfg.budget = plan.budget;
      cfg.seed = seed;
      auto res = citroen::baselines::run_random_search(te, cfg);
      op.report.budget = cfg.budget;
      op.report.best_speedup = res.best_speedup;
      op.report.best_assignment = std::move(res.best_assignment);
      op.report.curve = std::move(res.speedup_curve);
    }
  } catch (const std::exception& e) {
    op.threw = true;
    op.error = e.what();
  }
  op.wall = now() - start;
  op.totals = te.totals();
  op.cache_hits = t.ev->num_cache_hits();
  op.measurements = t.ev->num_measurements();
  const auto& stamps = te.stamps();
  op.stamps_match = op.threw || stamps.size() == op.report.curve.size();
  if (!op.threw && op.stamps_match && !op.report.curve.empty())
    op.t95 = stamps[first_reaching(op.report.curve, 0.95)] - start;
  return op;
}

/// The CITROEN fault of this build, on inputs that do not depend on the
/// workload seed: when no candidate beats -O3 the reported best comes
/// from a curve that starts at 0 while the reported assignment is the
/// -O3 fallback, so the rebuild check fails on every round.
citroen::core::CitroenConfig repro_config() {
  citroen::core::CitroenConfig cfg;
  cfg.budget = 30;
  cfg.initial_random = 5;
  cfg.gp.fit_steps = 6;
  return cfg;
}
constexpr std::uint64_t kReproSeed = 3;
const char* const kReproProgram = "security_sha";

struct GpReplay {
  double fit_hypers_s = 0, refit_s = 0, predict_us = 0, score_us = 0;
  double points = 0;
};

/// gp::GaussianProcess fit/predict and the acquisition value, replayed on
/// a run's own observations at their final size, prepared the way the
/// tuner prepares them (active dimensions, unit inputs, Yeo-Johnson).
GpReplay replay_gp(const std::vector<std::pair<Vec, double>>& obs) {
  GpReplay g;
  if (obs.size() < 2) return g;
  const std::size_t dim = obs[0].first.size();
  std::vector<std::size_t> active;
  for (std::size_t d = 0; d < dim; ++d)
    for (const auto& o : obs)
      if (o.first[d] != obs[0].first[d]) {
        active.push_back(d);
        break;
      }
  if (active.empty()) active.push_back(0);
  std::vector<Vec> px;
  Vec y;
  for (const auto& [f, v] : obs) {
    Vec p(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) p[i] = f[active[i]];
    px.push_back(std::move(p));
    y.push_back(v);
  }
  citroen::InputScaler scaler;
  scaler.fit(px);
  std::vector<Vec> unit;
  for (const auto& p : px) unit.push_back(scaler.to_unit(p));
  citroen::YeoJohnson yj;
  yj.fit(y);
  const Vec ty = yj.transform(y);
  const citroen::core::CitroenConfig defaults;
  auto gcfg = defaults.gp;
  gcfg.incremental = false;  // time a full refactorisation
  citroen::gp::GaussianProcess gp(active.size(), gcfg);
  double t = now();
  gp.set_fit_hypers(true);
  gp.fit(unit, ty);
  g.fit_hypers_s = now() - t;
  t = now();
  gp.set_fit_hypers(false);
  gp.fit(unit, ty);
  g.refit_s = now() - t;
  double sink = 0.0;
  t = now();
  for (const auto& u : unit) sink += gp.predict(u).mean;
  g.predict_us = (now() - t) * 1e6 / static_cast<double>(unit.size());
  double best = ty[0];
  for (const double v : ty) best = std::min(best, v);
  const citroen::af::Acquisition acq(&gp, defaults.af, best);
  t = now();
  for (const auto& u : unit) sink += acq.value(u);
  g.score_us = (now() - t) * 1e6 / static_cast<double>(unit.size());
  if (!std::isfinite(sink)) throw std::runtime_error("non-finite GP replay");
  g.points = static_cast<double>(unit.size());
  return g;
}

void run_inproc(const Options& o, const Plan& plan, RunResult& out) {
  // ---- set-up ---------------------------------------------------------
  auto cache = std::make_shared<citroen::sim::PrefixCache>();
  std::vector<Target> targets;
  for (const auto& p : plan.programs)
    targets.push_back(make_target(p, plan.inputs, cache));
  Target repro;
  if (plan.repro) repro = make_target(kReproProgram, {kBaseInput}, nullptr);
  const double setup_s = wall_now() - o.t0;
  std::fprintf(stderr, "perfbench: %s set-up %.3f s, programs:",
               o.workload.c_str(), setup_s);
  for (const auto& p : plan.programs) std::fprintf(stderr, " %s", p.c_str());
  std::fprintf(stderr, "\n");

  // ---- timed rounds ---------------------------------------------------
  // Traced runs alternate timed and untimed rounds, so the overhead of
  // the timers is measured in the same process.
  std::vector<Op> ops, repro_ops;
  std::vector<Round> rounds;
  const int num_rounds =
      std::max(o.trace ? 2 : 1, static_cast<int>(o.seconds / plan.round_s));
  const double begin = now();
  for (int r = 0; r < num_rounds; ++r) {
    if (plan.repro) {
      const auto cfg = repro_config();
      repro_ops.push_back(tune(repro, plan, kReproSeed, false, &cfg));
      repro_ops.back().round = r;
    }
    Round rd;
    rd.timed = o.trace && r % 2 == 0;
    rd.cache_before = cache->stats();
    const double t0 = now();
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const std::uint64_t seed =
          mix(plan.tuner_seeds, 1000 * r + suite_index(targets[i].program));
      ops.push_back(tune(targets[i], plan, seed, rd.timed));
      ops.back().round = r;
      rd.tune += ops.back().wall;
    }
    rd.wall = now() - t0;
    std::fprintf(stderr, "perfbench: round %d %.3f s\n", r, rd.wall);
    rd.cache_after = cache->stats();
    rounds.push_back(rd);
  }
  const double rss = peak_rss_mb(false);
  std::fprintf(stderr, "perfbench: %zu rounds, %zu runs in %.2f s\n",
               rounds.size(), ops.size(), now() - begin);

  // ---- checks ---------------------------------------------------------
  out.attempted = static_cast<long>(ops.size() + repro_ops.size());
  for (auto* list : {&ops, &repro_ops})
    for (const auto& op : *list) {
      Check c = op.threw ? Check::fail("tuner threw: " + op.error)
                         : check_tuning_run(op.report);
      if (!c.ok) {
        ++out.failed;
        out.notes.push_back("failed run " + op.report.program + " round " +
                            std::to_string(op.round) + ": " + c.why);
      }
      if (!op.stamps_match) {
        out.correct = false;
        out.notes.push_back("measurement stamps do not match the curve of " +
                            op.report.program);
      }
    }

  // ---- metrics --------------------------------------------------------
  auto per_round = [&](bool timed_only, auto&& value) {
    std::vector<double> v;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      if (timed_only && !rounds[r].timed) continue;
      double s = 0.0;
      for (const auto& op : ops)
        if (op.round == static_cast<int>(r)) s += value(op);
      v.push_back(s);
    }
    return median(v);
  };
  if (!o.trace) {
    // Round totals are averaged over the rounds: the runs of a round
    // differ by tuner seed, and a mean over every run of the process
    // averages that out where a median of a few rounds does not.
    const double n = static_cast<double>(rounds.size());
    double tune_total = 0.0, t95_total = 0.0;
    std::vector<double> walls, best0;
    for (const auto& rd : rounds) tune_total += rd.tune;
    for (const auto& op : ops) {
      walls.push_back(op.wall);
      t95_total += op.t95;
      if (op.round == 0 && !op.threw) best0.push_back(op.report.best_speedup);
    }
    out.put("setup_s", setup_s, "s");
    out.put("tune_s", tune_total / n, "s");
    out.put("time_to_95pct_s", t95_total / n, "s");
    out.put("speedup_geomean", geomean(best0), "x");
    out.put("peak_rss_mb", rss, "MB");
    out.put("jobs_per_s", static_cast<double>(ops.size()) / tune_total, "1/s");
    out.put("job_latency_p50_s", median(walls), "s");
    return;
  }

  std::vector<double> timed_tune, plain_tune, unattributed;
  for (const auto& rd : rounds) {
    (rd.timed ? timed_tune : plain_tune).push_back(rd.tune);
    if (rd.timed) unattributed.push_back(rd.wall - rd.tune);
  }
  const double self = per_round(
      true, [](const Op& op) { return op.wall - op.totals.total_s(); });
  out.put(plan.citroen ? "citroen.self_s" : "baselines.self_s", self, "s");

  std::vector<double> fit, refit, predict, score, points;
  for (const auto& op : ops) {
    if (!op.timed || op.observations.empty()) continue;
    try {
      const GpReplay g = replay_gp(op.observations);
      fit.push_back(g.fit_hypers_s);
      refit.push_back(g.refit_s);
      predict.push_back(g.predict_us);
      score.push_back(g.score_us);
      points.push_back(g.points);
    } catch (const std::exception& e) {
      out.notes.push_back(std::string("GP replay skipped: ") + e.what());
    }
  }
  if (plan.citroen) {
    out.put("gp.fit_hypers_s", median(fit), "s");
    out.put("gp.refit_s", median(refit), "s");
    out.put("gp.predict_us", median(predict), "us");
    out.put("gp.fit_points", median(points), "count");
    out.put("af.score_us", median(score), "us");
  }

  out.put("sim.evaluate_s",
          per_round(true, [](const Op& op) { return op.totals.evaluate_s; }),
          "s");
  out.put("sim.evaluate_calls", per_round(true, [](const Op& op) {
            return static_cast<double>(op.totals.evaluate_calls);
          }), "count");
  out.put("sim.compile_s",
          per_round(true, [](const Op& op) { return op.totals.compile_s; }),
          "s");
  out.put("sim.compile_calls", per_round(true, [](const Op& op) {
            return static_cast<double>(op.totals.compile_calls);
          }), "count");
  out.put("sim.prefetch_s",
          per_round(true, [](const Op& op) { return op.totals.prefetch_s; }),
          "s");
  out.put("sim.prefetch_candidates", per_round(true, [](const Op& op) {
            return static_cast<double>(op.totals.prefetch_candidates);
          }), "count");
  double hits = 0.0, measured = 0.0;
  for (const auto& op : ops)
    if (op.timed) {
      hits += op.cache_hits;
      measured += op.measurements;
    }
  out.put("sim.binary_cache_hit_ratio",
          hits + measured > 0 ? hits / (hits + measured) : 0.0, "ratio");
  std::vector<double> hit_ratio, saved_ratio;
  for (const auto& rd : rounds) {
    if (!rd.timed) continue;
    const auto& a = rd.cache_before;
    const auto& b = rd.cache_after;
    const double builds = static_cast<double>(b.builds - a.builds);
    const double run = static_cast<double>(b.passes_run - a.passes_run);
    const double saved = static_cast<double>(b.passes_saved - a.passes_saved);
    if (builds > 0)
      hit_ratio.push_back(static_cast<double>(b.full_hits - a.full_hits +
                                              b.prefix_hits - a.prefix_hits) /
                          builds);
    if (run + saved > 0) saved_ratio.push_back(saved / (run + saved));
  }
  out.put("sim.prefix_cache_hit_ratio", median(hit_ratio), "ratio");
  out.put("sim.passes_saved_ratio", median(saved_ratio), "ratio");
  out.put("sim.prefix_cache_bytes", static_cast<double>(cache->stats().bytes),
          "bytes");

  // Layers behind the tuner, called directly on the run's own programs.
  std::vector<double> o3_ms, interp_ms;
  double instr = 0.0, interp_s = 0.0;
  const auto machine = citroen::sim::machine_by_name("arm");
  for (const auto& t : targets) {
    std::vector<double> reps;
    for (int k = 0; k < 3; ++k) {
      auto prog = t.ev->base_program();
      const double s = now();
      for (auto& m : prog.modules)
        citroen::passes::run_sequence(m, citroen::passes::o3_sequence());
      reps.push_back((now() - s) * 1e3);
    }
    o3_ms.push_back(median(reps));
    const auto o3 = t.ev->compile({}, /*keep_program=*/true);
    if (!o3.program) continue;
    for (const auto seed : plan.inputs) {
      const auto run = with_input(
          *o3.program, citroen::bench_suite::make_program(t.program, seed));
      const double s = now();
      const auto res = citroen::ir::interpret(run, machine, t.ev->exec_limits());
      const double dt = now() - s;
      interp_ms.push_back(dt * 1e3);
      interp_s += dt;
      instr += static_cast<double>(res.instructions);
    }
  }
  out.put("passes.o3_ms", median(o3_ms), "ms");
  out.put("ir.interpret_ms", median(interp_ms), "ms");
  out.put("ir.minstr_per_s", interp_s > 0 ? instr / interp_s / 1e6 : 0.0,
          "Minstr/s");
  out.put("obs.trace_overhead_ratio", median(timed_tune) / median(plain_tune),
          "ratio");
  out.put("unattributed_s", median(unattributed), "s");
  fill_missing_layers(out);
}


}  // namespace

void run_tune_citroen(const Options& o, RunResult& out) {
  // The CITROEN fault fails a run whose candidates never reach -O3, which
  // happens on some tuner seeds and not on others unless -O3 is easy to
  // beat. A failure share that moves with the seed cannot be compared
  // between runs, so every round tunes the programs on which at least 30%
  // of random single-module sequences reach -O3 (perfbench/README.md),
  // and the fault is measured by the fixed repro run instead.
  //
  // The tuner seeds do not depend on --seed here: whether a CITROEN run
  // reaches 95% of its best in its random phase or late in its guided
  // phase is a coin flip per seed, and over the sixteen runs that fit in
  // a run of the benchmark it moved time_to_95pct_s by 70% between
  // seeds. The seed draws the program order of every round.
  Plan plan;
  plan.citroen = true;
  plan.tuner_seeds = 0xc170e;
  plan.round_s = 7.0;
  plan.programs = draw({"network_dijkstra", "consumer_jpeg",
                        "automotive_susan", "spec_imagick"},
                       4, mix(o.seed, 0xc17));
  plan.inputs = {kBaseInput};
  plan.budget = 30;
  plan.repro = true;
  run_inproc(o, plan, out);
}

void run_search_random(const Options& o, RunResult& out) {
  Plan plan;
  plan.citroen = false;
  plan.tuner_seeds = 0x5a;  // as on tune-citroen: the seed draws the order
  plan.round_s = 6.6;
  plan.programs =
      draw(suite_programs(), suite_programs().size(), mix(o.seed, 0x5a));
  plan.inputs = {kBaseInput, 1001, 1002};
  plan.budget = 96;
  run_inproc(o, plan, out);
}

}  // namespace perfbench

// Integration tests for the CITROEN tuner and the baseline tuners.

#include <gtest/gtest.h>

#include "baselines/tuners.hpp"
#include "bench_suite/suite.hpp"
#include "citroen/tuner.hpp"
#include "sim/machine.hpp"

using namespace citroen;

namespace {

sim::ProgramEvaluator make_eval(const std::string& name) {
  return sim::ProgramEvaluator(bench_suite::make_program(name),
                               sim::arm_a57_model());
}

core::CitroenConfig small_config(int budget, std::uint64_t seed = 1) {
  core::CitroenConfig cfg;
  cfg.budget = budget;
  cfg.initial_random = budget / 5 + 2;
  cfg.candidates_per_iter = 9;
  cfg.gp.fit_steps = 6;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

TEST(Citroen, BeatsO3OnTelecomGsm) {
  auto eval = make_eval("telecom_gsm");
  core::CitroenTuner tuner(eval, small_config(40));
  const auto r = tuner.run();
  EXPECT_EQ(r.measurements, 40);
  // The Fig. 5.1 motif guarantees headroom above -O3 (whose fixed order
  // runs instcombine before the SLP vectoriser).
  EXPECT_GT(r.best_speedup, 1.0);
  EXPECT_FALSE(r.best_assignment.empty());
  EXPECT_FALSE(r.stat_relevance.empty());
  EXPECT_GT(r.compiles, 40);
}

TEST(Citroen, ReportedBestRebuildsToReportedSpeedup) {
  // Nothing in this run beats -O3, so the best candidate measured is
  // slower than -O3: the reported assignment must be that candidate,
  // not the -O3 fallback, or it rebuilds to a different speedup.
  sim::ProgramEvaluator eval(bench_suite::make_program("security_sha"),
                             sim::machine_by_name("arm"));
  core::CitroenConfig cfg;
  cfg.budget = 30;
  cfg.initial_random = 5;
  cfg.gp.fit_steps = 6;
  cfg.seed = 3;
  const auto r = core::CitroenTuner(eval, cfg).run();
  ASSERT_GT(r.best_speedup, 0.0);

  sim::ProgramEvaluator fresh(bench_suite::make_program("security_sha"),
                              sim::machine_by_name("arm"));
  const auto out = fresh.evaluate(r.best_assignment);
  ASSERT_TRUE(out.valid) << out.why_invalid;
  EXPECT_NEAR(out.speedup, r.best_speedup, 1e-12 * r.best_speedup);
}

TEST(Citroen, TunesSelectedHotModules) {
  auto eval = make_eval("telecom_gsm");
  core::CitroenTuner tuner(eval, small_config(10));
  // long_term dominates the gsm runtime; it must be among tuned modules.
  const auto& mods = tuner.tuned_modules();
  EXPECT_TRUE(std::find(mods.begin(), mods.end(), "long_term") !=
              mods.end());
  EXPECT_TRUE(std::find(mods.begin(), mods.end(), "driver") == mods.end());
}

TEST(Citroen, AblationsRun) {
  for (const bool coverage : {true, false}) {
    for (const bool heuristic : {true, false}) {
      auto eval = make_eval("security_sha");
      auto cfg = small_config(15);
      cfg.coverage_af = coverage;
      cfg.heuristic_generator = heuristic;
      core::CitroenTuner tuner(eval, cfg);
      const auto r = tuner.run();
      EXPECT_EQ(r.measurements, 15);
      EXPECT_GT(r.best_speedup, 0.0);
    }
  }
}

TEST(Citroen, AlternativeFeatureSpacesRun) {
  using F = core::CitroenConfig::Features;
  for (const F f : {F::Stats, F::Autophase, F::RawSequence}) {
    auto eval = make_eval("office_stringsearch");
    auto cfg = small_config(12);
    cfg.features = f;
    core::CitroenTuner tuner(eval, cfg);
    const auto r = tuner.run();
    EXPECT_EQ(r.measurements, 12) << static_cast<int>(f);
  }
}

TEST(Citroen, SpeedupCurveIsMonotone) {
  auto eval = make_eval("spec_x264");
  core::CitroenTuner tuner(eval, small_config(20));
  const auto r = tuner.run();
  for (std::size_t i = 1; i < r.speedup_curve.size(); ++i)
    EXPECT_GE(r.speedup_curve[i], r.speedup_curve[i - 1]);
}

TEST(Baselines, AllTunersProduceFullCurves) {
  baselines::PhaseTunerConfig cfg;
  cfg.budget = 12;
  cfg.seed = 3;
  using Runner = baselines::TuneTrace (*)(sim::Evaluator&,
                                          const baselines::PhaseTunerConfig&);
  const std::pair<const char*, Runner> tuners[] = {
      {"random", baselines::run_random_search},
      {"ga", baselines::run_ga_tuner},
      {"des", baselines::run_des_tuner},
      {"opentuner", baselines::run_ensemble_tuner},
      {"boca", baselines::run_rf_bo_tuner},
  };
  for (const auto& [name, fn] : tuners) {
    auto eval = make_eval("bzip2");
    const auto t = fn(eval, cfg);
    EXPECT_EQ(t.speedup_curve.size(), 12u) << name;
    EXPECT_GT(t.best_speedup, 0.0) << name;
    EXPECT_EQ(t.tuner, name);
  }
}

TEST(Baselines, HotModuleSelectionSkipsDriver) {
  auto eval = make_eval("consumer_jpeg");
  const auto mods = baselines::select_hot_modules(eval, 0.9, 3);
  EXPECT_FALSE(mods.empty());
  for (const auto& m : mods) EXPECT_NE(m, "driver");
}

TEST(Citroen, AdaptiveAllocationFavoursHeadroomModule) {
  // telecom_gsm's headroom is concentrated in long_term (the SLP motif).
  // The adaptive bandit should send more measurements its way (or to the
  // joint arm) than to the low-headroom modules.
  auto eval = make_eval("telecom_gsm");
  auto cfg = small_config(45, 7);
  core::CitroenTuner tuner(eval, cfg);
  const auto r = tuner.run();
  int long_term = 0, others = 0;
  for (const auto& [mod, n] : r.measurements_per_module) {
    if (mod == "long_term" || mod == "<joint>") {
      long_term += n;
    } else {
      others += n;
    }
  }
  EXPECT_GT(long_term, others / 2)
      << "adaptive allocation starved the headroom module";
}

TEST(Citroen, LegacyPassSpaceRestrictsSequences) {
  auto eval = make_eval("telecom_gsm");
  auto cfg = small_config(12);
  cfg.pass_space = passes::legacy_pass_names();
  core::CitroenTuner tuner(eval, cfg);
  const auto r = tuner.run();
  for (const auto& [mod, seq] : r.best_assignment) {
    for (const auto& p : seq) {
      EXPECT_NE(p, "slp-vectorizer");
      EXPECT_NE(p, "function-attrs");
    }
  }
}

TEST(Citroen, InvalidBudgetZeroIsHarmless) {
  auto eval = make_eval("security_sha");
  auto cfg = small_config(0);
  core::CitroenTuner tuner(eval, cfg);
  const auto r = tuner.run();
  EXPECT_EQ(r.measurements, 0);
  EXPECT_TRUE(r.speedup_curve.empty());
}

#include "citroen/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "heuristics/des.hpp"
#include "heuristics/ga.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/codec.hpp"
#include "support/timer.hpp"
#include "support/transforms.hpp"

namespace citroen::core {

using heuristics::Sequence;

namespace {

/// Quantised hash of a feature vector (collision detection, Table 5.2).
std::uint64_t feature_hash(const Vec& f) {
  std::uint64_t h = 1469598103934665603ULL;
  for (double v : f) {
    const std::int64_t q = static_cast<std::int64_t>(std::llround(v * 1e6));
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint8_t>(q >> (8 * b));
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::vector<std::string> to_names(const Sequence& s,
                                  const std::vector<std::string>& space) {
  std::vector<std::string> out;
  out.reserve(s.size());
  for (int p : s) out.push_back(space[static_cast<std::size_t>(p)]);
  return out;
}

struct ModuleState {
  std::string name;
  double hot_fraction = 0.0;
  Sequence incumbent;             ///< best sequence found for this module
  bool has_incumbent = false;     ///< false: the module stays at -O3
  heuristics::DesSequence des;
  heuristics::GaSequence ga;
  int measurements = 0;
  double gain = 0.0;              ///< smoothed recent improvement

  ModuleState(std::string n, double frac, int num_passes, int max_len)
      : name(std::move(n)),
        hot_fraction(frac),
        des(num_passes, max_len),
        ga(num_passes, max_len) {}
};

const std::string kJoint = "<joint>";

}  // namespace

// ---- TuneResult serialization ----------------------------------------------

void put(persist::Writer& w, const TuneResult& r) {
  w.f64(r.best_speedup);
  sim::put(w, r.best_assignment);
  persist::put(w, r.speedup_curve);
  persist::put(w, r.measurements_per_module);
  w.i32(r.measurements);
  w.i32(r.compiles);
  w.i32(r.cache_hits);
  w.i32(r.invalid);
  persist::put(w, r.failure_counts);
  w.i32(r.quarantined_skipped);
  w.i32(r.gp_fit_failures);
  w.i32(r.random_fallback_rounds);
  w.i32(r.feature_collisions);
  w.f64(r.model_seconds);
  w.f64(r.compile_seconds);
  w.f64(r.measure_seconds);
  w.u64(r.stat_relevance.size());
  for (const auto& [name, rel] : r.stat_relevance) {
    w.str(name);
    w.f64(rel);
  }
  w.u64(r.observations.size());
  for (const auto& [f, y] : r.observations) {
    persist::put(w, f);
    w.f64(y);
  }
}

void get(persist::Reader& r, TuneResult& out) {
  out = TuneResult{};
  out.best_speedup = r.f64();
  sim::get(r, out.best_assignment);
  persist::get(r, out.speedup_curve);
  persist::get(r, out.measurements_per_module);
  out.measurements = r.i32();
  out.compiles = r.i32();
  out.cache_hits = r.i32();
  out.invalid = r.i32();
  persist::get(r, out.failure_counts);
  out.quarantined_skipped = r.i32();
  out.gp_fit_failures = r.i32();
  out.random_fallback_rounds = r.i32();
  out.feature_collisions = r.i32();
  out.model_seconds = r.f64();
  out.compile_seconds = r.f64();
  out.measure_seconds = r.f64();
  const std::uint64_t nrel = r.u64();
  out.stat_relevance.reserve(nrel);
  for (std::uint64_t i = 0; i < nrel; ++i) {
    std::string name = r.str();
    const double rel = r.f64();
    out.stat_relevance.emplace_back(std::move(name), rel);
  }
  const std::uint64_t nobs = r.u64();
  out.observations.reserve(nobs);
  for (std::uint64_t i = 0; i < nobs; ++i) {
    Vec f;
    persist::get(r, f);
    const double y = r.f64();
    out.observations.emplace_back(std::move(f), y);
  }
}

// ---- the search state, one step at a time ----------------------------------

struct CitroenTuner::Impl {
  enum class Phase : std::uint8_t { InitialRandom = 0, ModelGuided = 1 };

  sim::Evaluator& eval;
  const CitroenConfig& config;
  const std::vector<std::string>& modules;
  const std::function<bool()>& skip_hyper_refits;

  // Deterministic plumbing, rebuilt from the config on construction and
  // never serialized.
  int num_passes;
  StatsFeatures stats_feat;
  SequenceFeatures seq_feat;
  bool need_program;
  std::vector<std::string> feature_names;
  std::size_t feat_dim;
  /// Corpus seeds resolved to (index into mods, pass ids). Consumed by
  /// the first phase-1 attempts; the cursor is p1_attempts itself, so
  /// resume needs no extra checkpoint state.
  std::vector<std::pair<std::size_t, Sequence>> seeds;

  // Search state (everything below is checkpointed).
  Phase phase = Phase::InitialRandom;
  Rng rng;
  std::vector<ModuleState> mods;
  std::vector<Vec> data_x;
  Vec data_y;
  std::unordered_map<std::uint64_t, double> measured_hash;  // binary -> y
  std::unordered_set<std::uint64_t> observed_features;
  double best_y = 1.0;  ///< normalised runtime; -O3 (1.0) always available
  double model_seconds = 0.0;
  TuneResult result;
  int budget_used = 0;
  std::size_t mod_rr = 0;   ///< phase-1 round-robin cursor
  int p1_attempts = 0;      ///< phase-1 attempt counter (safety valve)
  int iter = 0;             ///< phase-2 iteration counter
  int stall = 0;            ///< iterations without a new measurement
  std::size_t fitted_points = 0;
  std::vector<std::size_t> active;
  std::unique_ptr<gp::GaussianProcess> model;
  InputScaler scaler;
  YeoJohnson yj;
  std::vector<Vec> unit_x;  ///< projected+scaled copies of data_x
  Vec ty;                   ///< transformed copies of data_y

  Stopwatch model_clock;  ///< scratch timer, not state

  Impl(sim::Evaluator& e, const CitroenConfig& c,
       const std::vector<std::string>& m, const std::function<bool()>& skip)
      : eval(e),
        config(c),
        modules(m),
        skip_hyper_refits(skip),
        num_passes(static_cast<int>(c.pass_space.size())),
        seq_feat(num_passes, c.max_seq_len),
        need_program(c.features == CitroenConfig::Features::Autophase),
        rng(c.seed) {
    // Per-module heuristic state.
    // One arm per tuned module, plus a "joint" arm whose candidates apply
    // the same sequence to every tuned module (the classic whole-program
    // search the baselines perform). The joint arm captures correlated
    // wins cheaply; the per-module arms refine beyond them.
    std::map<std::string, double> frac;
    for (const auto& [n, f] : eval.hot_modules()) frac[n] = f;
    for (const auto& name : modules)
      mods.emplace_back(name, frac[name], num_passes, config.max_seq_len);
    if (modules.size() > 1)
      mods.emplace_back(kJoint, 1.0, num_passes, config.max_seq_len);

    // Feature extraction plumbing.
    for (const auto& mod : modules) {
      const std::vector<std::string>* base = nullptr;
      std::vector<std::string> seq_names;
      if (config.features == CitroenConfig::Features::Stats) {
        base = &stats_feat.keys();
      } else if (config.features == CitroenConfig::Features::Autophase) {
        base = &AutophaseFeatures::names();
      } else {
        for (int p = 0; p < num_passes; ++p)
          seq_names.push_back(
              "count_" + config.pass_space[static_cast<std::size_t>(p)]);
        for (int p = 0; p < num_passes; ++p)
          seq_names.push_back(
              "pos_" + config.pass_space[static_cast<std::size_t>(p)]);
        base = &seq_names;
      }
      for (const auto& k : *base) feature_names.push_back(mod + "/" + k);
    }
    feat_dim = feature_names.size();

    // Warm-start transfer: seed the model with observations from another
    // program's run (dimensions must match; see CitroenConfig::warm_start).
    for (const auto& [wf, wy] : config.warm_start) {
      if (wf.size() == feat_dim) {
        data_x.push_back(wf);
        data_y.push_back(wy);
        observed_features.insert(feature_hash(wf));
      }
    }

    // Corpus seed sequences: resolve names against this run's modules and
    // pass space; entries that no longer resolve are dropped (they would
    // only have been measured anyway, never trusted unmeasured).
    for (const auto& [mod_name, pass_names] : config.seed_sequences) {
      std::size_t mi = mods.size();
      for (std::size_t i = 0; i < mods.size(); ++i)
        if (mods[i].name == mod_name) mi = i;
      if (mi == mods.size()) continue;
      Sequence s;
      for (const auto& pn : pass_names)
        for (int p = 0; p < num_passes; ++p)
          if (config.pass_space[static_cast<std::size_t>(p)] == pn) {
            s.push_back(p);
            break;
          }
      if (s.empty()) continue;
      if (static_cast<int>(s.size()) > config.max_seq_len)
        s.resize(static_cast<std::size_t>(config.max_seq_len));
      seeds.emplace_back(mi, std::move(s));
    }
  }

  // Modules without an adopted incumbent stay at the evaluator's -O3
  // default (absent from the assignment map). The joint pseudo-target
  // applies the candidate to every tuned module.
  sim::SequenceAssignment assignment_for(const std::string& target,
                                         const Sequence& candidate) const {
    sim::SequenceAssignment a;
    for (const auto& ms : mods) {
      if (ms.name == kJoint) continue;
      if (target == kJoint || ms.name == target) {
        a[ms.name] = to_names(candidate, config.pass_space);
      } else if (ms.has_incumbent) {
        a[ms.name] = to_names(ms.incumbent, config.pass_space);
      }
    }
    return a;
  }

  Vec extract_features(const sim::CompileOutcome& co,
                       const sim::SequenceAssignment& assign) const {
    Vec f;
    f.reserve(feat_dim);
    for (const auto& mname : modules) {
      Vec part;
      switch (config.features) {
        case CitroenConfig::Features::Stats: {
          const auto it = co.module_stats.find(mname);
          part = stats_feat.extract(it == co.module_stats.end()
                                        ? passes::StatsRegistry{}
                                        : it->second);
          break;
        }
        case CitroenConfig::Features::Autophase: {
          const ir::Module* m =
              co.program ? co.program->find_module(mname) : nullptr;
          part = m ? AutophaseFeatures::extract(*m)
                   : Vec(AutophaseFeatures::dim(), 0.0);
          break;
        }
        case CitroenConfig::Features::RawSequence: {
          Sequence s;
          const auto it = assign.find(mname);
          if (it != assign.end()) {
            for (const auto& pname : it->second) {
              for (int p = 0; p < num_passes; ++p) {
                if (config.pass_space[static_cast<std::size_t>(p)] == pname)
                  s.push_back(p);
              }
            }
          }
          part = seq_feat.extract(s);
          break;
        }
      }
      f.insert(f.end(), part.begin(), part.end());
    }
    return f;
  }

  void record(const std::string& target, const Sequence& cand,
              const Vec& features, double y, bool counts_budget) {
    if (counts_budget) {
      // The reported best is the curve's last value, so the reported
      // assignment moves exactly when the curve rises: it then always
      // rebuilds to the reported speedup, even when nothing beats -O3.
      if (result.speedup_curve.empty() ||
          1.0 / y > result.speedup_curve.back())
        result.best_assignment = assignment_for(target, cand);
      result.speedup_curve.push_back(
          std::max(result.speedup_curve.empty()
                       ? 0.0
                       : result.speedup_curve.back(),
                   1.0 / y));
      ++result.measurements_per_module[target];
    }
    data_x.push_back(features);
    data_y.push_back(y);
    observed_features.insert(feature_hash(features));
    for (auto& ms : mods) {
      if (ms.name != target) continue;
      ms.des.tell(cand, y);
      ms.ga.tell(cand, y);
      if (counts_budget) ++ms.measurements;
      if (y < best_y) {
        const double gain = (best_y - y) / best_y;
        ms.gain = 0.5 * ms.gain + 0.5 * gain;
        best_y = y;
        if (target == kJoint) {
          // A joint win re-seeds every per-module incumbent.
          for (auto& other : mods) {
            if (other.name == kJoint) continue;
            other.incumbent = cand;
            other.has_incumbent = true;
          }
        }
        ms.incumbent = cand;
        ms.has_incumbent = true;
      } else {
        ms.gain *= 0.8;
      }
    }
  }

  bool measure(const std::string& target, const Sequence& cand,
               const Vec& features, std::uint64_t binary_hash) {
    const auto out = eval.evaluate(assignment_for(target, cand));
    double y;
    if (!out.valid) {
      ++result.invalid;
      ++result.failure_counts[sim::failure_kind_name(out.failure)];
      y = 4.0;  // a rejected build is treated as a very slow binary
    } else {
      y = 1.0 / out.speedup;
    }
    measured_hash[binary_hash] = y;
    record(target, cand, features, y, /*counts_budget=*/!out.cache_hit);
    if (out.cache_hit) ++result.cache_hits;
    return !out.cache_hit;
  }

  // The raw feature space is wide (stats vocabulary x modules) but most
  // counters never move for a given program; the model is fit only on
  // the *active* dimensions (those with observed variance), which makes
  // the ARD fit both sharper and cheaper.
  void recompute_active() {
    active.clear();
    for (std::size_t d = 0; d < feat_dim; ++d) {
      const double first = data_x[0][d];
      for (const auto& f : data_x) {
        if (f[d] != first) {
          active.push_back(d);
          break;
        }
      }
    }
    if (active.empty()) active.push_back(0);
  }

  Vec project(const Vec& f) const {
    Vec out(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) out[i] = f[active[i]];
    return out;
  }

  // ---- phase 1: random initial design -----------------------------------
  /// One random attempt; false when the phase is over.
  bool step_initial_random() {
    if (budget_used >= std::min(config.initial_random, config.budget) ||
        p1_attempts >= config.budget * 20)
      return false;
    // The first attempts measure corpus-transferred seeds instead of
    // random sequences. Seeded attempts consume no RNG draws and leave
    // the round-robin cursor alone, so with no seeds this phase is
    // byte-identical to a corpus-free build, and the seed cursor
    // (p1_attempts) is already checkpointed.
    const auto seed_ix = static_cast<std::size_t>(p1_attempts);
    ++p1_attempts;
    ModuleState* msp;
    Sequence cand;
    if (seed_ix < seeds.size()) {
      msp = &mods[seeds[seed_ix].first];
      cand = seeds[seed_ix].second;
    } else {
      msp = &mods[mod_rr % mods.size()];
      ++mod_rr;
      cand = heuristics::random_sequence(num_passes, config.max_seq_len, rng);
    }
    auto& ms = *msp;
    const auto assign = assignment_for(ms.name, cand);
    if (eval.is_quarantined(assign)) {
      ++result.quarantined_skipped;
      return true;
    }
    const auto co = eval.compile(assign, need_program);
    ++result.compiles;
    if (!co.valid) return true;
    const Vec features = extract_features(co, assign);
    if (measure(ms.name, cand, features, co.binary_hash)) ++budget_used;
    return true;
  }

  // ---- phase 2: model-guided search --------------------------------------
  /// One full iteration (fit, select, propose, compile, measure winner);
  /// false when the budget or the iteration safety valve is exhausted.
  bool step_model_guided() {
    if (budget_used >= config.budget || iter >= config.budget * 10 ||
        data_x.empty())
      return false;
    ++iter;
    // Fit the cost model (skip the refit when no new data arrived). A
    // refit can fail numerically (degenerate kernel matrix, non-finite
    // likelihood); the tuner then discards the model and degrades to
    // random proposals for the round instead of dying mid-run.
    model_clock.reset();
    // "model_update" brackets exactly the regions model_clock charges to
    // model_seconds, so fig5_12's span-derived breakdown matches the
    // tuner's own accounting (gp_fit spans nest inside it).
    if (obs::trace_enabled()) obs::emit('B', "model_update", "tuner");
    if (data_x.size() != fitted_points || !model) {
      const std::vector<std::size_t> prev_active = active;
      recompute_active();
      bool hyper_round = iter % config.refit_period == 1 ||
                         active.size() != prev_active.size();
      // Deadline degradation: with the wall clock nearly spent, an
      // optional Adam hyper-fit is the first work to shed. Skipping it
      // only switches which fit path runs, so a checkpoint taken at the
      // next step boundary stays exactly replayable.
      if (hyper_round && skip_hyper_refits && skip_hyper_refits())
        hyper_round = false;
      bool fitted = false;
      // Incremental refresh (refactor-only rounds with an unchanged
      // active set): freeze the input/output transforms, transform only
      // the observations appended since the last fit, and let the GP
      // extend its Cholesky factor rank-one instead of refitting.
      if (config.incremental_gp && model && !hyper_round &&
          fitted_points > 0 && data_x.size() > fitted_points &&
          active == prev_active && unit_x.size() == fitted_points) {
        for (std::size_t i = unit_x.size(); i < data_x.size(); ++i)
          unit_x.push_back(scaler.to_unit(project(data_x[i])));
        while (ty.size() < data_y.size())
          ty.push_back(yj.transform(data_y[ty.size()]));
        model->set_fit_hypers(false);
        try {
          model->fit(unit_x, ty);
          if (!std::isfinite(model->log_marginal_likelihood()))
            throw std::runtime_error("non-finite log marginal likelihood");
          fitted_points = data_x.size();
          fitted = true;
        } catch (const std::exception&) {
          ++result.gp_fit_failures;
          model.reset();
        }
      }
      if (!fitted) {
        std::vector<Vec> px;
        px.reserve(data_x.size());
        for (const auto& f : data_x) px.push_back(project(f));
        scaler.fit(px);
        unit_x.clear();
        unit_x.reserve(px.size());
        for (const auto& f : px) unit_x.push_back(scaler.to_unit(f));
        yj.fit(data_y);
        ty = yj.transform(data_y);
        if (!model || active.size() != prev_active.size())
          model = std::make_unique<gp::GaussianProcess>(active.size(),
                                                        config.gp);
        // Full hyper-parameter refit only every `refit_period` iterations;
        // in between, the learned hypers are kept and only the Cholesky
        // factorisation is refreshed with the new data.
        model->set_fit_hypers(hyper_round);
        try {
          model->fit(unit_x, ty);
          if (!std::isfinite(model->log_marginal_likelihood()))
            throw std::runtime_error("non-finite log marginal likelihood");
          fitted_points = data_x.size();
        } catch (const std::exception&) {
          ++result.gp_fit_failures;
          model.reset();
        }
      }
    }
    std::unique_ptr<af::Acquisition> acq;
    if (model) {
      double best_ty = ty[0];
      for (double v : ty) best_ty = std::min(best_ty, v);
      acq = std::make_unique<af::Acquisition>(model.get(), config.af,
                                              best_ty);
    } else {
      ++result.random_fallback_rounds;
    }
    model_seconds += model_clock.seconds();
    if (obs::trace_enabled()) obs::emit('E', "model_update", "tuner");

    // Module selection: UCB bandit over expected payoff.
    std::size_t chosen = 0;
    if (config.adaptive_allocation) {
      double best_score = -1e300;
      double total = 0.0;
      for (const auto& ms : mods) total += ms.measurements + 1.0;
      for (std::size_t i = 0; i < mods.size(); ++i) {
        const auto& ms = mods[i];
        const double explore =
            config.bandit_explore *
            std::sqrt(std::log(total + 1.0) / (ms.measurements + 1.0));
        const double score = ms.hot_fraction * (ms.gain + explore);
        if (score > best_score) {
          best_score = score;
          chosen = i;
        }
      }
    } else {
      chosen = static_cast<std::size_t>(iter) % mods.size();
    }
    auto& ms = mods[chosen];

    // Candidate generation (Sec. 5.3.5). When recent iterations kept
    // hitting already-measured binaries, lean harder on fresh random
    // sequences to escape the collapsed neighbourhood.
    std::vector<Sequence> cands;
    if (config.heuristic_generator && stall < 3) {
      OBS_SPAN("es_ask", "tuner");
      const int per = std::max(1, config.candidates_per_iter / 3);
      for (auto& c : ms.des.ask(per, rng)) cands.push_back(std::move(c));
      for (auto& c : ms.ga.ask(per, rng)) cands.push_back(std::move(c));
      for (int i = 0; i < config.candidates_per_iter - 2 * per; ++i)
        cands.push_back(heuristics::random_sequence(
            num_passes, config.max_seq_len, rng));
    } else {
      for (int i = 0; i < config.candidates_per_iter; ++i)
        cands.push_back(heuristics::random_sequence(
            num_passes, config.max_seq_len, rng));
    }

    // Compile all candidates; score with AF + coverage. The batch of
    // assignments is prefetched first (compile-only), so the prefix
    // cache compiles shared-prefix pipelines concurrently; the serial
    // loop below then resolves each compile from the warm cache with
    // results identical to compiling serially.
    std::vector<sim::SequenceAssignment> assigns;
    assigns.reserve(cands.size());
    for (const auto& cand : cands)
      assigns.push_back(assignment_for(ms.name, cand));
    eval.prefetch(assigns, /*with_measure=*/false);

    struct Scored {
      Sequence cand;
      Vec features;
      std::uint64_t hash;
      double score;
    };
    std::vector<Scored> pool;
    for (std::size_t ci = 0; ci < cands.size(); ++ci) {
      auto& cand = cands[ci];
      const auto& assign = assigns[ci];
      // Known deterministic failures (from the hardened evaluator's
      // quarantine set) are not worth a compile, let alone a measurement.
      if (eval.is_quarantined(assign)) {
        ++result.quarantined_skipped;
        continue;
      }
      const auto co = eval.compile(assign, need_program);
      ++result.compiles;
      if (!co.valid) continue;
      Vec features = extract_features(co, assign);

      // Identical binary already measured: learn for free, skip selection.
      // The free data is capped so degenerate programs (where most random
      // sequences collapse to few binaries) cannot blow up the GP fit.
      const auto known = measured_hash.find(co.binary_hash);
      if (known != measured_hash.end()) {
        if (data_x.size() < static_cast<std::size_t>(4 * config.budget)) {
          record(ms.name, cand, features, known->second,
                 /*counts_budget=*/false);
        }
        ++result.cache_hits;
        continue;
      }

      model_clock.reset();
      if (obs::trace_enabled()) obs::emit('B', "acq_score", "tuner");
      double score;
      const std::uint64_t fh = feature_hash(features);
      if (observed_features.count(fh)) ++result.feature_collisions;
      if (acq) {
        const Vec u = scaler.to_unit(project(features));
        score = acq->value(u);
        if (config.coverage_af) {
          // Coverage bonus: distance to the nearest observed feature point
          // (unit scale), pushing sampling into unobserved statistics
          // regions; zero for exact collisions.
          double nearest = 1e300;
          for (const auto& o : unit_x) {
            double d2 = 0.0;
            for (std::size_t k = 0; k < u.size(); ++k) {
              const double t = u[k] - o[k];
              d2 += t * t;
            }
            nearest = std::min(nearest, d2);
          }
          score += config.coverage_weight *
                   std::sqrt(nearest / static_cast<double>(active.size()));
        }
      } else {
        // No trustworthy model this round: degrade to a random pick
        // among the compilable candidates.
        score = rng.uniform();
      }
      model_seconds += model_clock.seconds();
      if (obs::trace_enabled()) obs::emit('E', "acq_score", "tuner");
      pool.push_back(Scored{std::move(cand), std::move(features),
                            co.binary_hash, score});
    }

    if (pool.empty()) {
      ++stall;  // everything deduped this round; retry with more entropy
      return true;
    }

    auto winner = std::max_element(
        pool.begin(), pool.end(),
        [](const Scored& a, const Scored& b) { return a.score < b.score; });
    if (measure(ms.name, winner->cand, winner->features, winner->hash)) {
      ++budget_used;
      stall = 0;
    } else {
      ++stall;
    }
    return true;
  }

  bool step() {
    OBS_SPAN("tuner_step", "tuner");
    OBS_COUNTER_INC("citroen_tuner_steps_total");
    if (phase == Phase::InitialRandom) {
      if (step_initial_random()) return true;
      phase = Phase::ModelGuided;
    }
    return step_model_guided();
  }

  TuneResult finish() const {
    TuneResult out = result;
    out.measurements = budget_used;
    for (std::size_t i = 0; i < data_x.size(); ++i)
      out.observations.emplace_back(data_x[i], data_y[i]);
    out.best_speedup =
        out.speedup_curve.empty() ? 0.0 : out.speedup_curve.back();
    out.model_seconds = model_seconds;
    out.compile_seconds = eval.total_compile_seconds();
    out.measure_seconds = eval.total_measure_seconds();

    // Table 5.5: rank the active features by ARD relevance.
    if (model) {
      const Vec ls = model->lengthscales();
      for (std::size_t i = 0; i < active.size() && i < ls.size(); ++i)
        out.stat_relevance.emplace_back(feature_names[active[i]],
                                        1.0 / ls[i]);
      std::sort(out.stat_relevance.begin(), out.stat_relevance.end(),
                [](const auto& a, const auto& b) {
                  return a.second > b.second;
                });
    }
    return out;
  }

  // ---- checkpointing ------------------------------------------------------

  void save_state(persist::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(phase));
    persist::put(w, rng);
    w.u64(mods.size());
    for (const auto& ms : mods) {
      w.str(ms.name);
      w.f64(ms.hot_fraction);
      persist::put(w, ms.incumbent);
      w.b(ms.has_incumbent);
      persist::put(w, ms.des.incumbent());
      w.f64(ms.des.incumbent_value());
      w.u64(ms.ga.population().size());
      for (const auto& [seq, y] : ms.ga.population()) {
        persist::put(w, seq);
        w.f64(y);
      }
      w.i32(ms.measurements);
      w.f64(ms.gain);
    }
    persist::put(w, data_x);
    persist::put(w, data_y);
    {
      std::vector<std::uint64_t> keys;
      keys.reserve(measured_hash.size());
      for (const auto& [k, _] : measured_hash) keys.push_back(k);
      std::sort(keys.begin(), keys.end());
      w.u64(keys.size());
      for (const std::uint64_t k : keys) {
        w.u64(k);
        w.f64(measured_hash.at(k));
      }
    }
    {
      std::vector<std::uint64_t> feats(observed_features.begin(),
                                       observed_features.end());
      std::sort(feats.begin(), feats.end());
      persist::put(w, feats);
    }
    w.f64(best_y);
    w.f64(model_seconds);
    put(w, result);
    w.i32(budget_used);
    w.u64(mod_rr);
    w.i32(p1_attempts);
    w.i32(iter);
    w.i32(stall);
    w.u64(fitted_points);
    {
      std::vector<std::uint64_t> act(active.begin(), active.end());
      persist::put(w, act);
    }
    persist::put(w, scaler.lower());
    persist::put(w, scaler.upper());
    w.f64(yj.lambda());
    w.f64(yj.mean());
    w.f64(yj.stddev());
    persist::put(w, unit_x);
    persist::put(w, ty);
    w.b(model != nullptr);
    if (model) model->save_state(w);
  }

  void load_state(persist::Reader& r) {
    phase = static_cast<Phase>(r.u8());
    persist::get(r, rng);
    const std::uint64_t nmods = r.u64();
    if (nmods != mods.size())
      throw std::runtime_error("citroen: checkpoint module-count mismatch");
    for (auto& ms : mods) {
      const std::string name = r.str();
      if (name != ms.name)
        throw std::runtime_error("citroen: checkpoint module-name mismatch");
      ms.hot_fraction = r.f64();
      persist::get(r, ms.incumbent);
      ms.has_incumbent = r.b();
      Sequence des_best;
      persist::get(r, des_best);
      const double des_y = r.f64();
      ms.des.set_incumbent(std::move(des_best), des_y);
      const std::uint64_t npop = r.u64();
      std::vector<std::pair<Sequence, double>> pop;
      pop.reserve(npop);
      for (std::uint64_t i = 0; i < npop; ++i) {
        Sequence seq;
        persist::get(r, seq);
        const double y = r.f64();
        pop.emplace_back(std::move(seq), y);
      }
      ms.ga.set_population(std::move(pop));
      ms.measurements = r.i32();
      ms.gain = r.f64();
    }
    persist::get(r, data_x);
    persist::get(r, data_y);
    measured_hash.clear();
    const std::uint64_t nmeas = r.u64();
    for (std::uint64_t i = 0; i < nmeas; ++i) {
      const std::uint64_t k = r.u64();
      measured_hash[k] = r.f64();
    }
    {
      std::vector<std::uint64_t> feats;
      persist::get(r, feats);
      observed_features.clear();
      observed_features.insert(feats.begin(), feats.end());
    }
    best_y = r.f64();
    model_seconds = r.f64();
    get(r, result);
    budget_used = r.i32();
    mod_rr = static_cast<std::size_t>(r.u64());
    p1_attempts = r.i32();
    iter = r.i32();
    stall = r.i32();
    fitted_points = static_cast<std::size_t>(r.u64());
    {
      std::vector<std::uint64_t> act;
      persist::get(r, act);
      active.assign(act.begin(), act.end());
    }
    Vec lower, upper;
    persist::get(r, lower);
    persist::get(r, upper);
    scaler = InputScaler(std::move(lower), std::move(upper));
    const double lambda = r.f64();
    const double mean = r.f64();
    const double stddev = r.f64();
    yj.set_params(lambda, mean, stddev);
    persist::get(r, unit_x);
    persist::get(r, ty);
    if (r.b()) {
      model = std::make_unique<gp::GaussianProcess>(active.size(), config.gp);
      model->load_state(r);
    } else {
      model.reset();
    }
  }
};

// ---- public API -------------------------------------------------------------

std::vector<std::string> select_hot_modules(const sim::Evaluator& evaluator,
                                            const CitroenConfig& config) {
  // Hot-module selection (Sec. 5.3.1): cover `hot_threshold` of runtime.
  std::vector<std::string> modules;
  double covered = 0.0;
  for (const auto& [name, frac] : evaluator.hot_modules()) {
    if (covered >= config.hot_threshold ||
        static_cast<int>(modules.size()) >= config.max_hot_modules)
      break;
    // The driver module is never tuned (it only dispatches).
    if (name == "driver") continue;
    modules.push_back(name);
    covered += frac;
  }
  if (modules.empty()) modules.push_back(evaluator.hot_modules()[0].first);
  std::sort(modules.begin(), modules.end());
  return modules;
}

CitroenTuner::CitroenTuner(sim::Evaluator& evaluator, CitroenConfig config)
    : eval_(evaluator), config_(std::move(config)) {
  if (config_.pass_space.empty())
    config_.pass_space = passes::PassRegistry::instance().pass_names();
  modules_ = select_hot_modules(eval_, config_);
}

CitroenTuner::~CitroenTuner() = default;

void CitroenTuner::start() {
  impl_ = std::make_unique<Impl>(eval_, config_, modules_, skip_hyper_refits_);
}

bool CitroenTuner::step() {
  if (!impl_) start();
  return impl_->step();
}

TuneResult CitroenTuner::finish() const {
  if (!impl_) return TuneResult{};
  return impl_->finish();
}

void CitroenTuner::save_state(persist::Writer& w) const {
  if (!impl_)
    throw std::runtime_error("citroen: save_state before start()");
  impl_->save_state(w);
}

void CitroenTuner::load_state(persist::Reader& r) {
  start();
  impl_->load_state(r);
}

TuneResult CitroenTuner::run() {
  start();
  while (step()) {
  }
  return finish();
}

}  // namespace citroen::core

#include "sim/robust_evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "persist/codec.hpp"
#include "support/statistics.hpp"

namespace citroen::sim {

void QuarantineSet::set_cap(std::size_t cap) {
  cap_ = cap;
  while (cap_ > 0 && index_.size() > cap_) {
    index_.erase(order_.back().first);
    order_.pop_back();
    ++evictions_;
  }
}

void QuarantineSet::insert(std::uint64_t sig, FailureKind kind) {
  const auto it = index_.find(sig);
  if (it != index_.end()) {
    it->second->second = kind;
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  order_.emplace_front(sig, kind);
  index_[sig] = order_.begin();
  while (cap_ > 0 && index_.size() > cap_) {
    index_.erase(order_.back().first);
    order_.pop_back();
    ++evictions_;
  }
}

const FailureKind* QuarantineSet::peek(std::uint64_t sig) const {
  const auto it = index_.find(sig);
  return it == index_.end() ? nullptr : &it->second->second;
}

const FailureKind* QuarantineSet::touch(std::uint64_t sig) {
  const auto it = index_.find(sig);
  if (it == index_.end()) return nullptr;
  order_.splice(order_.begin(), order_, it->second);
  return &it->second->second;
}

void QuarantineSet::save(persist::Writer& w) const {
  w.u64(index_.size());
  for (const auto& [sig, kind] : order_) {
    w.u64(sig);
    w.u8(static_cast<std::uint8_t>(kind));
  }
  w.u64(evictions_);
}

void QuarantineSet::load(persist::Reader& r) {
  order_.clear();
  index_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t sig = r.u64();
    const auto kind = static_cast<FailureKind>(r.u8());
    // Stored MRU-first; appending at the back reproduces the order.
    order_.emplace_back(sig, kind);
    index_[sig] = std::prev(order_.end());
  }
  evictions_ = r.u64();
  set_cap(cap_);  // a cap lowered since the save applies on restore
}

RobustEvaluator::RobustEvaluator(Evaluator& base, RobustConfig config,
                                 const FaultInjector* injector)
    : ForwardingEvaluator(base), config_(config), injector_(injector),
      quarantine_(config.quarantine_cap) {
  inner_.set_fault_injector(injector_);
}

RobustEvaluator::~RobustEvaluator() { inner_.set_fault_injector(nullptr); }

CompileOutcome RobustEvaluator::compile(const SequenceAssignment& seqs,
                                        bool keep_program) const {
  CompileOutcome co = inner_.compile(seqs, keep_program);
  for (int r = 0; r < config_.max_retries && !co.valid && co.transient; ++r) {
    ++stats_.retries;
    co = inner_.compile(seqs, keep_program);
  }
  return co;
}

bool RobustEvaluator::is_quarantined(const SequenceAssignment& seqs) const {
  return config_.quarantine &&
         quarantine_.peek(assignment_signature(seqs)) != nullptr;
}

void RobustEvaluator::prefetch(std::span<const SequenceAssignment> batch,
                               bool with_measure) {
  // Skip candidates the serial replay will answer from quarantine without
  // touching the base evaluator. A candidate that *becomes* quarantined
  // mid-batch merely wastes its prefetched work — the serial replay still
  // short-circuits it, so results are unaffected.
  std::vector<SequenceAssignment> live;
  live.reserve(batch.size());
  for (const auto& seqs : batch)
    if (!is_quarantined(seqs)) live.push_back(seqs);
  inner_.prefetch(live, with_measure);
}

double RobustEvaluator::aggregate(std::vector<double>& samples) const {
  if (samples.size() == 1) return samples[0];
  if (config_.trim_fraction <= 0.0) return median(samples);
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t k = static_cast<std::size_t>(
      std::floor(config_.trim_fraction * static_cast<double>(n)));
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = k; i + k < n; ++i) {
    sum += samples[i];
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : median(samples);
}

double RobustEvaluator::dispersion(std::vector<double> samples) const {
  if (samples.size() < 2) return 0.0;
  const double med = median(samples);
  if (med <= 0.0) return 0.0;
  for (auto& v : samples) v = std::abs(v - med);
  return median(samples) / med;  // relative MAD
}

EvalOutcome RobustEvaluator::evaluate(const SequenceAssignment& seqs) {
  const std::uint64_t sig = assignment_signature(seqs);
  if (config_.quarantine) {
    if (const FailureKind* q = quarantine_.touch(sig)) {
      // Known deterministic failure: answer from the quarantine set for
      // free. `cache_hit` tells callers no budget was spent.
      ++stats_.quarantine_hits;
      EvalOutcome out;
      out.failure = *q;
      out.why_invalid = std::string("quarantined: known deterministic ") +
                        failure_kind_name(*q);
      out.cache_hit = true;
      out.attempts = 0;
      return out;
    }
  }

  ++stats_.evaluations;
  EvalOutcome out;
  int attempt = 0;
  // Bounded retry for transient failures. On real hardware each retry
  // would back off before re-submitting; in the deterministic sim the
  // backoff has no one to yield to, but every attempt is still charged.
  for (;;) {
    out = inner_.evaluate(seqs);
    ++stats_.attempts;
    if (out.valid || !out.transient || attempt >= config_.max_retries) break;
    ++attempt;
    ++stats_.retries;
  }
  out.attempts = attempt + 1;

  if (!out.valid) {
    ++stats_.failures[failure_kind_name(out.failure)];
    if (config_.quarantine && !out.transient &&
        out.failure != FailureKind::None) {
      quarantine_.insert(sig, out.failure);
    }
    return out;
  }

  // Replicated measurement under injected noise. The base evaluator's
  // cycles are the noise-free ground truth; each replicate is a fresh
  // deterministic noise draw keyed by a per-binary counter.
  const bool noisy = injector_ && (injector_->plan().noise_sigma > 0.0 ||
                                   injector_->plan().outlier_rate > 0.0);
  if (noisy) {
    auto& ctr = replicate_counter_[out.binary_hash];
    const double truth = out.cycles;
    std::vector<double> samples;
    const int reps = std::max(1, config_.replicates);
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r)
      samples.push_back(injector_->perturb(truth, out.binary_hash, ctr++));
    double agg = aggregate(samples);
    double speedup = agg > 0.0 ? o3_cycles() / agg : 0.0;

    // Adaptive re-measurement: when the aggregate lands near the
    // incumbent, rankings are decided inside the noise band — buy extra
    // replicates exactly there.
    int extra = 0;
    while (extra < config_.max_extra_replicates &&
           best_speedup_seen_ > 0.0 &&
           std::abs(speedup - best_speedup_seen_) <=
               config_.near_incumbent_margin * best_speedup_seen_) {
      samples.push_back(injector_->perturb(truth, out.binary_hash, ctr++));
      ++extra;
      ++stats_.remeasurements;
      agg = aggregate(samples);
      speedup = agg > 0.0 ? o3_cycles() / agg : 0.0;
    }

    if (dispersion(samples) > config_.noisy_reject_mad) {
      // Even the robust aggregate is untrustworthy; reject rather than
      // feed a garbage observation to the cost model. Noise is transient
      // by nature, so the signature is NOT quarantined.
      out.valid = false;
      out.cycles = 0.0;
      out.speedup = 0.0;
      out.transient = true;
      out.failure = FailureKind::NoisyRejected;
      out.why_invalid = "measurement rejected: replicate spread too large";
      ++stats_.failures[failure_kind_name(out.failure)];
      return out;
    }
    out.cycles = agg;
    out.speedup = speedup;
  }

  ++stats_.valid;
  best_speedup_seen_ = std::max(best_speedup_seen_, out.speedup);
  return out;
}

void RobustEvaluator::save_state(persist::Writer& w) const {
  auto sorted_keys = [](const auto& m) {
    std::vector<std::uint64_t> keys;
    keys.reserve(m.size());
    for (const auto& [k, _] : m) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  quarantine_.save(w);
  const auto rkeys = sorted_keys(replicate_counter_);
  w.u64(rkeys.size());
  for (const std::uint64_t k : rkeys) {
    w.u64(k);
    w.u64(replicate_counter_.at(k));
  }
  w.i32(stats_.evaluations);
  w.i32(stats_.attempts);
  w.i32(stats_.retries);
  w.i32(stats_.quarantine_hits);
  w.i32(stats_.remeasurements);
  w.i32(stats_.valid);
  persist::put(w, stats_.failures);
  w.f64(best_speedup_seen_);
}

void RobustEvaluator::load_state(persist::Reader& r) {
  replicate_counter_.clear();
  quarantine_.load(r);
  const std::uint64_t nr = r.u64();
  for (std::uint64_t i = 0; i < nr; ++i) {
    const std::uint64_t k = r.u64();
    replicate_counter_[k] = r.u64();
  }
  stats_ = RobustStats{};
  stats_.evaluations = r.i32();
  stats_.attempts = r.i32();
  stats_.retries = r.i32();
  stats_.quarantine_hits = r.i32();
  stats_.remeasurements = r.i32();
  stats_.valid = r.i32();
  persist::get(r, stats_.failures);
  best_speedup_seen_ = r.f64();
}

}  // namespace citroen::sim

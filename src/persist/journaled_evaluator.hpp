#pragma once
// Write-ahead journaling decorator over `sim::Evaluator`.
//
// Every `evaluate` call is recorded as (index, assignment, outcome) and
// pushed through the owning RunSession *after* the inner evaluator ran —
// during replay the push byte-verifies the recomputed record against the
// journal; past the recovered tail it appends and fsyncs on the session's
// cadence. Compile-only calls and prefetches are pure (memoized) work and
// are not journaled.
//
// Header-only so the persist library needs no link dependency on sim;
// only translation units that already use both pay for the include.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "passes/pass.hpp"
#include "persist/codec.hpp"
#include "persist/run_session.hpp"
#include "sim/evaluator.hpp"

namespace citroen::persist {

/// Journal record tags. Eval records come from JournaledEvaluator;
/// Sample records are continuous-domain (x, y) observations journaled by
/// the AIBO runner, which evaluates synthetic objectives directly.
inline constexpr std::uint8_t kRecordEval = 1;
inline constexpr std::uint8_t kRecordSample = 2;

/// Pass sequences dominate journal bytes (a length-prefixed string per
/// pass), and the journal is on the per-evaluation hot path. Encode each
/// pass as its dense registry id in two bytes instead; 0xFFFF escapes to
/// a literal string for names outside the registry. Registry order is
/// compiled in, so a resumed process decodes ids identically — and a
/// build whose registry changed surfaces as replay divergence, which the
/// session already handles by rebasing.
inline void put_compact_assignment(Writer& w,
                                   const sim::SequenceAssignment& a) {
  const auto& reg = passes::PassRegistry::instance();
  w.u64(a.size());
  for (const auto& [module, seq] : a) {
    w.str(module);
    w.u32(static_cast<std::uint32_t>(seq.size()));
    for (const auto& name : seq) {
      const int id = reg.id_of(name);
      if (id >= 0 && id < 0xFFFF) {
        w.u8(static_cast<std::uint8_t>(id & 0xFF));
        w.u8(static_cast<std::uint8_t>(id >> 8));
      } else {
        w.u8(0xFF);
        w.u8(0xFF);
        w.str(name);
      }
    }
  }
}

inline void get_compact_assignment(Reader& r, sim::SequenceAssignment& a) {
  const auto& reg = passes::PassRegistry::instance();
  a.clear();
  const std::uint64_t modules = r.u64();
  for (std::uint64_t m = 0; m < modules; ++m) {
    const std::string module = r.str();
    auto& seq = a[module];
    const std::uint32_t n = r.u32();
    seq.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t id =
          std::uint32_t{r.u8()} | (std::uint32_t{r.u8()} << 8);
      if (id == 0xFFFF) {
        seq.push_back(r.str());
      } else {
        if (id >= reg.num_passes())
          throw std::runtime_error("persist: pass id out of range");
        seq.push_back(reg.name_of(static_cast<passes::PassId>(id)));
      }
    }
  }
}

inline std::string encode_eval_record(std::uint64_t index,
                                      const sim::SequenceAssignment& a,
                                      const sim::EvalOutcome& o) {
  Writer w;
  w.u8(kRecordEval);
  w.u64(index);
  put_compact_assignment(w, a);
  sim::put(w, o);
  return w.take();
}

inline std::string encode_sample_record(std::uint64_t index, const Vec& x,
                                        double y) {
  Writer w;
  w.u8(kRecordSample);
  w.u64(index);
  put(w, x);
  w.f64(y);
  return w.take();
}

class JournaledEvaluator final : public sim::ForwardingEvaluator {
 public:
  JournaledEvaluator(sim::Evaluator& inner, RunSession& session)
      : ForwardingEvaluator(inner), session_(session) {}

  sim::EvalOutcome evaluate(const sim::SequenceAssignment& seqs) override {
    const std::uint64_t index = session_.next_index();
    sim::EvalOutcome out = inner_.evaluate(seqs);
    session_.push(encode_eval_record(index, seqs, out));
    return out;
  }

 private:
  RunSession& session_;
};

}  // namespace citroen::persist

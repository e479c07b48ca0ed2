#pragma once
// Supervisor side of the out-of-process evaluation sandbox.
//
// `SandboxedEvaluator` decorates a `sim::ProgramEvaluator` with a pool
// of forked workers. Every candidate is first *vetted*: a worker
// executes the pure part of the evaluation (build + interpret,
// `ProgramEvaluator::pure_evaluate`) in its own address space, behind
// CRC-framed socketpair IPC, rlimit caps and a wall-clock deadline. Then:
//
//   - If the worker survives, the supervisor replays the normal
//     in-process path (`base.evaluate`/`base.compile`), with the
//     worker's interpreter runs pre-installed as a measurement memo —
//     exactly the mechanism batch prefetch already uses. All
//     order-sensitive state (fault-injector counters, the
//     identical-binary cache, accounting) therefore advances precisely
//     as it would without the sandbox, which is why sandboxed results
//     are byte-identical to in-process ones at any thread count.
//   - If the worker dies (signal, exit, corrupted frame) or blows its
//     deadline, the supervisor reaps it, captures a crash signature
//     (signal number + the pass active at death, via the shared
//     progress cell), synthesizes a WorkerCrash/WorkerTimeout/WorkerOOM
//     outcome, and never lets the lethal candidate touch the in-process
//     path. The RobustEvaluator layered on top quarantines it like any
//     other deterministic failure.
//
// Each worker is one lane of a `RemoteEngine` (sandbox/remote.hpp),
// which owns dispatch, deadlines and respawn backoff; this class keeps
// only the sandbox's policy: fork the lane, blame the candidate a lane
// dies on, and run a pool-wide circuit breaker — `breaker_threshold`
// consecutive deaths across all workers permanently degrade this
// evaluator to the plain in-process path (correct, merely uncontained —
// the bottom rung of the degradation ladder documented in DESIGN.md).
//
// Not thread-safe: one SandboxedEvaluator belongs to one run thread,
// like the ProgramEvaluator it wraps.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <sys/types.h>

#include "sandbox/protocol.hpp"
#include "sandbox/remote.hpp"
#include "sandbox/worker.hpp"
#include "sim/evaluator.hpp"

namespace citroen::sandbox {

struct SandboxConfig : RemoteConfig {
  /// Worker-pool size. <= 0 reads CITROEN_SANDBOX_WORKERS (default 2),
  /// clamped to [1, 16]: workers overlap with CITROEN_THREADS tuner
  /// threads, each of which owns its own pool.
  int workers = 0;
};

struct SandboxStats {
  std::uint64_t forks = 0;            ///< workers spawned (incl. respawns)
  std::uint64_t respawns = 0;         ///< spawns replacing a dead worker
  std::uint64_t jobs_dispatched = 0;
  std::uint64_t jobs_ok = 0;          ///< result frames with status Ok
  std::uint64_t jobs_oom = 0;         ///< contained OOMs (status Oom)
  std::uint64_t worker_crashes = 0;   ///< deaths classified WorkerCrash
  std::uint64_t worker_timeouts = 0;  ///< deaths classified WorkerTimeout
  std::uint64_t verdict_hits = 0;     ///< calls served from the verdict memo
  std::uint64_t breaker_trips = 0;
};

class SandboxedEvaluator final : public sim::ForwardingEvaluator {
 public:
  explicit SandboxedEvaluator(sim::ProgramEvaluator& base,
                              SandboxConfig config = {});
  ~SandboxedEvaluator() override;

  SandboxedEvaluator(const SandboxedEvaluator&) = delete;
  SandboxedEvaluator& operator=(const SandboxedEvaluator&) = delete;

  /// Records the injector for job frames (workers re-derive real-fault
  /// decisions from the plan, purely) and forwards it to the base.
  void set_fault_injector(const sim::FaultInjector* injector) override;

  sim::CompileOutcome compile(const sim::SequenceAssignment& seqs,
                              bool keep_program = false) const override;
  sim::EvalOutcome evaluate(const sim::SequenceAssignment& seqs) override;

  /// Vet the whole batch through the worker pool (pipelined across
  /// workers), then forward the survivors to the base prefetch. Lethal
  /// candidates are withheld from the base entirely.
  void prefetch(std::span<const sim::SequenceAssignment> batch,
                bool with_measure = true) override;

  SandboxStats sandbox_stats() const;
  /// Breaker tripped: everything now runs in-process, uncontained.
  bool degraded() const { return tripped_; }

 private:
  /// What the sandbox learned about a candidate signature. Fatal
  /// verdicts (kind != None) apply to compile and evaluate alike; an Ok
  /// verdict covers evaluate() only when `measured` (the vetting job
  /// also exercised the interpreter).
  struct Verdict {
    sim::FailureKind kind = sim::FailureKind::None;
    bool measured = false;
    std::string why;
  };

  /// Engine hooks: fork a worker onto lane `slot`; take a result; blame
  /// (or retry) the job of a lane that died.
  LaneFault spawn_worker(std::size_t slot, Lane& lane) const;
  void on_result(std::size_t job, SandboxResult& res) const;
  bool on_failure(const LaneFailure& f) const;

  /// SIGKILL and reap the worker on `slot` (if live); returns its status.
  int reap(std::size_t slot) const;
  std::string progress_signature(std::size_t slot) const;
  /// Insert into the verdict memo under the size cap: on overflow only
  /// vetted-Ok entries are shed — fatal verdicts stay authoritative for
  /// the life of the run (see compile()).
  void remember_verdict(std::uint64_t sig, Verdict v) const;
  const Verdict* find_verdict(std::uint64_t sig, bool need_measured) const;
  /// The fatal verdict for `seqs`, vetting it first when none is known.
  const Verdict* fatal_verdict(const sim::SequenceAssignment& seqs,
                               bool with_measure) const;
  /// Vet every candidate in `batch` that lacks a (sufficient) verdict.
  void vet(std::span<const sim::SequenceAssignment> batch,
           bool with_measure) const;
  void trip_breaker(const char* why) const;

  sim::ProgramEvaluator& base_;
  SandboxConfig config_;
  const sim::FaultInjector* injector_ = nullptr;

  // Vetting state is logically part of a const query (compile() is const
  // in the Evaluator interface), hence mutable.
  mutable RemoteEngine engine_;
  /// Per lane: live worker pid, 0 once reaped, -1 before the first fork.
  mutable std::vector<pid_t> pids_;
  mutable std::vector<ProgressCell*> cells_;  ///< per-lane crash signature
  mutable std::vector<std::uint64_t> batch_sigs_;  ///< the batch being vetted
  mutable bool batch_measured_ = false;
  mutable std::unordered_map<std::uint64_t, Verdict> verdicts_;
  mutable SandboxStats stats_;
  mutable int consecutive_deaths_ = 0;  ///< across all workers
  mutable bool tripped_ = false;
};

}  // namespace citroen::sandbox

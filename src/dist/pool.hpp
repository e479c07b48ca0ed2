#pragma once
// Pool side of the distributed evaluation tier.
//
// `DistEvaluator` decorates an evaluator stack with a pool of
// socket-connected peer workers (dist/peer.hpp). Each peer is one lane
// of a `sandbox::RemoteEngine` (sandbox/remote.hpp) — the engine the
// sandbox runs its forked workers on — which owns dispatch, deadlines,
// heartbeats, the per-peer breaker and reconnect backoff. This class
// keeps only the pool's policy: open a lane by connecting and shaking
// hands (Hello, fingerprint check, clock offset), reassign the job of a
// failed lane, and brown out when every peer is banned.
//
// The byte-identity contract differs from the sandbox's in one
// deliberate way. A sandbox worker dying tells you something about the
// *candidate* (it ran in a clean address space), so the supervisor
// synthesizes a WorkerCrash verdict. A peer dying tells you nothing —
// the SIGKILL, hang or garbage came from outside the candidate's
// control — so the pool NEVER synthesizes outcomes. Every remote
// failure (classified peer-lost / peer-timeout / peer-protocol) causes
// the job to be reassigned to another live peer, bounded by
// `max_attempts_per_job`; when attempts run out, or the whole pool
// browns out (every peer banned by its circuit breaker), the job simply
// falls through to the local stack — sandboxed if CITROEN_SANDBOX built
// the stack that way, in-process otherwise. That is the degradation
// ladder: remote -> sandboxed-local -> in-process, with identical final
// output at every rung.
//
// The only remote side effect is `install_measure_memo` on the bottom
// ProgramEvaluator — the exact mechanism batch prefetch and the sandbox
// already use — so order-sensitive state (fault-injector counters,
// identical-binary cache, quarantine, accounting) advances precisely as
// it would without the pool. Verdicts the sandbox layer earns stay
// authoritative: the pool forwards every call to the stack below it and
// never bypasses a layer.
//
// Not thread-safe: one DistEvaluator belongs to one run thread, like
// the SandboxedEvaluator it mirrors.

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "dist/wire.hpp"
#include "sandbox/remote.hpp"
#include "sim/evaluator.hpp"

namespace citroen::dist {

struct DistConfig : sandbox::RemoteConfig {
  /// Peer endpoints: "unix:<path>" (or any string containing '/') for
  /// Unix sockets, "tcp:<ip>:<port>" or "<ip>:<port>" for TCP. Empty
  /// reads a comma-separated list from CITROEN_PEERS; still empty means
  /// the pool is inert (everything runs on the local stack).
  std::vector<std::string> peers;
  /// Everything a peer needs to rebuild this evaluator (wire.hpp).
  ProgramSpec spec;
  /// Deadline for connect + Hello/HelloOk on one attempt.
  double connect_timeout_seconds = 5.0;
  /// A peer idle for 5 s is pinged and torn down (peer-timeout) if no
  /// Pong arrives within this.
  double heartbeat_timeout_seconds = 2.0;
  /// Distinct dispatch attempts per job before it falls back to the
  /// local stack.
  int max_attempts_per_job = 3;
};

struct DistStats {
  std::uint64_t connects = 0;        ///< successful Hello handshakes
  std::uint64_t jobs_dispatched = 0; ///< job frames written (incl. retries)
  std::uint64_t jobs_ok = 0;         ///< results accepted
  std::uint64_t reassigned = 0;      ///< jobs re-dispatched after a failure
  std::uint64_t local_fallback = 0;  ///< jobs that fell through to the stack
  std::uint64_t peer_lost = 0;       ///< failures classified PeerLost
  std::uint64_t peer_timeout = 0;    ///< failures classified PeerTimeout
  std::uint64_t peer_protocol = 0;   ///< failures classified PeerProtocol
  std::uint64_t bans = 0;            ///< peers banned by the breaker
  std::uint64_t heartbeats = 0;      ///< pings sent
  std::uint64_t brownouts = 0;       ///< 1 when the whole pool degraded
  std::uint64_t reconnect_attempts = 0;  ///< connect tries (incl. retries)
  std::uint64_t backoffs = 0;        ///< reconnect backoffs scheduled
};

/// Builds a ProgramSpec matching `bottom` for benches/tests where the
/// evaluator was constructed as ProgramEvaluator(make_program(name,
/// seed), machine_by_name(machine)) — the convention every gate uses.
ProgramSpec make_program_spec(const sim::ProgramEvaluator& bottom,
                              const std::string& machine,
                              std::uint64_t workload_seed = 42);

class DistEvaluator final : public sim::ForwardingEvaluator {
 public:
  /// `stack` is the evaluator this layer forwards to (the sandboxed or
  /// plain local path — the next rung down the degradation ladder);
  /// `bottom` is the ProgramEvaluator at the base of that stack, where
  /// remote measurement memos are installed. When `stack` IS the bottom,
  /// pass the same object twice.
  DistEvaluator(sim::Evaluator& stack, sim::ProgramEvaluator& bottom,
                DistConfig config);

  DistEvaluator(const DistEvaluator&) = delete;
  DistEvaluator& operator=(const DistEvaluator&) = delete;

  /// Remote dispatch pauses while an injector is installed: the pool
  /// sends peers no fault plan (real-fault injection is a sandbox
  /// concern), so a remote memo would bypass the injected faults and
  /// change results. The local stack below applies the injector exactly
  /// as ever.
  void set_fault_injector(const sim::FaultInjector* injector) override {
    injector_set_ = injector != nullptr;
    inner_.set_fault_injector(injector);
  }

  /// Remote-measure the candidate (unless already vetted or the pool is
  /// out), then run the byte-identical serial path on the stack below.
  sim::EvalOutcome evaluate(const sim::SequenceAssignment& seqs) override;

  /// Farm the batch's pure measurements out across the peer pool with
  /// pipelined dispatch and reassignment-on-failure, then forward the
  /// whole batch to the stack below (which skips whatever was memoized).
  void prefetch(std::span<const sim::SequenceAssignment> batch,
                bool with_measure = true) override;

  DistStats dist_stats() const;
  /// Whole-pool brownout: every peer banned/unreachable; the pool is
  /// permanently out for this run and everything runs on the stack.
  bool degraded() const { return degraded_; }
  /// Peers configured (after endpoint parsing), not necessarily alive.
  int peer_count() const { return static_cast<int>(config_.peers.size()); }
  /// Last handshake-measured clock offset for peer `i` (remote − local
  /// CLOCK_MONOTONIC, ns; 0 before the first connect). Re-measured every
  /// reconnect. Exposed for tests and the Inspect snapshot.
  std::int64_t peer_clock_offset_ns(int i) const {
    return engine_.lanes()[static_cast<std::size_t>(i)].clock_offset_ns;
  }

  /// One row of peer-pool health for the Inspect snapshot.
  struct PeerHealth {
    std::string endpoint;
    bool connected = false;
    bool banned = false;
    int consecutive_failures = 0;
    std::int64_t clock_offset_ns = 0;
  };
  std::vector<PeerHealth> peer_health() const;

 private:
  /// Engine hooks: connect and handshake lane `slot`; take a result;
  /// reassign (or give up on) the job of a failed lane.
  sandbox::LaneFault connect_peer(std::size_t slot, sandbox::Lane& lane);
  void on_result(std::size_t job, sandbox::SandboxResult& res);
  bool on_failure(const sandbox::LaneFailure& f);

  /// Export every peer's breaker state (connected / banned /
  /// consecutive_failures) plus the pool-wide banned count as gauges.
  /// Per-peer values are labeled children (peer="<index>") of one gauge
  /// family each, so this hits the registry directly instead of the
  /// static-caching OBS macros.
  void publish_peer_metrics() const;
  /// Measure the batch across the pool. Returns normally even on total
  /// brownout — unfinished jobs just stay un-memoized.
  void measure_remotely(std::span<const sim::SequenceAssignment> batch);
  void brownout(const char* why);
  bool pool_usable() const;

  sim::ProgramEvaluator& bottom_;
  DistConfig config_;
  sandbox::RemoteEngine engine_;
  std::unordered_set<std::uint64_t> vetted_;
  std::vector<std::uint64_t> batch_sigs_;  ///< the batch being run
  std::vector<int> batch_attempts_;        ///< dispatch attempts per job
  DistStats stats_;
  bool degraded_ = false;
  bool injector_set_ = false;
};

/// Split a comma-separated endpoint list (the CITROEN_PEERS format).
std::vector<std::string> parse_peer_list(const std::string& csv);

}  // namespace citroen::dist

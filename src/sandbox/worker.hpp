#pragma once
// Worker side of every lane (sandbox/remote.hpp).
//
// `serve_jobs` is the one job loop: it reads tagged frames off a lane,
// runs each Job through `ProgramEvaluator::pure_evaluate`, answers with
// a Result carrying the job's obs deltas, and echoes Pings. A forked
// sandbox worker (`worker_main`) and a `citroen-peer` connection
// (dist/peer.hpp) both run it; the peer adds its handshake and test
// hooks through `JobLoop`.
//
// After fork the sandbox worker detaches everything shared with the
// supervisor (shared prefix cache, fault injector, thread pool), applies
// its rlimit caps, installs the pass-progress hook into its (now
// private) copy of the evaluator, and serves until EOF. It only ever
// performs `pure_evaluate` — no order-sensitive state exists in the
// child, so nothing it does (or fails to do) can change supervisor-side
// results.
//
// The forked worker never returns to the forked C++ runtime: every exit
// path is `_exit`, so destructors of supervisor-owned objects (thread
// pool, journal fds, cache shards possibly mid-mutation in other threads
// at fork time) are never run in the child.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

#include "sandbox/protocol.hpp"

namespace citroen::sim {
class ProgramEvaluator;
}

namespace citroen::sandbox {

/// Resource caps a forked worker applies to itself before serving.
/// Per-job CPU budget: RLIMIT_CPU is cumulative, so the worker re-derives
/// the limit from getrusage() before every job.
inline constexpr double kWorkerJobCpuSeconds = 20.0;
/// Address-space headroom granted above the worker's size at startup via
/// RLIMIT_AS. Compile-time disabled under AddressSanitizer: ASan's shadow
/// reservations make RLIMIT_AS meaningless (and fatal).
inline constexpr std::size_t kWorkerMemHeadroomBytes = std::size_t{512} << 20;

/// Worker exit codes (see the consolidated table in DESIGN.md). Kept
/// clear of the watchdog's 0/75/99 so a status seen by waitpid is
/// unambiguous about which layer chose it.
inline constexpr int kWorkerExitClean = 0;     ///< lane reached EOF
inline constexpr int kWorkerExitProtocol = 3;  ///< malformed frame/stream

/// What one job loop serves with, beyond the lane fd.
struct JobLoop {
  /// Evaluator that runs the jobs; null until a Hello installs one.
  sim::ProgramEvaluator* eval = nullptr;
  /// Idle read timeout (seconds); < 0 waits forever.
  double read_timeout_seconds = -1.0;
  /// Per-job CPU budget (seconds); 0 disables.
  double job_cpu_seconds = 0.0;
  /// Answers a Hello body on `fd` and returns the evaluator to serve
  /// with (null hangs up). Unset: a Hello is a protocol error.
  std::function<sim::ProgramEvaluator*(std::string_view body, int fd)>
      on_hello;
  /// Runs after a job frame is decoded, before the evaluation; false
  /// hangs up without replying.
  std::function<bool(const SandboxJob& job)> begin_job;
  /// Runs after the evaluation, before the Result is written.
  std::function<void(const SandboxJob& job)> end_job;
};

/// Serve tagged frames on `fd` until the far end closes it (true) or a
/// read times out, a frame is malformed or a write fails (false).
bool serve_jobs(int fd, JobLoop& loop);

/// Body of a forked sandbox worker; never returns. `eval` is this
/// process's copy of the supervisor's base evaluator, `fd` the worker end
/// of its lane, `progress` the shared crash-signature cell (may be null).
[[noreturn]] void worker_main(sim::ProgramEvaluator& eval, int fd,
                              ProgressCell* progress);

}  // namespace citroen::sandbox

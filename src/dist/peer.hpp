#pragma once
// Peer-worker side of the distributed evaluation pool.
//
// A peer is a standalone process (`citroen-peer`, or a forked child in
// tests and gates) listening on a Unix or TCP socket. Per connection it
// expects a Hello naming the program spec, reconstructs its own
// `ProgramEvaluator` from that spec (peers share no memory with the
// pool), answers HelloOk with a structural fingerprint, then serves Job
// frames with the job loop every sandbox worker runs
// (sandbox::serve_jobs). Evaluators are cached across connections, so a
// pool reconnecting after a link flap pays no rebuild.
//
// Peers hold no order-sensitive state and install no verdicts: every
// result they produce is pure and memoizable, so a peer dying, hanging
// or babbling mid-job can cost the pool time but never correctness.

#include <cstdint>
#include <string>

#include <sys/types.h>

namespace citroen::dist {

struct PeerOptions {
  /// Idle read timeout per connection (seconds); <= 0 waits forever.
  double read_timeout_seconds = -1.0;

  // TEST HOOKS for the containment gate — all count jobs served across
  // the peer's lifetime and fire when that many jobs have *started*
  // (mid-job, after the job frame was read, before any reply), -1 never:
  std::int64_t kill_self_after_jobs = -1;  ///< raise(SIGKILL) — abrupt death
  std::int64_t hang_after_jobs = -1;       ///< sleep forever past any deadline
  std::int64_t garbage_after_jobs = -1;    ///< write unframed garbage bytes
};

/// Listen on a Unix socket at `path` (unlinking any stale socket).
/// Returns the listening fd, or -1 with `error` set.
int listen_unix(const std::string& path, std::string* error);

/// Listen on 127.0.0.1:`port` (0 = kernel-assigned; the chosen port is
/// written back). Returns the listening fd, or -1 with `error` set.
int listen_tcp(int* port, std::string* error);

/// Accept-and-serve loop: one connection at a time, until accept fails
/// (listening fd closed) or a test hook terminates the process.
/// Returns the process exit code.
int peer_serve(int listen_fd, const PeerOptions& options = {});

/// Fork a child that serves a Unix-socket peer at `path`. The listening
/// socket is bound *before* forking, so the peer is connectable the
/// moment this returns. Returns the child pid, or -1 with `error` set.
pid_t spawn_peer(const std::string& path, const PeerOptions& options,
                 std::string* error);

}  // namespace citroen::dist

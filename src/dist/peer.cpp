#include "dist/peer.hpp"

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "bench_suite/suite.hpp"
#include "dist/wire.hpp"
#include "ir/interpreter.hpp"
#include "obs/trace.hpp"
#include "passes/passman.hpp"
#include "sandbox/ipc.hpp"
#include "sandbox/protocol.hpp"
#include "sandbox/worker.hpp"
#include "sim/evaluator.hpp"
#include "sim/machine.hpp"

namespace citroen::dist {

namespace {

void sleep_forever() {
  for (;;) ::pause();
}

/// Evaluators rebuilt from Hello specs, cached across connections (keyed
/// by the encoded spec so any field change rebuilds).
std::map<std::string, std::unique_ptr<sim::ProgramEvaluator>>& eval_cache() {
  static std::map<std::string, std::unique_ptr<sim::ProgramEvaluator>> cache;
  return cache;
}

sim::ProgramEvaluator* evaluator_for(const ProgramSpec& spec,
                                     std::string* error) {
  const std::string key = encode_hello(spec);
  auto& cache = eval_cache();
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second.get();
  try {
    ir::ExecLimits limits;
    if (spec.max_instructions > 0)
      limits.max_instructions = spec.max_instructions;
    if (spec.max_memory_bytes > 0)
      limits.max_memory_bytes = spec.max_memory_bytes;
    if (spec.max_call_depth > 0) limits.max_call_depth = spec.max_call_depth;
    auto eval = std::make_unique<sim::ProgramEvaluator>(
        bench_suite::make_program(spec.program, spec.workload_seed),
        sim::machine_by_name(spec.machine), limits);
    for (const std::uint64_t seed : spec.extra_workload_seeds)
      eval->add_workload(bench_suite::make_program(spec.program, seed));
    auto* raw = eval.get();
    cache.emplace(key, std::move(eval));
    return raw;
  } catch (const std::exception& e) {
    *error = e.what();
    return nullptr;
  }
}

/// Answer a Hello: rebuild (or reuse) the evaluator its spec names and
/// reply HelloOk with the fingerprint, or HelloErr. Null hangs up.
sim::ProgramEvaluator* answer_hello(std::string_view body, int fd) {
  ProgramSpec spec;
  std::string err;
  sim::ProgramEvaluator* eval = nullptr;
  if (decode_hello(body, &spec, &err)) eval = evaluator_for(spec, &err);
  if (!eval) {
    sandbox::write_frame(fd, sandbox::tag_message(sandbox::PeerMsg::HelloErr,
                                                  encode_hello_err(err)));
    return nullptr;
  }
  const auto reply =
      encode_hello_ok(static_cast<std::uint64_t>(::getpid()),
                      evaluator_fingerprint(*eval), sandbox::monotonic_ns());
  if (sandbox::write_frame(fd, sandbox::tag_message(sandbox::PeerMsg::HelloOk,
                                                    reply)) !=
      sandbox::IoStatus::Ok)
    return nullptr;
  return eval;
}

/// Serve one accepted connection with the shared job loop. `jobs_started`
/// counts across connections so the test hooks fire deterministically no
/// matter how the pool spreads jobs over reconnects.
void serve_connection(int fd, const PeerOptions& opts,
                      std::int64_t* jobs_started) {
  sandbox::JobLoop loop;
  loop.read_timeout_seconds = opts.read_timeout_seconds;
  loop.on_hello = answer_hello;
  loop.begin_job = [&](const sandbox::SandboxJob& job) {
    const std::int64_t index = (*jobs_started)++;
    if (opts.kill_self_after_jobs >= 0 && index >= opts.kill_self_after_jobs)
      ::kill(::getpid(), SIGKILL);  // abrupt mid-job death
    if (opts.hang_after_jobs >= 0 && index >= opts.hang_after_jobs)
      sleep_forever();  // blow the pool's wall deadline
    if (opts.garbage_after_jobs >= 0 && index >= opts.garbage_after_jobs) {
      // Unframed bytes: the pool's FrameDecoder must classify this
      // connection Corrupt, not crash and not misparse.
      std::string garbage(96, '\xa5');
      ssize_t ignored = ::write(fd, garbage.data(), garbage.size());
      (void)ignored;
      return false;
    }
    // The remote execution span, plus the finish half of the flow the
    // pool started at dispatch ('s', same id): once this result's
    // piggybacked events are ingested and re-based pool-side, the merged
    // trace draws an arrow from the pool's dist_job span to this span.
    if (obs::trace_enabled()) {
      obs::emit('b', "peer_job", "dist", job.id, "pid",
                static_cast<std::uint64_t>(::getpid()));
      obs::emit('f', "dist_job", "dist", job.id);
    }
    return true;
  };
  loop.end_job = [](const sandbox::SandboxJob& job) {
    if (obs::trace_enabled()) obs::emit('e', "peer_job", "dist", job.id);
  };
  sandbox::serve_jobs(fd, loop);
}

}  // namespace

int listen_unix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path empty or too long";
    return -1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    *error = std::string("bind/listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int listen_tcp(int* port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(*port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    *error = std::string("bind/listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  sockaddr_in got{};
  socklen_t len = sizeof(got);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len) == 0)
    *port = ntohs(got.sin_port);
  return fd;
}

int peer_serve(int listen_fd, const PeerOptions& options) {
  ::signal(SIGPIPE, SIG_IGN);  // a vanished pool surfaces as EPIPE
  // Don't re-ship counters inherited from a forking parent (spawn_peer)
  // or accumulated before the first connection.
  sandbox::baseline_obs_counters();
  std::int64_t jobs_started = 0;
  for (;;) {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return 0;  // listening socket closed: clean shutdown
    }
    serve_connection(conn, options, &jobs_started);
    ::close(conn);
  }
}

pid_t spawn_peer(const std::string& path, const PeerOptions& options,
                 std::string* error) {
  const int listen_fd = listen_unix(path, error);
  if (listen_fd < 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(listen_fd);
    return -1;
  }
  if (pid == 0) {
    // Child: plain peer process. Like a sandbox worker it keeps only its
    // own descriptor, resets locks forked mid-flight (obs rings, the
    // stat-key interner's spinlock) and never runs parent-owned
    // destructors, so every exit is _exit.
    const int fd = sandbox::keep_only_fd(listen_fd);
    obs::reset_after_fork();
    passes::reset_stat_interner_after_fork();
    ::_exit(peer_serve(fd, options));
  }
  ::close(listen_fd);  // parent: the child owns the listener
  return pid;
}

}  // namespace citroen::dist

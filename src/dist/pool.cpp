#include "dist/pool.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sandbox/protocol.hpp"

namespace citroen::dist {

namespace {

using sandbox::IoStatus;
using sandbox::LaneFault;

/// Resolve one endpoint: "unix:<path>" / bare path (contains '/') for
/// Unix sockets, "tcp:<ip>:<port>" / "<ip>:<port>" for IPv4 TCP.
bool resolve_endpoint(const std::string& endpoint, sockaddr_storage* addr,
                      socklen_t* len) {
  std::string rest = endpoint;
  bool is_unix;
  if (rest.rfind("unix:", 0) == 0) {
    rest = rest.substr(5);
    is_unix = true;
  } else if (rest.rfind("tcp:", 0) == 0) {
    rest = rest.substr(4);
    is_unix = false;
  } else {
    is_unix = rest.find('/') != std::string::npos;
  }
  *addr = {};
  if (is_unix) {
    auto* un = reinterpret_cast<sockaddr_un*>(addr);
    un->sun_family = AF_UNIX;
    if (rest.empty() || rest.size() >= sizeof(un->sun_path)) return false;
    std::strncpy(un->sun_path, rest.c_str(), sizeof(un->sun_path) - 1);
    *len = sizeof(sockaddr_un);
    return true;
  }
  const auto colon = rest.rfind(':');
  if (colon == std::string::npos) return false;
  const std::string host = rest.substr(0, colon);
  const int port = std::atoi(rest.c_str() + colon + 1);
  if (port <= 0 || port > 65535) return false;
  auto* in = reinterpret_cast<sockaddr_in*>(addr);
  in->sin_family = AF_INET;
  in->sin_port = htons(static_cast<std::uint16_t>(port));
  *len = sizeof(sockaddr_in);
  return ::inet_pton(AF_INET, host.empty() ? "127.0.0.1" : host.c_str(),
                     &in->sin_addr) == 1;
}

/// Connect one endpoint before the monotonic `deadline`. Non-blocking,
/// so a peer that never accepts costs a Timeout, not a hang: a TCP
/// handshake in flight and a Unix listener with a full backlog (EAGAIN)
/// are both retried until the deadline.
LaneFault connect_endpoint(const std::string& endpoint, double deadline,
                           int* fd_out) {
  sockaddr_storage addr;
  socklen_t len = 0;
  if (!resolve_endpoint(endpoint, &addr, &len)) return LaneFault::Lost;
  const int fd = ::socket(addr.ss_family, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return LaneFault::Lost;
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), len) != 0 &&
         errno != EISCONN) {
    const bool pending = errno == EINTR || errno == EAGAIN ||
                         errno == EINPROGRESS || errno == EALREADY;
    if (!pending || sandbox::monotonic_seconds() >= deadline) {
      ::close(fd);
      return pending ? LaneFault::Timeout : LaneFault::Lost;
    }
    sandbox::sleep_seconds(0.001);
  }
  // Frames are written with blocking writes from here on.
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  *fd_out = fd;
  return LaneFault::None;
}

DistConfig with_env_peers(DistConfig config) {
  if (config.peers.empty()) {
    if (const char* env = std::getenv("CITROEN_PEERS"))
      config.peers = parse_peer_list(env);
  }
  return config;
}

sim::FailureKind failure_kind(LaneFault fault) {
  switch (fault) {
    case LaneFault::Timeout: return sim::FailureKind::PeerTimeout;
    case LaneFault::Protocol: return sim::FailureKind::PeerProtocol;
    default: return sim::FailureKind::PeerLost;
  }
}

}  // namespace

std::vector<std::string> parse_peer_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t end = csv.find(',', start);
    if (end == std::string::npos) end = csv.size();
    std::string item = csv.substr(start, end - start);
    // Trim surrounding whitespace.
    while (!item.empty() && (item.front() == ' ' || item.front() == '\t'))
      item.erase(item.begin());
    while (!item.empty() && (item.back() == ' ' || item.back() == '\t'))
      item.pop_back();
    if (!item.empty()) out.push_back(std::move(item));
    start = end + 1;
  }
  return out;
}

ProgramSpec make_program_spec(const sim::ProgramEvaluator& bottom,
                              const std::string& machine,
                              std::uint64_t workload_seed) {
  ProgramSpec spec;
  spec.program = bottom.program_name();
  spec.machine = machine;
  spec.workload_seed = workload_seed;
  spec.max_instructions = bottom.exec_limits().max_instructions;
  spec.max_memory_bytes = bottom.exec_limits().max_memory_bytes;
  spec.max_call_depth = bottom.exec_limits().max_call_depth;
  return spec;
}

DistEvaluator::DistEvaluator(sim::Evaluator& stack,
                             sim::ProgramEvaluator& bottom, DistConfig config)
    : ForwardingEvaluator(stack),
      bottom_(bottom),
      config_(with_env_peers(std::move(config))),
      engine_(config_.peers.size(),
              config_, config_.heartbeat_timeout_seconds,
              {"dist_job", "dist", "peer", "citroen_dist_jobs_total",
               "citroen_dist_heartbeats_total"},
              {[this](std::size_t slot, sandbox::Lane& lane) {
                 return connect_peer(slot, lane);
               },
               [this](std::size_t job, sandbox::SandboxResult& res) {
                 on_result(job, res);
               },
               [this](const sandbox::LaneFailure& f) {
                 return on_failure(f);
               }}) {}

bool DistEvaluator::pool_usable() const {
  return !degraded_ && !injector_set_ && !config_.peers.empty();
}

DistStats DistEvaluator::dist_stats() const {
  DistStats s = stats_;
  s.jobs_dispatched = engine_.jobs_dispatched();
  s.heartbeats = engine_.heartbeats();
  return s;
}

void DistEvaluator::publish_peer_metrics() const {
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::Registry::instance();
  double banned = 0;
  const auto& lanes = engine_.lanes();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const std::string idx = std::to_string(i);
    reg.gauge("citroen_dist_peer_connected", "peer", idx)
        .set(lanes[i].open ? 1.0 : 0.0);
    reg.gauge("citroen_dist_peer_banned", "peer", idx)
        .set(lanes[i].banned ? 1.0 : 0.0);
    reg.gauge("citroen_dist_peer_consecutive_failures", "peer", idx)
        .set(static_cast<double>(lanes[i].failures));
    banned += lanes[i].banned ? 1.0 : 0.0;
  }
  reg.gauge("citroen_dist_peers_banned").set(banned);
}

std::vector<DistEvaluator::PeerHealth> DistEvaluator::peer_health() const {
  std::vector<PeerHealth> out;
  const auto& lanes = engine_.lanes();
  out.reserve(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    PeerHealth h;
    h.endpoint = config_.peers[i];
    h.connected = lanes[i].open;
    h.banned = lanes[i].banned;
    h.consecutive_failures = lanes[i].failures;
    h.clock_offset_ns = lanes[i].clock_offset_ns;
    out.push_back(std::move(h));
  }
  return out;
}

LaneFault DistEvaluator::connect_peer(std::size_t slot, sandbox::Lane& lane) {
  ++stats_.reconnect_attempts;
  OBS_COUNTER_INC("citroen_dist_reconnect_attempts_total");
  const double deadline =
      sandbox::monotonic_seconds() + config_.connect_timeout_seconds;
  int fd = -1;
  const LaneFault fault =
      connect_endpoint(config_.peers[slot], deadline, &fd);
  if (fault != LaneFault::None) return fault;

  const std::uint64_t t0_ns = sandbox::monotonic_ns();
  std::string payload;
  // Peers speak only when spoken to, so nothing can follow the HelloOk
  // into this reader's buffer before the engine takes over the fd.
  sandbox::FrameReader reader(fd);
  sandbox::PeerMsg tag;
  std::string_view body;
  std::uint64_t pid = 0, fingerprint = 0, peer_now_ns = 0;
  if (sandbox::write_frame(
          fd, sandbox::tag_message(sandbox::PeerMsg::Hello,
                                   encode_hello(config_.spec, t0_ns))) !=
          IoStatus::Ok ||
      reader.read(&payload, std::max(0.0, deadline -
                                              sandbox::monotonic_seconds())) !=
          IoStatus::Ok ||
      !sandbox::untag_message(payload, &tag, &body) ||
      tag != sandbox::PeerMsg::HelloOk ||
      !decode_hello_ok(body, &pid, &fingerprint, &peer_now_ns) ||
      fingerprint != evaluator_fingerprint(bottom_)) {
    // No answer, HelloErr, fingerprint divergence or plain confusion:
    // this peer would not produce bit-identical results — never use it.
    ::close(fd);
    return LaneFault::Lost;
  }
  const std::uint64_t t1_ns = sandbox::monotonic_ns();
  lane.fd = fd;
  lane.pid = pid;
  // Midpoint clock-offset estimate: the peer stamped its HelloOk
  // somewhere inside our [t0, t1] round trip, so (remote − local) ≈
  // peer_ts − (t0+t1)/2, off by at most half the RTT. Re-measured on
  // every reconnect, so peer restarts and clock steps heal themselves.
  lane.clock_offset_ns = static_cast<std::int64_t>(peer_now_ns) -
                         static_cast<std::int64_t>(t0_ns / 2 + t1_ns / 2);
  ++stats_.connects;
  OBS_COUNTER_INC("citroen_dist_connects_total");
  return LaneFault::None;
}

bool DistEvaluator::on_failure(const sandbox::LaneFailure& f) {
  const sim::FailureKind kind = failure_kind(f.fault);
  const char* label = sim::failure_kind_name(kind);
  switch (kind) {
    case sim::FailureKind::PeerTimeout: ++stats_.peer_timeout; break;
    case sim::FailureKind::PeerProtocol: ++stats_.peer_protocol; break;
    default: ++stats_.peer_lost; break;
  }
  OBS_COUNTER_INC("citroen_dist_peer_deaths_total");
  if (obs::trace_enabled())
    obs::emit('I', "dist_peer_death", "dist", 0, "kind",
              static_cast<std::uint64_t>(kind), label);
  obs::flight_record("peer_death", f.lane, static_cast<std::uint64_t>(kind),
                     label);

  // A peer's failure says nothing about the candidate: never blame it.
  bool requeue = false;
  if (f.job != sandbox::kNoJob) {
    const int attempts = ++batch_attempts_[f.job];
    if (attempts < config_.max_attempts_per_job) {
      requeue = true;
      ++stats_.reassigned;
      OBS_INSTANT_ARG("dist_reassign", "dist", "attempt", attempts);
      OBS_COUNTER_INC("citroen_dist_reassigns_total");
    } else {
      // Out of remote attempts: the job falls through to the local
      // stack (sandboxed or in-process), which owns correctness anyway.
      ++stats_.local_fallback;
      OBS_COUNTER_INC("citroen_dist_local_fallback_total");
    }
  }

  if (f.banned) {
    ++stats_.bans;
    OBS_INSTANT("dist_peer_banned", "dist");
    OBS_COUNTER_INC("citroen_dist_bans_total");
    obs::flight_record(
        "peer_banned", f.lane,
        static_cast<std::uint64_t>(engine_.lanes()[f.lane].failures));
  } else {
    ++stats_.backoffs;
    OBS_COUNTER_INC("citroen_dist_backoffs_total");
  }
  return requeue;
}

void DistEvaluator::on_result(std::size_t job, sandbox::SandboxResult& res) {
  if (res.status == sandbox::ResultStatus::Ok && res.pure.built &&
      !res.pure.runs.empty())
    bottom_.install_measure_memo(res.pure.binary_hash,
                                 std::move(res.pure.runs));
  // Oom / failed-build results still count as vetted: the remote side
  // did the pure work and learned there is nothing to memoize; the
  // local serial path recomputes that verdict from its own (cached)
  // build, bit-identically.
  vetted_.insert(batch_sigs_[job]);
  ++stats_.jobs_ok;
}

void DistEvaluator::brownout(const char* why) {
  if (degraded_) return;
  degraded_ = true;
  obs::flight_record("pool_brownout", 0, 0, why);
  ++stats_.brownouts;
  OBS_INSTANT("dist_brownout", "dist");
  OBS_COUNTER_INC("citroen_dist_brownouts_total");
  OBS_GAUGE_SET("citroen_dist_degraded", 1);
  std::fprintf(stderr,
               "citroen-dist: pool brownout (%s); degrading to the local "
               "evaluation stack\n",
               why);
}

void DistEvaluator::measure_remotely(
    std::span<const sim::SequenceAssignment> batch) {
  std::vector<const sim::SequenceAssignment*> jobs;
  std::unordered_set<std::uint64_t> in_batch;
  batch_sigs_.clear();
  for (const auto& seqs : batch) {
    const std::uint64_t sig = sim::assignment_signature(seqs);
    if (vetted_.count(sig) || !in_batch.insert(sig).second) continue;
    jobs.push_back(&seqs);
    batch_sigs_.push_back(sig);
  }
  if (jobs.empty()) return;
  OBS_SPAN("dist_batch", "dist");
  batch_attempts_.assign(jobs.size(), 0);
  const std::size_t left =
      engine_.run(jobs, sandbox::JobKind::Evaluate, nullptr);
  if (left > 0) {
    // Every peer is banned: what is still queued falls back locally.
    stats_.local_fallback += left;
    brownout("every peer banned");
  }
  publish_peer_metrics();
}

sim::EvalOutcome DistEvaluator::evaluate(const sim::SequenceAssignment& seqs) {
  if (pool_usable()) measure_remotely({&seqs, 1});
  return inner_.evaluate(seqs);
}

void DistEvaluator::prefetch(std::span<const sim::SequenceAssignment> batch,
                             bool with_measure) {
  // Compile-only vetting stays local (cheap).
  if (with_measure && pool_usable()) measure_remotely(batch);
  inner_.prefetch(batch, with_measure);
}

}  // namespace citroen::dist

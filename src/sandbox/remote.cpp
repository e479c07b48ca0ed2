#include "sandbox/remote.hpp"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/backoff.hpp"

namespace citroen::sandbox {

namespace {

constexpr double kHeartbeatIntervalSeconds = 5.0;
constexpr double kMaxBackoffSeconds = 1.0;
constexpr double kBackoffJitter = 0.5;
constexpr double kMaxPollSeconds = 0.25;  ///< bounds heartbeat lateness

void bump(const char* counter) {
  if (counter && obs::metrics_enabled())
    obs::Registry::instance().counter(counter).add(1);
}

}  // namespace

RemoteEngine::RemoteEngine(std::size_t lanes, const RemoteConfig& config,
                           double heartbeat_timeout_seconds,
                           LaneLabels labels, LaneHooks hooks)
    : config_(config),
      heartbeat_timeout_(heartbeat_timeout_seconds),
      labels_(labels),
      hooks_(std::move(hooks)),
      lanes_(lanes),
      jitter_state_(support::jitter_seed_for(this)) {
  // A dead lane must surface as EPIPE, not as a process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
}

RemoteEngine::~RemoteEngine() { close_lanes(); }

void RemoteEngine::close(Lane& lane) {
  if (lane.fd >= 0) ::close(lane.fd);
  lane.fd = -1;
  lane.reader.reset();
  lane.open = false;
}

void RemoteEngine::close_lanes() {
  for (Lane& lane : lanes_) close(lane);
}

void RemoteEngine::end_span(const Lane& lane) const {
  if (obs::trace_enabled())
    obs::emit('e', labels_.span, labels_.cat, lane.job_id);
}

void RemoteEngine::stop() {
  for (Lane& lane : lanes_) {
    if (lane.busy) end_span(lane);
    lane.busy = lane.awaiting_pong = false;
    lane.banned = true;
    close(lane);
  }
}

void RemoteEngine::open_lane(std::size_t i) {
  Lane& lane = lanes_[i];
  const LaneFault fault = hooks_.open(i, lane);
  if (fault != LaneFault::None) return fail(i, fault, "", /*opening=*/true);
  lane.reader = std::make_unique<FrameReader>(lane.fd);
  lane.open = true;
  lane.failures = 0;
  lane.last_activity = monotonic_seconds();
}

void RemoteEngine::reopen_lanes() {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    while (!lanes_[i].open && !lanes_[i].banned) {
      sleep_seconds(lanes_[i].reopen_at - monotonic_seconds());
      open_lane(i);
    }
  }
}

void RemoteEngine::fail(std::size_t i, LaneFault fault, std::string detail,
                        bool opening) {
  Lane& lane = lanes_[i];
  LaneFailure f{i, fault, opening, kNoJob, false, false, std::move(detail)};
  if (lane.busy) {
    end_span(lane);
    f.job = lane.job;
    f.delivered = lane.delivered;
  }
  lane.busy = lane.awaiting_pong = lane.open = false;
  f.banned = lane.banned = ++lane.failures >= config_.breaker_threshold;
  lane.reopen_at = monotonic_seconds() +
                   support::respawn_backoff(
                       lane.failures, config_.backoff_seconds,
                       kMaxBackoffSeconds, kBackoffJitter, &jitter_state_);
  const bool requeue = hooks_.on_failure(f);
  close(lane);
  if (f.job != kNoJob && requeue) queue_.push_back(f.job);
}

void RemoteEngine::dispatch() {
  for (std::size_t i = 0; i < lanes_.size() && !queue_.empty(); ++i) {
    Lane& lane = lanes_[i];
    if (!lane.open || lane.busy || lane.awaiting_pong) continue;
    SandboxJob job;
    job.id = next_job_id_++;
    job.kind = kind_;
    job.has_plan = plan_ != nullptr;
    if (plan_) job.plan = *plan_;
    job.assignment = *jobs_[queue_.front()];
    // The lane owns the job before the write, so a failed write hands it
    // to fail() and the job can never silently vanish.
    lane.busy = true;
    lane.delivered = false;
    lane.job = queue_.front();
    lane.job_id = job.id;
    queue_.pop_front();
    lane.last_activity = monotonic_seconds();
    lane.deadline = config_.job_wall_timeout_seconds > 0
                        ? lane.last_activity + config_.job_wall_timeout_seconds
                        : 0.0;
    // Async span ('b'/'e' paired by job id): a job's lifetime spans polls
    // and belongs to no one thread's stack.
    if (obs::trace_enabled()) {
      obs::emit('b', labels_.span, labels_.cat, job.id, labels_.lane_arg,
                static_cast<std::uint64_t>(i));
      obs::emit('s', labels_.span, labels_.cat, job.id);
    }
    if (write_frame(lane.fd, tag_message(PeerMsg::Job, encode_job(job))) !=
        IoStatus::Ok) {
      fail(i, LaneFault::Lost, "job dispatch failed");
      continue;
    }
    lane.delivered = true;
    ++dispatched_;
    bump(labels_.dispatched_counter);
    if (config_.kill_job_id >= 0 && lane.pid != 0 &&
        job.id == static_cast<std::uint64_t>(config_.kill_job_id))
      ::kill(static_cast<pid_t>(lane.pid), SIGKILL);
  }
}

void RemoteEngine::send_heartbeats() {
  if (heartbeat_timeout_ <= 0) return;
  const double now = monotonic_seconds();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = lanes_[i];
    if (!lane.open || lane.busy || lane.awaiting_pong ||
        now - lane.last_activity < kHeartbeatIntervalSeconds)
      continue;
    ++heartbeats_;
    bump(labels_.heartbeat_counter);
    if (write_frame(lane.fd, tag_message(PeerMsg::Ping,
                                         encode_nonce(++ping_nonce_))) !=
        IoStatus::Ok) {
      fail(i, LaneFault::Lost, "ping failed");
      continue;
    }
    lane.awaiting_pong = true;
    lane.pong_deadline = now + heartbeat_timeout_;
  }
}

bool RemoteEngine::service_frame(std::size_t i) {
  Lane& lane = lanes_[i];
  std::string payload, err;
  switch (lane.reader->read(&payload, /*timeout_seconds=*/0.0, &err)) {
    case IoStatus::Ok:
      break;
    case IoStatus::Timeout:
      return false;  // drained; a partial frame stays buffered
    case IoStatus::Corrupt:
      fail(i, LaneFault::Protocol, "corrupt result stream");
      return false;
    case IoStatus::Eof:
    case IoStatus::Error:
      fail(i, LaneFault::Lost, "");
      return false;
  }
  PeerMsg tag{};
  std::string_view body;
  std::uint64_t nonce = 0;
  SandboxResult res;
  const bool tagged = untag_message(payload, &tag, &body);
  if (tagged && tag == PeerMsg::Pong && decode_nonce(body, &nonce)) {
    lane.awaiting_pong = false;
    lane.last_activity = monotonic_seconds();
    return true;
  }
  if (!tagged || tag != PeerMsg::Result || !lane.busy ||
      !decode_result(std::string(body), &res, &err) ||
      res.id != lane.job_id) {
    // Garbage, a stale job id or a frame the engine never asked for: the
    // stream is out of sync and the lane cannot be trusted further.
    fail(i, LaneFault::Protocol,
         "malformed result" + (err.empty() ? std::string() : ": " + err));
    return false;
  }
  // Splice the worker's piggybacked trace events and counter deltas into
  // this process, re-based by the lane's clock offset.
  ingest_result_obs(res, static_cast<std::uint32_t>(lane.pid),
                    lane.clock_offset_ns);
  end_span(lane);
  lane.busy = false;
  lane.failures = 0;
  lane.last_activity = monotonic_seconds();
  hooks_.on_result(lane.job, res);
  return true;
}

void RemoteEngine::wait_and_service() {
  std::vector<pollfd> fds;
  std::vector<std::size_t> owners;
  const double now = monotonic_seconds();
  double wake = now + kMaxPollSeconds;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = lanes_[i];
    if (!lane.open || !(lane.busy || lane.awaiting_pong)) continue;
    fds.push_back(pollfd{lane.fd, POLLIN, 0});
    owners.push_back(i);
    if (lane.busy && lane.deadline > 0) wake = std::min(wake, lane.deadline);
    if (lane.awaiting_pong) wake = std::min(wake, lane.pong_deadline);
  }
  if (fds.empty()) return;
  const int rc = ::poll(fds.data(), fds.size(),
                        std::max(1, static_cast<int>((wake - now) * 1e3) + 1));
  if (rc < 0 && errno != EINTR) return stop();  // no lane can be served
  for (std::size_t k = 0; rc > 0 && k < fds.size(); ++k) {
    if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    while (lanes_[owners[k]].open && service_frame(owners[k])) {
    }
  }
}

void RemoteEngine::enforce_deadlines() {
  const double now = monotonic_seconds();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = lanes_[i];
    if (lane.open && ((lane.busy && lane.deadline > 0 && now >= lane.deadline) ||
                      (lane.awaiting_pong && now >= lane.pong_deadline)))
      fail(i, LaneFault::Timeout, "");
  }
}

std::size_t RemoteEngine::run(
    std::span<const sim::SequenceAssignment* const> jobs, JobKind kind,
    const sim::FaultPlan* plan) {
  jobs_ = jobs;
  kind_ = kind;
  plan_ = plan;
  queue_.resize(jobs.size());
  std::iota(queue_.begin(), queue_.end(), std::size_t{0});
  const auto any = [&](bool Lane::*flag) {
    return std::any_of(lanes_.begin(), lanes_.end(),
                       [flag](const Lane& l) { return l.*flag; });
  };
  while (!queue_.empty() || any(&Lane::busy)) {
    const double now = monotonic_seconds();
    for (std::size_t i = 0; i < lanes_.size() && !queue_.empty(); ++i)
      if (!lanes_[i].open && !lanes_[i].banned && now >= lanes_[i].reopen_at)
        open_lane(i);
    dispatch();
    send_heartbeats();
    if (!queue_.empty() && !any(&Lane::busy) && !any(&Lane::awaiting_pong)) {
      // Work queued and nothing in flight: every usable lane is closed
      // behind its backoff gate, or none is usable at all.
      double earliest = -1;
      for (const Lane& lane : lanes_)
        if (!lane.banned && (earliest < 0 || lane.reopen_at < earliest))
          earliest = lane.reopen_at;
      if (earliest < 0) break;
      sleep_seconds(std::clamp(earliest - monotonic_seconds(), 0.001, 0.1));
      continue;
    }
    wait_and_service();
    enforce_deadlines();
  }
  const std::size_t left = queue_.size();
  queue_.clear();
  jobs_ = {};
  plan_ = nullptr;
  return left;
}

}  // namespace citroen::sandbox

#pragma once
// The remote-execution engine behind every out-of-process evaluator.
//
// A *lane* is one worker process behind one bidirectional fd: a forked
// sandbox worker on a socketpair, or a `citroen-peer` on a socket. The
// engine runs a batch of pure-evaluation jobs over its lanes: pipelined
// dispatch of tagged Job frames (one in flight per lane), per-job wall
// deadlines, one poll that wakes at the earliest deadline, Result/Pong
// service, heartbeats on idle lanes, a per-lane count of consecutive
// failures that bans the lane at `breaker_threshold`, and a
// jittered-backoff gate before a failed lane reopens. Each job is an
// async trace span plus a flow start that a remote worker may finish.
//
// What a lane is and what its failure means belong to the decorator that
// owns the engine and reach it only as hooks (`LaneHooks`).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sandbox/ipc.hpp"
#include "sandbox/protocol.hpp"

namespace citroen::sandbox {

/// Settings every decorator that runs an engine shares.
struct RemoteConfig {
  /// Wall-clock deadline per job; past it the lane fails with a timeout.
  /// <= 0 disables.
  double job_wall_timeout_seconds = 30.0;
  /// Consecutive failures that trip the owner's breaker; a lane failing
  /// this often with no open or result in between is banned.
  int breaker_threshold = 3;
  /// First delay before a failed lane reopens; doubles per consecutive
  /// failure up to 1 s, jittered by ±50% so engines don't reopen in step.
  double backoff_seconds = 0.05;
  /// TEST HOOK: SIGKILL the process behind the lane right after the job
  /// with this id is dispatched (-1 = never).
  std::int64_t kill_job_id = -1;
};

/// Why a lane failed, as the transport saw it (None: it opened).
enum class LaneFault : std::uint8_t { None, Lost, Timeout, Protocol };

struct Lane {
  int fd = -1;                       ///< set by the open hook
  std::uint64_t pid = 0;             ///< set by the open hook; 0 unknown
  std::int64_t clock_offset_ns = 0;  ///< set by the open hook
  std::unique_ptr<FrameReader> reader;
  bool open = false;
  bool banned = false;
  int failures = 0;  ///< consecutive; reset by an open or a result
  double reopen_at = 0;
  double last_activity = 0;
  bool busy = false;       ///< a job is in flight
  bool delivered = false;  ///< its frame was written
  std::size_t job = 0;
  std::uint64_t job_id = 0;
  double deadline = 0;
  bool awaiting_pong = false;
  double pong_deadline = 0;
};

inline constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);

struct LaneFailure {
  std::size_t lane = 0;
  LaneFault fault = LaneFault::Lost;
  bool opening = false;      ///< the open hook failed
  std::size_t job = kNoJob;  ///< batch index of the job the lane held
  bool delivered = false;    ///< that job's frame reached the lane
  bool banned = false;       ///< the lane is banned from now on
  std::string detail;
};

struct LaneHooks {
  /// Bring lane `slot` up (set fd, pid, clock offset) or return a fault.
  std::function<LaneFault(std::size_t slot, Lane& lane)> open;
  std::function<void(std::size_t job, SandboxResult& res)> on_result;
  /// Runs while the failed lane's fd is still open; true requeues f.job.
  std::function<bool(const LaneFailure& f)> on_failure;
};

/// Trace and metric names of one engine's jobs.
struct LaneLabels {
  const char* span;                ///< async span per job
  const char* cat;                 ///< trace category
  const char* lane_arg;            ///< span argument holding the lane index
  const char* dispatched_counter;  ///< counter of job frames written
  const char* heartbeat_counter;   ///< counter of pings sent
};

class RemoteEngine {
 public:
  /// With `heartbeat_timeout_seconds` > 0 a lane idle for 5 s is pinged
  /// and fails (Timeout) unless a Pong arrives within that time.
  RemoteEngine(std::size_t lanes, const RemoteConfig& config,
               double heartbeat_timeout_seconds, LaneLabels labels,
               LaneHooks hooks);
  ~RemoteEngine();

  RemoteEngine(const RemoteEngine&) = delete;
  RemoteEngine& operator=(const RemoteEngine&) = delete;

  /// Run every job to a result or to a failure the owner settles.
  /// Returns how many jobs no lane could take (every lane banned).
  std::size_t run(std::span<const sim::SequenceAssignment* const> jobs,
                  JobKind kind, const sim::FaultPlan* plan);
  /// Reopen every closed, unbanned lane, sleeping out backoff gates.
  void reopen_lanes();
  /// Ban and close every lane; jobs in flight stay unsettled.
  void stop();
  /// Close every lane (the far end sees EOF).
  void close_lanes();

  const std::vector<Lane>& lanes() const { return lanes_; }
  std::uint64_t jobs_dispatched() const { return dispatched_; }
  std::uint64_t heartbeats() const { return heartbeats_; }

 private:
  void open_lane(std::size_t i);
  void dispatch();
  void send_heartbeats();
  void wait_and_service();
  bool service_frame(std::size_t i);
  void enforce_deadlines();
  void fail(std::size_t i, LaneFault fault, std::string detail,
            bool opening = false);
  void end_span(const Lane& lane) const;
  void close(Lane& lane);

  RemoteConfig config_;
  double heartbeat_timeout_;
  LaneLabels labels_;
  LaneHooks hooks_;
  std::vector<Lane> lanes_;
  std::uint64_t next_job_id_ = 0;
  std::uint64_t ping_nonce_ = 0;
  std::uint64_t jitter_state_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t heartbeats_ = 0;

  // The batch run() is working through.
  std::span<const sim::SequenceAssignment* const> jobs_;
  JobKind kind_ = JobKind::Evaluate;
  const sim::FaultPlan* plan_ = nullptr;
  std::deque<std::size_t> queue_;
};

}  // namespace citroen::sandbox

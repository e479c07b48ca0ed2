#pragma once
// Client side of the citroend protocol: connect/submit/attach/cancel with
// exponential-backoff-plus-jitter retry on transient failures.
//
// Two failure classes get the retry treatment:
//   - transport errors (connect refused, EPIPE mid-conversation, EOF from
//     a daemon that was just SIGKILLed) — the client reconnects, replays
//     the Hello handshake, and re-attaches in-flight jobs by id;
//   - typed transient Rejects (over-quota, over-capacity) — the client
//     waits the daemon's retry-after hint (jittered) and resubmits.
// Permanent rejects (BadRequest, UnknownJob) and protocol corruption
// surface immediately as errors.
//
// Blocking and single-threaded by design: one Client per thread. The
// ext_serving gate runs four of these concurrently against one daemon.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "sandbox/ipc.hpp"
#include "serve/wire.hpp"

namespace citroen::serve {

struct ClientConfig {
  std::string socket_path;      ///< Unix-domain endpoint (required)
  std::string tenant = "default";
  double connect_timeout_seconds = 10.0;  ///< total budget for connect+retry
  double frame_timeout_seconds = 60.0;    ///< per-frame read deadline
  double backoff_initial_seconds = 0.05;
  double backoff_max_seconds = 2.0;
  std::uint64_t jitter_seed = 0;  ///< 0 = derive from pid (decorrelates clients)
};

/// Outcome of a submit-and-wait conversation.
struct JobOutcome {
  std::uint64_t job_id = 0;
  ResultStatus status = ResultStatus::Failed;
  Vec curve;
  std::string error;  ///< transport or daemon-reported failure detail
};

class Client {
 public:
  explicit Client(ClientConfig config);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect + Hello, retrying transient socket errors with backoff until
  /// the connect budget is spent. False (with error()) on failure.
  bool connect();
  bool connected() const { return fd_ >= 0; }
  void disconnect();

  /// Daemon restart counter from the last successful Hello.
  std::uint64_t epoch() const { return epoch_; }
  /// True when the last Hello reported the daemon mid-drain.
  bool draining() const { return draining_; }

  /// Submit `spec`; on transient rejects waits the daemon's retry-after
  /// hint and resubmits until `max_wait_seconds` is spent. Returns the
  /// accepted job id, or nullopt (error() tells why).
  std::optional<std::uint64_t> submit(const JobSpec& spec,
                                      double max_wait_seconds = 60.0);

  /// Attach to `job_id` and pump Progress frames until its Result
  /// arrives. Auto-reconnects and re-attaches on transport errors (the
  /// daemon may be restarting under it) within `max_wait_seconds`.
  /// `on_progress` (optional) sees every Progress/Status update.
  JobOutcome wait_result(
      std::uint64_t job_id, double max_wait_seconds = 300.0,
      const std::function<void(std::uint64_t done, std::uint64_t budget)>&
          on_progress = nullptr);

  /// Request cancellation; the terminal Result still arrives via
  /// wait_result(). False when the daemon rejected the cancel.
  bool cancel(std::uint64_t job_id);

  /// Request a live daemon snapshot (`citroen-cli status`). Nullopt on
  /// failure — error() distinguishes transport trouble from a typed
  /// daemon Reject (e.g. a protocol-version mismatch).
  std::optional<InspectOkMsg> inspect(bool include_flight = true);

  const std::string& error() const { return error_; }

 private:
  bool connect_once(std::string* why);
  bool send_frame(const std::string& payload);
  sandbox::IoStatus read_frame(std::string* payload, double timeout_seconds);
  /// Exponential backoff with full jitter; attempt counts from 0.
  double backoff_delay(int attempt);

  ClientConfig config_;
  int fd_ = -1;
  std::unique_ptr<sandbox::FrameReader> reader_;
  std::uint64_t epoch_ = 0;
  bool draining_ = false;
  std::uint64_t jitter_state_ = 0;
  std::string error_;
};

}  // namespace citroen::serve

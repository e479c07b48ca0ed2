#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "support/backoff.hpp"

namespace citroen::serve {

Client::Client(ClientConfig config) : config_(std::move(config)) {
  jitter_state_ = config_.jitter_seed != 0 ? config_.jitter_seed
                                            : support::jitter_seed_for(this);
  std::signal(SIGPIPE, SIG_IGN);  // daemon death mid-write -> EPIPE, not kill
}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  reader_.reset();
}

double Client::backoff_delay(int attempt) {
  // Full jitter decorrelates the reconnect stampede when a daemon restart
  // drops every client at once.
  return support::full_jitter_backoff(attempt, config_.backoff_initial_seconds,
                                      config_.backoff_max_seconds,
                                      &jitter_state_);
}

bool Client::connect_once(std::string* why) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.empty() ||
      config_.socket_path.size() >= sizeof(addr.sun_path)) {
    *why = "socket path empty or too long";
    return false;
  }
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *why = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *why = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  fd_ = fd;
  reader_ = std::make_unique<sandbox::FrameReader>(fd_);

  HelloMsg hello;
  hello.tenant = config_.tenant;
  if (!send_frame(encode(hello))) {
    *why = "hello write failed";
    disconnect();
    return false;
  }
  std::string payload;
  const auto st = read_frame(&payload, config_.frame_timeout_seconds);
  if (st != sandbox::IoStatus::Ok) {
    *why = std::string("hello read: ") + sandbox::io_status_name(st);
    disconnect();
    return false;
  }
  HelloOkMsg ok;
  std::string err;
  if (static_cast<MsgType>(peek_type(payload)) == MsgType::Reject) {
    RejectMsg rej;
    decode(payload, &rej, &err);
    *why = "daemon rejected handshake: " + rej.message;
    disconnect();
    return false;
  }
  if (!decode(payload, &ok, &err)) {
    *why = "bad HelloOk: " + err;
    disconnect();
    return false;
  }
  epoch_ = ok.epoch;
  draining_ = ok.draining;
  return true;
}

bool Client::connect() {
  const double deadline =
      sandbox::monotonic_seconds() + config_.connect_timeout_seconds;
  std::string why;
  for (int attempt = 0;; ++attempt) {
    if (connect_once(&why)) return true;
    const double delay = backoff_delay(attempt);
    if (sandbox::monotonic_seconds() + delay >= deadline) {
      error_ = "connect to " + config_.socket_path + " failed: " + why;
      return false;
    }
    sandbox::sleep_seconds(delay);
  }
}

bool Client::send_frame(const std::string& payload) {
  if (fd_ < 0) return false;
  return sandbox::write_frame(fd_, payload) == sandbox::IoStatus::Ok;
}

sandbox::IoStatus Client::read_frame(std::string* payload,
                                     double timeout_seconds) {
  if (!reader_) return sandbox::IoStatus::Error;
  return reader_->read(payload, timeout_seconds, &error_);
}

std::optional<std::uint64_t> Client::submit(const JobSpec& spec,
                                            double max_wait_seconds) {
  const double deadline = sandbox::monotonic_seconds() + max_wait_seconds;
  std::string err;
  for (int attempt = 0;; ++attempt) {
    if (!connected() && !connect()) return std::nullopt;

    SubmitMsg m;
    m.spec = spec;
    std::string payload;
    bool transport_ok = send_frame(encode(m));
    sandbox::IoStatus st = sandbox::IoStatus::Error;
    while (transport_ok) {
      st = read_frame(&payload, config_.frame_timeout_seconds);
      transport_ok = st == sandbox::IoStatus::Ok;
      if (!transport_ok) break;
      // Skip Progress/Status/Result frames for jobs this connection is
      // already attached to; only Accept/Reject answer the submit.
      const auto t = static_cast<MsgType>(peek_type(payload));
      if (t == MsgType::Accept || t == MsgType::Reject) break;
    }
    if (!transport_ok) {
      // Daemon died (or restarted) under us: reconnect and resubmit.
      // Submission is not idempotent, but a dead daemon cannot have
      // durably accepted the job without answering, except in the narrow
      // crash window after Accept was framed — the ext gate tolerates
      // that by treating a duplicate as a fresh job.
      disconnect();
      error_ = std::string("submit transport: ") + sandbox::io_status_name(st);
    } else {
      switch (static_cast<MsgType>(peek_type(payload))) {
        case MsgType::Accept: {
          AcceptMsg acc;
          if (!decode(payload, &acc, &err)) {
            error_ = "bad Accept: " + err;
            return std::nullopt;
          }
          return acc.job_id;
        }
        case MsgType::Reject: {
          RejectMsg rej;
          if (!decode(payload, &rej, &err)) {
            error_ = "bad Reject: " + err;
            return std::nullopt;
          }
          if (!reject_is_transient(rej.reason)) {
            error_ = std::string(reject_reason_name(rej.reason)) + ": " +
                     rej.message;
            return std::nullopt;
          }
          error_ = rej.message;
          // Honor the daemon's hint, jittered, floored by our own backoff.
          sandbox::sleep_seconds(
              std::max(rej.retry_after_seconds, backoff_delay(attempt)));
          if (sandbox::monotonic_seconds() >= deadline) return std::nullopt;
          continue;
        }
        default:
          error_ = "unexpected submit answer: " +
                   std::string(msg_type_name(
                       static_cast<MsgType>(peek_type(payload))));
          return std::nullopt;
      }
    }
    const double delay = backoff_delay(attempt);
    if (sandbox::monotonic_seconds() + delay >= deadline) return std::nullopt;
    sandbox::sleep_seconds(delay);
  }
}

JobOutcome Client::wait_result(
    std::uint64_t job_id, double max_wait_seconds,
    const std::function<void(std::uint64_t, std::uint64_t)>& on_progress) {
  JobOutcome out;
  out.job_id = job_id;
  const double deadline = sandbox::monotonic_seconds() + max_wait_seconds;
  std::string err;
  bool attached = false;
  int attempt = 0;

  while (sandbox::monotonic_seconds() < deadline) {
    if (!connected()) {
      if (!connect()) {
        out.error = error_;
        return out;
      }
      attached = false;
    }
    if (!attached) {
      AttachMsg m;
      m.job_id = job_id;
      if (!send_frame(encode(m))) {
        disconnect();
        sandbox::sleep_seconds(backoff_delay(attempt++));
        continue;
      }
      attached = true;
    }

    std::string payload;
    const double left = deadline - sandbox::monotonic_seconds();
    const auto st = read_frame(
        &payload, std::min(config_.frame_timeout_seconds, std::max(left, 0.0)));
    if (st == sandbox::IoStatus::Timeout) continue;
    if (st != sandbox::IoStatus::Ok) {
      // Daemon restarting (crash-resume) or connection torn: retry with
      // backoff and re-attach by id against the new incarnation.
      disconnect();
      sandbox::sleep_seconds(backoff_delay(attempt++));
      continue;
    }
    attempt = 0;

    switch (static_cast<MsgType>(peek_type(payload))) {
      case MsgType::Status: {
        StatusMsg s;
        if (decode(payload, &s, &err) && s.job_id == job_id && on_progress)
          on_progress(s.evals_done, s.budget);
        break;
      }
      case MsgType::Progress: {
        ProgressMsg p;
        if (decode(payload, &p, &err) && p.job_id == job_id && on_progress)
          on_progress(p.evals_done, p.budget);
        break;
      }
      case MsgType::Result: {
        ResultMsg r;
        if (!decode(payload, &r, &err)) {
          out.error = "bad Result: " + err;
          return out;
        }
        if (r.job_id != job_id) break;  // stale frame for another job
        out.status = r.status;
        out.curve = std::move(r.curve);
        out.error = std::move(r.error);
        return out;
      }
      case MsgType::Reject: {
        RejectMsg rej;
        decode(payload, &rej, &err);
        out.error = std::string(reject_reason_name(rej.reason)) + ": " +
                    rej.message;
        return out;
      }
      default:
        break;  // ignore frames for other jobs on a shared connection
    }
  }
  out.error = "timed out waiting for job result";
  return out;
}

std::optional<InspectOkMsg> Client::inspect(bool include_flight) {
  if (!connected() && !connect()) return std::nullopt;
  InspectMsg m;
  m.include_flight = include_flight;
  if (!send_frame(encode(m))) {
    disconnect();
    error_ = "inspect write failed";
    return std::nullopt;
  }
  std::string payload, err;
  for (;;) {
    const auto st = read_frame(&payload, config_.frame_timeout_seconds);
    if (st != sandbox::IoStatus::Ok) {
      disconnect();
      error_ = std::string("inspect read: ") + sandbox::io_status_name(st);
      return std::nullopt;
    }
    switch (static_cast<MsgType>(peek_type(payload))) {
      case MsgType::InspectOk: {
        InspectOkMsg ok;
        if (!decode(payload, &ok, &err)) {
          error_ = "bad InspectOk: " + err;
          return std::nullopt;
        }
        return ok;
      }
      case MsgType::Reject: {
        RejectMsg rej;
        decode(payload, &rej, &err);
        error_ = std::string("daemon rejected inspect (") +
                 reject_reason_name(rej.reason) + "): " + rej.message;
        return std::nullopt;
      }
      default:
        break;  // Progress/Result for attached jobs on a shared connection
    }
  }
}

bool Client::cancel(std::uint64_t job_id) {
  if (!connected() && !connect()) return false;
  CancelMsg m;
  m.job_id = job_id;
  if (!send_frame(encode(m))) {
    disconnect();
    return false;
  }
  return true;
}

}  // namespace citroen::serve

#include "sandbox/ipc.hpp"

#include <errno.h>
#include <poll.h>
#include <time.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "persist/codec.hpp"

namespace citroen::sandbox {

namespace {

std::uint32_t load_u32le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= std::uint32_t{static_cast<unsigned char>(p[i])} << (8 * i);
  return v;
}

}  // namespace

std::uint32_t max_frame_payload() {
  if (const char* v = std::getenv("CITROEN_IPC_MAX_FRAME")) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (end != v && *end == '\0' && n >= (64ull << 10) && n <= (1ull << 30))
      return static_cast<std::uint32_t>(n);
  }
  return kMaxFramePayload;
}

double monotonic_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void sleep_seconds(double s) {
  if (s <= 0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(s);
  ts.tv_nsec = static_cast<long>((s - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

int keep_only_fd(int fd) {
  constexpr int kKept = 3;
  if (fd != kKept) {
    ::dup2(fd, kKept);
    ::close(fd);
  }
  if (::close_range(kKept + 1, ~0u, 0) != 0) {
    // Kernels before 5.9 lack close_range: close up to the fd limit.
    const long max_fd = ::sysconf(_SC_OPEN_MAX);
    for (long i = kKept + 1; i < max_fd; ++i) ::close(static_cast<int>(i));
  }
  return kKept;
}

std::string encode_frame(std::string_view payload) {
  persist::Writer w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(persist::crc32(payload.data(), payload.size()));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

DecodeStatus FrameDecoder::next(std::string* payload, std::string* error) {
  if (poisoned_) {
    if (error) *error = "decoder poisoned by earlier corruption";
    return DecodeStatus::Corrupt;
  }
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return DecodeStatus::NeedMore;
  const char* head = buf_.data() + pos_;
  const std::uint32_t len = load_u32le(head);
  const std::uint32_t want_crc = load_u32le(head + 4);
  const std::uint32_t cap = max_frame_payload();
  if (len > cap) {
    // Spell out both numbers: a 3.2 GB "length" in the log means a
    // bit-flipped header, a length just past the cap means a legitimate
    // oversized frame that needs CITROEN_IPC_MAX_FRAME raised. Without
    // them the two failure modes are indistinguishable.
    poisoned_ = true;
    if (error)
      *error = "frame length " + std::to_string(len) + " exceeds the " +
               std::to_string(cap) +
               "-byte cap (torn or bit-flipped header, or raise "
               "CITROEN_IPC_MAX_FRAME for oversized frames)";
    return DecodeStatus::Corrupt;
  }
  if (avail < kFrameHeaderBytes + len) return DecodeStatus::NeedMore;
  const char* body = head + kFrameHeaderBytes;
  const std::uint32_t got_crc =
      persist::crc32(static_cast<const void*>(body), len);
  if (got_crc != want_crc) {
    poisoned_ = true;
    if (error) *error = "frame CRC mismatch";
    return DecodeStatus::Corrupt;
  }
  payload->assign(body, len);
  pos_ += kFrameHeaderBytes + len;
  // Reclaim consumed prefix bytes once they dominate the buffer.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return DecodeStatus::Ok;
}

const char* io_status_name(IoStatus s) {
  switch (s) {
    case IoStatus::Ok: return "ok";
    case IoStatus::Eof: return "eof";
    case IoStatus::Timeout: return "timeout";
    case IoStatus::Corrupt: return "corrupt";
    case IoStatus::Error: return "error";
  }
  return "unknown";
}

IoStatus write_frame(int fd, std::string_view payload) {
  if (payload.size() > max_frame_payload()) return IoStatus::Error;
  const std::string frame = encode_frame(payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoStatus::Error;  // EPIPE when the peer died (SIGPIPE ignored)
    }
    off += static_cast<std::size_t>(n);
  }
  return IoStatus::Ok;
}

IoStatus FrameReader::read(std::string* payload, double timeout_seconds,
                           std::string* error) {
  const double deadline =
      timeout_seconds < 0 ? -1.0 : monotonic_seconds() + timeout_seconds;
  bool attempted_read = false;
  for (;;) {
    switch (decoder_.next(payload, error)) {
      case DecodeStatus::Ok:
        return IoStatus::Ok;
      case DecodeStatus::Corrupt:
        return IoStatus::Corrupt;  // the decoder stays poisoned
      case DecodeStatus::NeedMore:
        break;
    }
    // A zero/expired timeout still performs one non-blocking poll+read
    // pass, so read(.., 0.0) drains whatever the fd already holds (the
    // remote engine's post-poll service path depends on this).
    int wait_ms = -1;
    if (deadline >= 0) {
      const double left = deadline - monotonic_seconds();
      if (left <= 0) {
        if (attempted_read) return IoStatus::Timeout;
        wait_ms = 0;
      } else {
        wait_ms = static_cast<int>(left * 1000.0) + 1;
      }
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      if (error) *error = std::strerror(errno);
      return IoStatus::Error;
    }
    if (pr == 0) {
      if (wait_ms != 0) return IoStatus::Timeout;
      attempted_read = true;
      continue;  // re-check the deadline; returns Timeout on the next pass
    }
    char chunk[65536];
    attempted_read = true;
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error) *error = std::strerror(errno);
      return IoStatus::Error;
    }
    if (n == 0) {
      // EOF with a partial frame buffered is a torn stream (the peer died
      // mid-write); the caller learns the why from waitpid, not from us.
      return IoStatus::Eof;
    }
    decoder_.feed(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace citroen::sandbox

#pragma once
// CRC-framed length-prefixed IPC on every lane (sandbox/remote.hpp): a
// forked worker's socketpair or a peer's socket.
//
// Frame layout (all little-endian, mirroring the journal's record frame
// in persist/journal.hpp):
//
//   [u32 payload_len][u32 crc32(payload)][payload bytes]
//
// The decoder is incremental (`FrameDecoder`) so a reader can consume a
// byte stream delivered in arbitrary chunks — and so property tests can
// feed it torn, truncated and bit-flipped messages without a socket in the
// loop. A CRC or length-sanity failure is `Corrupt`, which fails the
// lane (the sandbox then classifies the worker's death like a crash).
//
// Blocking I/O helpers (`write_frame`, `FrameReader::read`) are
// EINTR-safe and deadline-aware via poll(2). SIGPIPE must be ignored
// process-wide (the remote engine and every worker do this at startup);
// a peer that died mid-write then surfaces as EPIPE -> `Error`, not a
// process-killing signal.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace citroen::sandbox {

/// Default ceiling on a frame payload. Real payloads are a few KB; a
/// length word beyond the cap is treated as corruption (a torn/flipped
/// header), so the decoder can fail fast instead of waiting for 4 GB.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Effective frame-payload cap: `CITROEN_IPC_MAX_FRAME` (bytes, clamped
/// to [64 KB, 1 GB]) when set and parsable, else `kMaxFramePayload`.
/// The serving daemon raises it for large multi-module job frames; the
/// env var is consulted on every call so a process (or test) that sets
/// it before opening a stream gets the new cap immediately.
std::uint32_t max_frame_payload();

/// Bytes of framing overhead per message.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Encode one frame around `payload`.
std::string encode_frame(std::string_view payload);

enum class DecodeStatus {
  Ok,        ///< one frame extracted
  NeedMore,  ///< buffered bytes form only a frame prefix (torn message)
  Corrupt,   ///< CRC mismatch or implausible length — unrecoverable
};

/// Incremental frame decoder over an append-only byte stream.
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  void feed(std::string_view bytes) { feed(bytes.data(), bytes.size()); }

  /// Extract the next complete frame into `payload`. On `Corrupt` the
  /// decoder is poisoned (every later call returns Corrupt): a CRC
  /// failure means framing sync is lost for good on a stream transport.
  DecodeStatus next(std::string* payload, std::string* error = nullptr);

  /// Bytes buffered but not yet consumed by a decoded frame.
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  bool poisoned_ = false;
};

enum class IoStatus {
  Ok,
  Eof,      ///< the far end closed the stream cleanly
  Timeout,  ///< deadline expired before a full frame arrived
  Corrupt,  ///< framing-level corruption (see FrameDecoder)
  Error,    ///< errno-level failure (EPIPE, EBADF, ...)
};

const char* io_status_name(IoStatus s);

/// Write one frame, retrying on EINTR and short writes. Blocking.
IoStatus write_frame(int fd, std::string_view payload);

/// Reader side of one stream: owns the incremental decoder so bytes from a
/// read that straddles frames are kept for the next call.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Block until one full frame, EOF, corruption, an fd error or the
  /// deadline. `timeout_seconds` < 0 blocks indefinitely. On Timeout the
  /// partial bytes stay buffered — a later call can still complete the
  /// frame.
  IoStatus read(std::string* payload, double timeout_seconds,
                std::string* error = nullptr);

 private:
  int fd_;
  FrameDecoder decoder_;
};

/// CLOCK_MONOTONIC now, in seconds (deadline arithmetic).
double monotonic_seconds();
/// CLOCK_MONOTONIC now, in nanoseconds (handshake clock offsets).
std::uint64_t monotonic_ns();
/// Sleep `s` seconds, resuming after signals; <= 0 returns at once.
void sleep_seconds(double s);

/// In a freshly forked child: move `fd` to descriptor 3 and close every
/// other descriptor above stdio, so the child holds no end of any pipe,
/// socket or listener the parent owns. Returns the new descriptor.
int keep_only_fd(int fd);

}  // namespace citroen::sandbox

#pragma once
// Peer handshake: the messages a socket peer needs beyond the lane
// protocol every worker speaks (sandbox/protocol.hpp: tagged Job /
// Result / Ping / Pong frames inside ipc.hpp CRC frames). A forked
// sandbox worker inherits its evaluator; a peer shares no memory with
// the pool, so each connection opens with
//
//   Hello    (pool -> peer): u32 proto version, program spec + exec
//            limits — everything a peer needs to reconstruct the pool's
//            ProgramEvaluator from scratch — plus the pool's
//            CLOCK_MONOTONIC send time.
//   HelloOk  (peer -> pool): u64 peer pid, u64 evaluator fingerprint,
//            u64 peer CLOCK_MONOTONIC reply time. The pool compares
//            fingerprints and refuses peers whose evaluator would not
//            be bit-identical to its own; the timestamps give it a
//            per-connection clock offset (remote − local, midpoint
//            estimate) used to re-base the trace events peers piggyback
//            on Result frames into the pool's timeline. Re-measured on
//            every reconnect, so a peer restart or clock step heals on
//            the next handshake.
//   HelloErr (peer -> pool): str reason (unknown program, bad version).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace citroen::sim {
class ProgramEvaluator;
}

namespace citroen::dist {

inline constexpr std::uint32_t kProtocolVersion = 2;

/// Everything a peer needs to rebuild the pool's evaluator bit-exactly:
/// benchmark name + workload seeds (bench_suite::make_program), machine
/// model name (sim::machine_by_name) and interpreter limits.
struct ProgramSpec {
  std::string program;
  std::string machine = "arm";
  std::uint64_t workload_seed = 42;
  std::vector<std::uint64_t> extra_workload_seeds;
  std::uint64_t max_instructions = 0;  ///< 0 = ExecLimits default
  std::uint64_t max_memory_bytes = 0;  ///< 0 = ExecLimits default
  std::int32_t max_call_depth = 0;     ///< 0 = ExecLimits default
};

std::string encode_hello(const ProgramSpec& spec,
                         std::uint64_t pool_now_ns = 0);
bool decode_hello(std::string_view body, ProgramSpec* spec,
                  std::string* error, std::uint64_t* pool_now_ns = nullptr);

std::string encode_hello_ok(std::uint64_t pid, std::uint64_t fingerprint,
                            std::uint64_t peer_now_ns = 0);
bool decode_hello_ok(std::string_view body, std::uint64_t* pid,
                     std::uint64_t* fingerprint,
                     std::uint64_t* peer_now_ns = nullptr);

std::string encode_hello_err(const std::string& reason);
bool decode_hello_err(std::string_view body, std::string* reason);

/// Structural fingerprint of an evaluator: folds the base-program hash,
/// the reference output and the workload count. Two evaluators with the
/// same fingerprint produce bit-identical PureEvalResults for any job,
/// which is the property the pool's byte-identity guarantee needs from
/// a peer it has never shared memory with.
std::uint64_t evaluator_fingerprint(const sim::ProgramEvaluator& eval);

}  // namespace citroen::dist

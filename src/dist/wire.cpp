#include "dist/wire.hpp"

#include "persist/codec.hpp"
#include "sim/evaluator.hpp"

namespace citroen::dist {

std::string encode_hello(const ProgramSpec& spec, std::uint64_t pool_now_ns) {
  persist::Writer w;
  w.u32(kProtocolVersion);
  w.str(spec.program);
  w.str(spec.machine);
  w.u64(spec.workload_seed);
  persist::put(w, spec.extra_workload_seeds);
  w.u64(spec.max_instructions);
  w.u64(spec.max_memory_bytes);
  w.i32(spec.max_call_depth);
  w.u64(pool_now_ns);  // v2: pool CLOCK_MONOTONIC at send time
  return w.take();
}

bool decode_hello(std::string_view body, ProgramSpec* spec,
                  std::string* error, std::uint64_t* pool_now_ns) {
  try {
    persist::Reader r(body.data(), body.size());
    const std::uint32_t version = r.u32();
    if (version != kProtocolVersion) {
      *error = "protocol version mismatch";
      return false;
    }
    spec->program = r.str();
    spec->machine = r.str();
    spec->workload_seed = r.u64();
    persist::get(r, spec->extra_workload_seeds);
    spec->max_instructions = r.u64();
    spec->max_memory_bytes = r.u64();
    spec->max_call_depth = r.i32();
    const std::uint64_t now = r.u64();
    if (pool_now_ns) *pool_now_ns = now;
    if (!r.at_end()) {
      *error = "trailing bytes in hello";
      return false;
    }
    return true;
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
}

std::string encode_hello_ok(std::uint64_t pid, std::uint64_t fingerprint,
                            std::uint64_t peer_now_ns) {
  persist::Writer w;
  w.u64(pid);
  w.u64(fingerprint);
  w.u64(peer_now_ns);  // v2: peer CLOCK_MONOTONIC at reply time
  return w.take();
}

bool decode_hello_ok(std::string_view body, std::uint64_t* pid,
                     std::uint64_t* fingerprint,
                     std::uint64_t* peer_now_ns) {
  try {
    persist::Reader r(body.data(), body.size());
    *pid = r.u64();
    *fingerprint = r.u64();
    const std::uint64_t now = r.u64();
    if (peer_now_ns) *peer_now_ns = now;
    return r.at_end();
  } catch (const std::exception&) {
    return false;
  }
}

std::string encode_hello_err(const std::string& reason) {
  persist::Writer w;
  w.str(reason);
  return w.take();
}

bool decode_hello_err(std::string_view body, std::string* reason) {
  try {
    persist::Reader r(body.data(), body.size());
    *reason = r.str();
    return r.at_end();
  } catch (const std::exception&) {
    return false;
  }
}

std::uint64_t evaluator_fingerprint(const sim::ProgramEvaluator& eval) {
  // FNV-fold the structural program hash with the two scalars a peer
  // could silently diverge on (different workload seeds change the
  // reference checksum; a missing add_workload changes the run count).
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = sim::program_hash(eval.base_program());
  h = (h ^ static_cast<std::uint64_t>(eval.reference_output())) * kPrime;
  h = (h ^ static_cast<std::uint64_t>(eval.num_workloads())) * kPrime;
  return h;
}

}  // namespace citroen::dist

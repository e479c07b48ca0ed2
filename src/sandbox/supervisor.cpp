#include "sandbox/supervisor.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "passes/pass.hpp"
#include "support/env.hpp"

namespace citroen::sandbox {

namespace {

// A run can memoize at most a few hundred thousand distinct candidates;
// past this something is generating garbage and we shed the memo rather
// than grow without bound.
constexpr std::size_t kMaxVerdicts = std::size_t{1} << 20;

SandboxConfig resolved(SandboxConfig config) {
  if (config.workers <= 0)
    config.workers = support::env_int("CITROEN_SANDBOX_WORKERS", 2);
  config.workers = std::clamp(config.workers, 1, 16);
  return config;
}

std::string describe_signal(int sig) {
  const char* name = ::strsignal(sig);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "signal %d (%s)", sig,
                name ? name : "unknown");
  return buf;
}

}  // namespace

SandboxedEvaluator::SandboxedEvaluator(sim::ProgramEvaluator& base,
                                       SandboxConfig config)
    : ForwardingEvaluator(base),
      base_(base),
      config_(resolved(config)),
      engine_(static_cast<std::size_t>(config_.workers), config_,
              /*heartbeat_timeout_seconds=*/0.0,
              {"sandbox_job", "sandbox", "worker",
               "citroen_sandbox_jobs_dispatched_total", nullptr},
              {[this](std::size_t slot, Lane& lane) {
                 return spawn_worker(slot, lane);
               },
               [this](std::size_t job, SandboxResult& res) {
                 on_result(job, res);
               },
               [this](const LaneFailure& f) { return on_failure(f); }}),
      pids_(static_cast<std::size_t>(config_.workers), -1),
      cells_(static_cast<std::size_t>(config_.workers), nullptr) {}

SandboxedEvaluator::~SandboxedEvaluator() {
  // Closing the lanes is the shutdown signal: workers _exit(0) at EOF.
  engine_.close_lanes();
  for (std::size_t slot = 0; slot < pids_.size(); ++slot) {
    pid_t& pid = pids_[slot];
    for (int i = 0; i < 200 && pid > 0; ++i) {  // ~2s grace, then force
      if (::waitpid(pid, nullptr, WNOHANG) != 0)
        pid = 0;  // exited and reaped (or no longer our child)
      else
        sleep_seconds(0.01);
    }
    reap(slot);
  }
  for (ProgressCell* cell : cells_)
    if (cell) unmap_progress_cell(cell);
}

void SandboxedEvaluator::set_fault_injector(
    const sim::FaultInjector* injector) {
  injector_ = injector;
  base_.set_fault_injector(injector);
}

SandboxStats SandboxedEvaluator::sandbox_stats() const {
  SandboxStats s = stats_;
  s.jobs_dispatched = engine_.jobs_dispatched();
  return s;
}

LaneFault SandboxedEvaluator::spawn_worker(std::size_t slot,
                                           Lane& lane) const {
  // The span's 'E' lands in the parent after fork; the child clears its
  // inherited copy of the 'B' in obs::reset_after_fork, so worker rings
  // never carry a dangling half-span.
  OBS_SPAN("worker_spawn", "sandbox");
  OBS_COUNTER_INC("citroen_sandbox_forks_total");
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return LaneFault::Lost;
  ProgressCell*& cell = cells_[slot];
  if (!cell) cell = map_progress_cell();  // best-effort; null tolerated
  if (cell) cell->word.store(0, std::memory_order_relaxed);

  // Forked children inherit stdio buffers; flush so nothing queued in the
  // supervisor can ever be replayed from a worker.
  std::fflush(stdout);
  std::fflush(stderr);
  // fork() here happens while the process is multithreaded (tuner pool
  // threads, the watchdog), so POSIX only guarantees async-signal-safe
  // calls in the child. We lean on glibc, whose fork() quiesces the
  // allocator via internal atfork handlers, making malloc in the child
  // safe even if a pool thread held an arena lock at fork time. The
  // child must still never touch any *application* lock it did not fork
  // quiesced: worker_main detaches the shared prefix cache and thread
  // pool first thing, and everything else it uses (its FrameReader, its
  // private evaluator copy, /proc reads) is process-local. On a libc
  // without fork-safe malloc, spawn workers before starting the pool.
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return LaneFault::Lost;
  }
  if (pid == 0) {
    // Child: keep only this lane. Any other inherited descriptor — a
    // sibling worker's socket, a peer connection, a daemon listener —
    // would keep that channel open after its owner closed it, and the
    // process on the far end would never see EOF.
    const int fd = keep_only_fd(sv[1]);
    worker_main(base_, fd, cell);
  }
  ::close(sv[1]);
  lane.fd = sv[0];
  lane.pid = static_cast<std::uint64_t>(pid);
  if (pids_[slot] != -1) ++stats_.respawns;
  pids_[slot] = pid;
  ++stats_.forks;
  return LaneFault::None;
}

int SandboxedEvaluator::reap(std::size_t slot) const {
  int status = 0;
  pid_t& pid = pids_[slot];
  if (pid <= 0) return status;
  // A garbled stream is not proof of death, so kill before the blocking
  // reap. Against a worker that already exited the signal lands on a
  // zombie — a no-op — and the status still reports the original cause.
  ::kill(pid, SIGKILL);
  if (::waitpid(pid, &status, 0) < 0) status = 0;
  pid = 0;
  return status;
}

void SandboxedEvaluator::trip_breaker(const char* why) const {
  if (tripped_) return;
  tripped_ = true;
  ++stats_.breaker_trips;
  if (obs::trace_enabled())
    obs::emit('I', "breaker_trip", "sandbox", 0, nullptr, 0, why);
  OBS_COUNTER_INC("citroen_sandbox_breaker_trips_total");
  std::fprintf(stderr,
               "[sandbox] circuit breaker tripped (%s) on '%s': degrading "
               "to in-process evaluation (uncontained)\n",
               why, base_.program_name().c_str());
  engine_.stop();
  for (std::size_t slot = 0; slot < pids_.size(); ++slot) reap(slot);
}

std::string SandboxedEvaluator::progress_signature(std::size_t slot) const {
  const ProgressCell* cell = cells_[slot];
  if (!cell) return "no progress cell";
  const Progress p = unpack_progress(cell->word.load(std::memory_order_relaxed));
  char buf[160];
  if (p.stage == WorkerStage::Build) {
    const auto& reg = passes::PassRegistry::instance();
    const char* pass =
        p.pass_id < reg.num_passes()
            ? reg.name_of(static_cast<passes::PassId>(p.pass_id)).c_str()
            : "?";
    std::snprintf(buf, sizeof(buf), "stage build, pass '%s'", pass);
  } else {
    std::snprintf(buf, sizeof(buf), "stage %s", worker_stage_name(p.stage));
  }
  return buf;
}

bool SandboxedEvaluator::on_failure(const LaneFailure& f) const {
  if (f.opening) {
    trip_breaker("worker spawn failed");
    return false;
  }
  const int status = reap(f.lane);
  sim::FailureKind kind = sim::FailureKind::WorkerCrash;
  std::string why;
  const std::string site = progress_signature(f.lane);
  if (f.fault == LaneFault::Timeout) {
    kind = sim::FailureKind::WorkerTimeout;
    why = "sandbox: exceeded " +
          std::to_string(config_.job_wall_timeout_seconds) +
          "s wall deadline (" + site + ")";
  } else if (WIFSIGNALED(status)) {
    const int signo = WTERMSIG(status);
    if (signo == SIGXCPU) {
      kind = sim::FailureKind::WorkerTimeout;
      why = "sandbox: exceeded per-job CPU budget (" + site + ")";
    } else {
      why = "sandbox: worker killed by " + describe_signal(signo) + " (" +
            site + ")";
    }
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != kWorkerExitClean) {
    why = "sandbox: worker exited with status " +
          std::to_string(WEXITSTATUS(status)) + " (" + site + ")";
  } else {
    why = "sandbox: worker vanished mid-job (" + site + ")";
  }
  if (!f.detail.empty()) why += " [" + f.detail + "]";

  // Crash signatures are dynamic strings, so intern() them; the set is
  // bounded by (stage, pass, cause) combinations, not by death count.
  if (obs::trace_enabled())
    obs::emit('I', "worker_death", "sandbox", 0, nullptr, 0,
              obs::intern(why));
  OBS_COUNTER_INC("citroen_sandbox_worker_deaths_total");

  // A worker runs one candidate in a clean address space, so its death
  // mid-job is the candidate's doing. A job whose frame never reached
  // the worker is not: it goes back into the queue.
  if (f.job != kNoJob && f.delivered) {
    Verdict v;
    v.kind = kind;
    v.measured = true;  // a lethal candidate is lethal for both job kinds
    v.why = why;
    remember_verdict(batch_sigs_[f.job], std::move(v));
    if (kind == sim::FailureKind::WorkerTimeout)
      ++stats_.worker_timeouts;
    else
      ++stats_.worker_crashes;
  }
  if (++consecutive_deaths_ >= config_.breaker_threshold)
    trip_breaker("consecutive worker deaths");
  return !f.delivered;
}

void SandboxedEvaluator::remember_verdict(std::uint64_t sig,
                                          Verdict v) const {
  if (verdicts_.size() >= kMaxVerdicts && verdicts_.count(sig) == 0) {
    // Shed only vetted-Ok entries. Fatal verdicts are the containment
    // record itself — after a purge plus a breaker trip, a forgotten
    // lethal candidate would reach the in-process path uncontained.
    // They are bounded by the number of genuinely lethal candidates,
    // which is tiny next to kMaxVerdicts.
    for (auto it = verdicts_.begin(); it != verdicts_.end();) {
      if (it->second.kind == sim::FailureKind::None)
        it = verdicts_.erase(it);
      else
        ++it;
    }
  }
  verdicts_[sig] = std::move(v);
}

void SandboxedEvaluator::on_result(std::size_t job, SandboxResult& res) const {
  consecutive_deaths_ = 0;
  Verdict v;
  if (res.status == ResultStatus::Oom) {
    v.kind = sim::FailureKind::WorkerOOM;
    v.measured = true;
    v.why = "sandbox: evaluation exhausted the worker memory cap";
    ++stats_.jobs_oom;
  } else {
    v.kind = sim::FailureKind::None;
    v.measured = batch_measured_;
    if (res.pure.built && !res.pure.runs.empty())
      base_.install_measure_memo(res.pure.binary_hash, res.pure.runs);
    ++stats_.jobs_ok;
  }
  remember_verdict(batch_sigs_[job], std::move(v));
}

const SandboxedEvaluator::Verdict* SandboxedEvaluator::find_verdict(
    std::uint64_t sig, bool need_measured) const {
  const auto it = verdicts_.find(sig);
  if (it == verdicts_.end()) return nullptr;
  if (it->second.kind == sim::FailureKind::None && need_measured &&
      !it->second.measured)
    return nullptr;  // vetted compile-only; evaluate needs the runs memo
  return &it->second;
}

void SandboxedEvaluator::vet(std::span<const sim::SequenceAssignment> batch,
                             bool with_measure) const {
  if (tripped_) return;
  std::vector<const sim::SequenceAssignment*> jobs;
  std::unordered_set<std::uint64_t> queued;
  batch_sigs_.clear();
  for (const auto& seqs : batch) {
    const std::uint64_t sig = sim::assignment_signature(seqs);
    if (find_verdict(sig, with_measure)) {
      ++stats_.verdict_hits;
      continue;
    }
    if (!queued.insert(sig).second) continue;
    jobs.push_back(&seqs);
    batch_sigs_.push_back(sig);
  }
  if (jobs.empty()) return;

  batch_measured_ = with_measure;
  const bool attach_plan =
      injector_ && (injector_->plan().segv_rate > 0 ||
                    injector_->plan().oom_rate > 0 ||
                    injector_->plan().spin_rate > 0);
  const std::size_t left =
      engine_.run(jobs, with_measure ? JobKind::Evaluate : JobKind::Compile,
                  attach_plan ? &injector_->plan() : nullptr);
  // On a breaker trip mid-batch the remaining candidates keep no verdict;
  // callers fall through to the uncontained in-process path for them.
  if (left > 0) trip_breaker("no live workers");
  // Respawn dead workers now, so the next vetting job pays no fork.
  if (!tripped_) engine_.reopen_lanes();
}

const SandboxedEvaluator::Verdict* SandboxedEvaluator::fatal_verdict(
    const sim::SequenceAssignment& seqs, bool with_measure) const {
  // A tripped breaker stops *new* vetting, but verdicts already earned
  // stay authoritative: a candidate known to kill workers must never
  // reach the in-process path.
  const std::uint64_t sig = sim::assignment_signature(seqs);
  const Verdict* v = find_verdict(sig, with_measure);
  if (!v && !tripped_) {
    vet({&seqs, 1}, with_measure);
    v = find_verdict(sig, with_measure);
  }
  return v && v->kind != sim::FailureKind::None ? v : nullptr;
}

sim::CompileOutcome SandboxedEvaluator::compile(
    const sim::SequenceAssignment& seqs, bool keep_program) const {
  const Verdict* v = fatal_verdict(seqs, /*with_measure=*/false);
  if (!v) return base_.compile(seqs, keep_program);
  sim::CompileOutcome out;
  out.valid = false;
  out.failure = v->kind;
  out.why_invalid = v->why;
  out.transient = false;
  return out;
}

sim::EvalOutcome SandboxedEvaluator::evaluate(
    const sim::SequenceAssignment& seqs) {
  const Verdict* v = fatal_verdict(seqs, /*with_measure=*/true);
  if (!v) return base_.evaluate(seqs);
  sim::EvalOutcome out;
  out.valid = false;
  out.failure = v->kind;
  out.why_invalid = v->why;
  out.transient = false;
  out.attempts = 1;
  return out;
}

void SandboxedEvaluator::prefetch(
    std::span<const sim::SequenceAssignment> batch, bool with_measure) {
  vet(batch, with_measure);
  // Forward only survivors: candidates whose vetting died must never
  // touch the in-process pipeline. Verdict-less candidates (breaker
  // tripped mid-batch) pass through — uncontained beats unevaluated.
  std::vector<sim::SequenceAssignment> survivors;
  survivors.reserve(batch.size());
  for (const auto& seqs : batch) {
    const Verdict* v =
        find_verdict(sim::assignment_signature(seqs), with_measure);
    if (v && v->kind != sim::FailureKind::None) continue;
    survivors.push_back(seqs);
  }
  base_.prefetch(survivors, with_measure);
}

}  // namespace citroen::sandbox

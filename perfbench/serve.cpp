// The serve-sandboxed workload: citroend with a state directory and
// CITROEN_SANDBOX=1, driven by three tenants in a closed loop over
// serve::Client. The tenants take turns: a tenant submits its job, waits
// for the result and hands the turn to the next tenant, so one job is in
// the daemon at a time. A round is nine jobs, three per tenant. Jobs
// cycle through the suite in a seeded order, with random, ga and des
// jobs in turn. A run does --seconds / kRoundSeconds rounds. Every curve is
// then compared byte for byte with serve::serial_replay, in process and
// without a sandbox.
//
// Jobs do not overlap because overlapping sandboxed jobs stall the
// daemon for a time that depends on which job ends first (see
// perfbench/README.md), which no run of this length can average out.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "baselines/tuners.hpp"
#include "bench.hpp"
#include "bench_suite/suite.hpp"
#include "checks.hpp"
#include "heuristics/optimizer.hpp"
#include "passes/pass.hpp"
#include "sandbox/supervisor.hpp"
#include "serve/client.hpp"
#include "serve/job.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"

extern char** environ;

namespace perfbench {

namespace {

using citroen::Vec;
namespace serve = citroen::serve;

constexpr int kTenants = 3;
constexpr std::uint32_t kBudget = 32;
const char* const kMethods[] = {"random", "ga", "des"};
constexpr int kRoundJobs = 9;   // three jobs per tenant
constexpr int kMinRounds = 2;   // the first 15 jobs tune every program once
// Wall time of one round on a 4-core box (GCC 12, Release): a run does
// --seconds / kRoundSeconds rounds, so the jobs it runs do not depend on
// how fast the machine is at the moment.
constexpr double kRoundSeconds = 3.8;
const char* const kThreads = "2";         // CITROEN_THREADS of the daemon
const char* const kSandboxWorkers = "2";  // CITROEN_SANDBOX_WORKERS
const char* const kSocket = "citroend.sock";
const char* const kStateDir = "state";

// The daemon's pid, for the signal handler: a harness that is told to
// stop kills its daemon (whose sandbox workers then see EOF and exit)
// before it goes.
std::atomic<pid_t> g_daemon{0};

void on_signal(int sig) {
  const pid_t pid = g_daemon.load();
  if (pid > 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  ::_exit(128 + sig);
}

/// citroend as a child process, SIGKILLed and reaped on every path that
/// does not stop it cleanly.
class Daemon {
 public:
  Daemon(const std::string& bin, bool sandbox, bool metrics) {
    std::vector<std::string> env;
    for (char** e = environ; *e; ++e)
      if (std::strncmp(*e, "CITROEN_", 8) != 0) env.emplace_back(*e);
    if (sandbox) env.emplace_back("CITROEN_SANDBOX=1");
    env.emplace_back(std::string("CITROEN_THREADS=") + kThreads);
    env.emplace_back(std::string("CITROEN_SANDBOX_WORKERS=") +
                     kSandboxWorkers);
    if (metrics) env.emplace_back("CITROEN_METRICS=1");
    std::vector<std::string> args = {bin,         "--socket",
                                     kSocket,     "--state-dir",
                                     kStateDir,   "--drain-deadline",
                                     "20"};
    std::vector<char*> argv, envp;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (auto& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);
    const int log = ::open("daemon.log", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
      }
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    if (log >= 0) ::close(log);
    g_daemon = pid_;
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      g_daemon = 0;
    }
  }
  bool alive() const {
    return pid_ > 0 && ::waitpid(pid_, nullptr, WNOHANG) == 0;
  }
  /// SIGTERM (graceful drain) and wait; the exit status, or -1.
  int stop() {
    ::kill(pid_, SIGTERM);
    int st = 0;
    ::waitpid(pid_, &st, 0);
    pid_ = 0;
    g_daemon = 0;
    return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
  }

 private:
  pid_t pid_ = 0;
};

struct Job {
  int index = 0, round = 0;
  serve::JobSpec spec;
  double submit = 0, accepted = 0, result = 0, t95 = 0;
  std::vector<std::pair<double, std::uint64_t>> progress;
  serve::JobOutcome outcome;
  std::string error;
};

struct Round {
  bool timed = false;  ///< Inspect polled during the round (traced runs)
  double start = 0.0, end = 0.0;
  std::vector<std::pair<double, double>> busy;  ///< submit..result spans
  std::map<std::string, std::uint64_t> before, after;
  double wall() const { return end - start; }
};

serve::ClientConfig client_config(const std::string& tenant,
                                  std::uint64_t jitter) {
  serve::ClientConfig cc;
  cc.socket_path = kSocket;
  cc.tenant = tenant;
  cc.jitter_seed = jitter;
  cc.frame_timeout_seconds = 120.0;
  return cc;
}

std::map<std::string, std::uint64_t> counters(const serve::InspectOkMsg& m) {
  std::map<std::string, std::uint64_t> c(m.counters.begin(), m.counters.end());
  c["cache_builds"] = m.cache_builds;
  c["cache_hits"] = m.cache_full_hits + m.cache_prefix_hits;
  return c;
}

/// Evaluate one fixed candidate set through a fresh plain evaluator and a
/// fresh sandboxed one; per-candidate milliseconds of each, and whether
/// the outcomes agree bit for bit.
struct SandboxCompare {
  double sim_ms = 0, sandbox_ms = 0;
  bool agree = true;
};

SandboxCompare compare_sandbox(const std::string& program,
                               std::uint64_t seed) {
  auto plain = make_evaluator(program, "arm", {42});
  auto base = make_evaluator(program, "arm", {42});
  citroen::sandbox::SandboxConfig scfg;
  scfg.workers = std::atoi(kSandboxWorkers);
  citroen::sandbox::SandboxedEvaluator boxed(*base, scfg);
  const auto modules = citroen::baselines::select_hot_modules(*plain, 0.9, 3);
  const auto& names = citroen::passes::PassRegistry::instance().pass_names();
  citroen::Rng rng(seed);
  std::vector<citroen::sim::SequenceAssignment> cands;
  for (int i = 0; i < 16; ++i) {
    const auto seq = citroen::heuristics::random_sequence(
        static_cast<int>(names.size()), 60, rng);
    citroen::sim::SequenceAssignment a;
    std::vector<std::string> pass_names;
    for (const int p : seq) pass_names.push_back(names[static_cast<std::size_t>(p)]);
    for (const auto& m : modules) a[m] = pass_names;
    cands.push_back(std::move(a));
  }
  SandboxCompare c;
  std::vector<citroen::sim::EvalOutcome> want, got;
  double t = now();
  for (const auto& a : cands) want.push_back(plain->evaluate(a));
  c.sim_ms = (now() - t) * 1e3 / static_cast<double>(cands.size());
  t = now();
  for (const auto& a : cands) got.push_back(boxed.evaluate(a));
  c.sandbox_ms = (now() - t) * 1e3 / static_cast<double>(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i)
    c.agree = c.agree && want[i].valid == got[i].valid &&
              std::memcmp(&want[i].speedup, &got[i].speedup,
                          sizeof(double)) == 0;
  return c;
}

}  // namespace

void run_serve_sandboxed(const Options& o, RunResult& out) {
  if (o.daemon.empty() || ::access(o.daemon.c_str(), X_OK) != 0)
    throw std::runtime_error("citroend not found: " + o.daemon);
  // The in-process replays below must not pick up sandboxing or peers.
  ::unsetenv("CITROEN_SANDBOX");
  ::unsetenv("CITROEN_DIST");
  ::unsetenv("CITROEN_PEERS");
  ::signal(SIGTERM, on_signal);
  ::signal(SIGINT, on_signal);
  std::error_code ec;
  std::filesystem::remove_all(kStateDir, ec);
  std::filesystem::remove(kSocket, ec);

  // ---- set-up: spawn the daemon, wait for its listener, say Hello ------
  Daemon daemon(o.daemon, o.sandbox, o.trace);
  const double deadline = now() + 30.0;
  while (!std::filesystem::exists(kSocket)) {
    if (!daemon.alive() || now() > deadline)
      throw std::runtime_error("citroend did not start (see daemon.log)");
    ::usleep(1000);
  }
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (int t = 0; t < kTenants; ++t)
    clients.push_back(std::make_unique<serve::Client>(
        client_config("tenant" + std::to_string(t), 1000 + t)));
  if (!clients[0]->connect())
    throw std::runtime_error("first Hello failed: " + clients[0]->error());
  const double setup_s = wall_now() - o.t0;
  std::fprintf(stderr, "perfbench: serve-sandboxed set-up %.3f s\n", setup_s);
  serve::Client observer(client_config("observer", 999));

  const auto programs =
      draw(suite_programs(), suite_programs().size(), mix(o.seed, 0x5e));

  // ---- the closed loop -------------------------------------------------
  // Jobs come in cycles of one job per suite program, in the seeded order
  // `programs`; job k goes to tenant k % kTenants. A job's method and
  // tuner seed depend on its program and cycle only, so every run tunes
  // the same jobs and the seed decides their order: which jobs hit a slow
  // path of the sandbox then does not depend on the seed.
  auto spec_of = [&](int k) {
    const std::size_t n = programs.size();
    const std::size_t cycle = static_cast<std::size_t>(k) / n;
    serve::JobSpec spec;
    spec.program = programs[static_cast<std::size_t>(k) % n];
    const std::size_t index = suite_index(spec.program);
    spec.machine = "arm";
    spec.method = kMethods[(index + cycle) % 3];
    spec.budget = kBudget;
    spec.seed = mix(0x5e7e, 1000 * index + cycle) % 1000000 + 1;
    return spec;
  };
  serve::Client boundary(client_config("observer", 998));
  auto snapshot = [&]() {
    const auto snap = boundary.inspect(false);
    if (!snap) throw std::runtime_error("inspect failed: " + boundary.error());
    return counters(*snap);
  };
  std::vector<Job> jobs;
  std::vector<Round> rounds;
  std::mutex mu;
  std::condition_variable cv;
  int next = 0;
  bool stop = false;
  std::string fatal;
  std::atomic<int> current_round{0};
  std::atomic<bool> done{false}, inspect_failed{false};
  std::vector<double> inspect_ms;
  // Traced runs poll Inspect during every other round; the latency of
  // jobs in polled and quiet rounds gives the tracing overhead.
  auto polled = [&](int r) { return o.trace && r % 2 == 0; };
  std::thread watcher;
  if (o.trace)
    watcher = std::thread([&] {
      while (!done.load()) {
        const double t = now();
        if (polled(current_round.load())) {
          if (!observer.inspect(false)) {
            inspect_failed = true;
            return;
          }
          inspect_ms.push_back((now() - t) * 1e3);
        }
        ::usleep(250000);
      }
    });
  const int num_rounds = std::max(
      kMinRounds, static_cast<int>(o.seconds / kRoundSeconds));
  const double begin = now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t)
    threads.emplace_back([&, t] {
      serve::Client& c = *clients[static_cast<std::size_t>(t)];
      for (;;) {
        int k;
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] { return stop || next % kTenants == t; });
          if (stop) return;
          k = next;
          try {
            if (k % kRoundJobs == 0) {
              const int r = k / kRoundJobs;
              if (r > 0 && o.trace) rounds.back().after = snapshot();
              if (r >= num_rounds) {
                stop = true;
                cv.notify_all();
                return;
              }
              rounds.emplace_back();
              rounds.back().timed = polled(r);
              if (o.trace) rounds.back().before = snapshot();
              current_round = r;
            }
          } catch (const std::exception& e) {
            fatal = e.what();
            stop = true;
            cv.notify_all();
            return;
          }
        }
        Job job;
        job.index = k;
        job.round = k / kRoundJobs;
        job.spec = spec_of(k);
        job.submit = now();
        const auto id = c.submit(job.spec, 60.0);
        job.accepted = now();
        if (id) {
          job.outcome = c.wait_result(
              *id, 150.0, [&job](std::uint64_t evals, std::uint64_t) {
                job.progress.emplace_back(now(), evals);
              });
          if (job.outcome.status != serve::ResultStatus::Ok)
            job.error = "job did not finish Ok: " + job.outcome.error;
        } else {
          job.error = "submit failed: " + c.error();
        }
        job.result = now();
        std::lock_guard<std::mutex> lk(mu);
        Round& rd = rounds.back();
        if (k % kRoundJobs == 0) rd.start = job.submit;
        rd.end = job.result;
        rd.busy.emplace_back(job.submit, job.result);
        jobs.push_back(std::move(job));
        next = k + 1;
        cv.notify_all();
      }
    });
  for (auto& th : threads) th.join();
  const double wall = now() - begin;
  done = true;
  if (watcher.joinable()) watcher.join();
  if (!fatal.empty()) throw std::runtime_error(fatal);
  if (inspect_failed)
    throw std::runtime_error("inspect failed: " + observer.error());
  std::fprintf(stderr, "perfbench: %zu rounds, %zu jobs in %.2f s\n",
               rounds.size(), jobs.size(), wall);

  for (auto& c : clients) c->disconnect();
  observer.disconnect();
  boundary.disconnect();
  const int drain = daemon.stop();
  const double rss = peak_rss_mb(true);
  if (drain != 0) {
    out.correct = false;
    out.notes.push_back("citroend drain exit status " + std::to_string(drain));
  }
  std::filesystem::remove_all(kStateDir, ec);

  // ---- checks: every curve against an in-process serial replay --------
  out.attempted = static_cast<long>(jobs.size());
  for (auto& job : jobs) {
    Check c;
    if (!job.error.empty()) c = Check::fail(job.error);
    if (c.ok) {
      const Vec& curve = job.outcome.curve;
      c = check_curve(curve, static_cast<int>(job.spec.budget),
                      curve.empty() ? 0.0 : curve.back());
    }
    if (c.ok) c = check_curves_identical(job.outcome.curve,
                                         serve::serial_replay(job.spec));
    if (!c.ok) {
      ++out.failed;
      out.notes.push_back("failed job " + std::to_string(job.index) + " " +
                          job.spec.program + "/" + job.spec.method + ": " +
                          c.why);
      job.error = c.why;
      continue;
    }
    // Wall time at which the best-so-far first reached 95% of its end:
    // the first progress frame that covers that evaluation.
    const std::size_t k = first_reaching(job.outcome.curve, 0.95);
    double at = job.result;
    for (const auto& [t, evals] : job.progress)
      if (evals > k) {
        at = t;
        break;
      }
    job.t95 = at - job.submit;
  }

  // ---- metrics --------------------------------------------------------
  if (!o.trace) {
    // Rounds tune different programs, so round totals are averaged over
    // all rounds rather than taken as a median of a few.
    const double n = static_cast<double>(rounds.size());
    std::vector<double> latencies, best;
    double total = 0.0, t95 = 0.0;
    for (const auto& rd : rounds) total += rd.wall();
    for (const auto& job : jobs) {
      latencies.push_back(job.result - job.submit);
      t95 += job.t95;
      if (job.index < static_cast<int>(programs.size()) && job.error.empty())
        best.push_back(job.outcome.curve.back());
    }
    out.put("setup_s", setup_s, "s");
    out.put("tune_s", total / n, "s");
    out.put("time_to_95pct_s", t95 / n, "s");
    out.put("speedup_geomean", geomean(best), "x");
    out.put("peak_rss_mb", rss, "MB");
    out.put("jobs_per_s", static_cast<double>(jobs.size()) / total, "1/s");
    out.put("job_latency_p50_s", median(latencies), "s");
    return;
  }

  std::vector<double> submit_ms, polled_wall, quiet_wall, unattributed;
  for (const auto& job : jobs)
    submit_ms.push_back((job.accepted - job.submit) * 1e3);
  for (const auto& rd : rounds) {
    (rd.timed ? polled_wall : quiet_wall).push_back(rd.wall());
    unattributed.push_back(rd.wall() - union_length(rd.busy));
  }
  auto delta = [&](const std::string& name) {
    std::vector<double> v;
    for (const auto& rd : rounds) {
      const auto a = rd.before.find(name), b = rd.after.find(name);
      const double x = a == rd.before.end() ? 0.0 : a->second;
      const double y = b == rd.after.end() ? 0.0 : b->second;
      v.push_back(y - x);
    }
    return median(v);
  };
  out.put("serve.submit_ms", median(submit_ms), "ms");
  out.put("serve.inspect_ms", median(inspect_ms), "ms");
  out.put("serve.admission_rejects",
          delta("citroend_admission_rejects_total"), "count");
  out.put("sandbox.jobs_dispatched",
          delta("citroen_sandbox_jobs_dispatched_total"), "count");
  out.put("sandbox.forks", delta("citroen_sandbox_forks_total"), "count");
  out.put("persist.journal_bytes", delta("citroen_journal_bytes_total"),
          "bytes");
  out.put("persist.journal_appends", delta("citroen_journal_appends_total"),
          "count");
  out.put("persist.checkpoints", delta("citroen_checkpoints_total"), "count");
  const double builds = delta("cache_builds");
  out.put("sim.prefix_cache_hit_ratio",
          builds > 0 ? delta("cache_hits") / builds : 0.0, "ratio");
  const auto cmp = compare_sandbox(programs[0], mix(o.seed, 0xc0));
  if (!cmp.agree) {
    out.correct = false;
    out.notes.push_back("sandboxed and in-process outcomes differ on " +
                        programs[0]);
  }
  out.put("sandbox.evaluate_ms", cmp.sandbox_ms, "ms");
  out.put("sim.evaluate_ms", cmp.sim_ms, "ms");
  out.put("obs.trace_overhead_ratio", median(polled_wall) / median(quiet_wall),
          "ratio");
  out.put("unattributed_s", median(unattributed), "s");
  fill_missing_layers(out);
}

}  // namespace perfbench

// Shared machinery of the end-to-end benchmark (bench/e2e/README.md): the
// four workloads, the seeded traffic and its wire rendering, the trained
// deployment every workload serves, the open-loop sender, latency
// histograms, the correctness gates, and the line format both binaries print.
//
// Everything here drives iguardd's chain through public calls only — the
// daemon sees nothing but the bytes the benchmark writes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "daemon/daemon.hpp"
#include "harness/testbed_lab.hpp"
#include "io/overload.hpp"
#include "switchsim/pipeline.hpp"
#include "trafficgen/packet.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

// --- workloads ---------------------------------------------------------------

enum class Wire : std::uint8_t { kCsv, kPcap };

struct Workload {
  std::string_view name;
  Wire wire;
  std::size_t shards;
  bool flood;    // long-lived DDoS mix instead of the churn mix
  bool hostile;  // chaos-mangled bytes + an enabled overload gate
  /// Open loops run beside an operator: metrics_text() scrapes every 250 ms
  /// and a reload per run.
  bool operator_load;
};

const std::vector<Workload>& workloads();
/// Null when `name` is not a workload.
const Workload* find_workload(std::string_view name);

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Tiny lab, tiny traffic, tiny windows: every gate and every metric line,
  /// in a few seconds (bench/e2e/check.sh --smoke).
  bool smoke = false;
  /// Scratch directory for the run's trace files and the traced run's
  /// <workload>.spans.json; created if missing.
  std::string work_dir = ".bench_build/work";
};

/// Exits with status 2 and a usage line on bad arguments.
Args parse_args(int argc, char** argv);

// --- model -------------------------------------------------------------------

/// The packet threshold n iguardd serves with; the lab trains at the same n.
inline constexpr std::size_t kServeN = 4;

/// A trained deployment (reduced TestbedLab, Mirai attack) and the
/// DeployedModel view the daemon serves. Owns everything the view points at.
struct Model {
  std::unique_ptr<iguard::harness::TestbedLab> lab;
  iguard::harness::Deployment dep;
  iguard::switchsim::DeployedModel dm;
};

struct SetupTimes {
  double lab_s = 0.0;     // TestbedLab construction (teacher + forests)
  double deploy_s = 0.0;  // deploy_attack: calibration + reward selection
};

std::unique_ptr<Model> build_model(bool smoke, SetupTimes& times);

// --- traffic and wire rendering -----------------------------------------------

/// The workload's seeded packet mix (one pass).
iguard::traffic::Trace make_trace(const Workload& w, std::uint64_t seed, bool smoke);

/// One pass of the workload's records in wire form, plus what it takes to
/// stream pass after pass: record p of pass k is record p of pass 0 with its
/// timestamp shifted by k whole periods and both IP addresses XORed with a
/// per-pass salt, so every pass brings new flows and event time stays
/// monotone. CSV is written fixed-width (zero-padded integer seconds and
/// addresses — the strict reader accepts leading zeros) so a pass is
/// produced by patching bytes, not by formatting; chaos-damaged records that
/// no longer have that shape are streamed unpatched.
class Feed {
 public:
  Feed(const Workload& w, const iguard::traffic::Trace& trace, std::uint64_t seed);

  const std::string& header() const { return header_; }
  /// header + pass 0: the file the closed-loop runs serve.
  std::string pass0() const { return header_ + body_; }
  std::size_t records_per_pass() const { return begin_.size(); }
  /// Mean event-time packet rate of one pass.
  double event_rate() const { return event_rate_; }
  /// Append records [first, last) — indices run across passes — to `out`.
  void render(std::uint64_t first, std::uint64_t last, std::string& out) const;
  /// csv_hostile: chaos-damaged records whose timestamp leaps more than 10 s
  /// past every record around them. They are left out of the stream: the
  /// monotone clamp would pin every later packet to that time, freezing the
  /// event clock (README, finding F1).
  std::size_t leaps_dropped() const { return leaps_dropped_; }

 private:
  struct Patch {
    std::uint32_t sec = 0;  // integer seconds of the timestamp
    std::uint32_t src = 0, dst = 0;
    bool ok = false;        // record has the fixed layout
  };
  void patch(char* rec, const Patch& p, std::uint64_t pass) const;

  Wire wire_;
  std::string header_;
  std::string body_;
  std::vector<std::uint32_t> begin_;  // byte offset of each record in body_
  std::vector<Patch> patch_;
  std::uint32_t period_s_ = 1;
  std::uint64_t salt_seed_ = 0;
  double event_rate_ = 0.0;
  std::size_t leaps_dropped_ = 0;
};

/// iguardd's serving defaults for the workload (n = 4, swap loop on,
/// publish_after_extensions = 0, K shards, registry attached when given),
/// plus the csv_hostile overload gate.
iguard::daemon::DaemonConfig serve_config(const Workload& w, const Feed& feed,
                                          iguard::obs::Registry* metrics);

// --- measurement helpers --------------------------------------------------------

/// Log-linear histogram of nanosecond values: 64 buckets per octave (≤1.6%
/// relative error), preallocated, no allocation per record.
class LatencyHist {
 public:
  LatencyHist();
  void add(std::int64_t ns);
  void merge(const LatencyHist& o);
  std::uint64_t count() const { return count_; }
  std::int64_t max() const { return max_; }
  /// Value at quantile q in [0, 1] (bucket midpoint); 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<std::uint64_t> b_;
  std::uint64_t count_ = 0;
  std::int64_t max_ = 0;
};

double median(std::vector<double> v);
/// The q-quantile of `v`, q in [0, 1], interpolated between order
/// statistics (0 when empty).
double quantile(std::vector<double> v, double q);

/// CPUs the calling thread may run on, ascending.
std::vector<int> allowed_cpus();
/// Restrict the calling thread to `cpus` (no-op when empty). Threads it
/// creates afterwards inherit the set.
void pin_this_thread(const std::vector<int>& cpus);

/// Resident set size of this process in MiB (/proc/self/status VmRSS).
double rss_mib();
/// Return freed heap to the OS so an RSS baseline counts live memory only.
void trim_heap();

// --- open-loop sender -------------------------------------------------------------

/// Open-loop arrival schedule: records arrive in bursts of `burst`, one
/// burst every burst/rate seconds from t0, each record due with its burst —
/// the way a collector hands over a network read's worth of records at a
/// time.
struct Schedule {
  Clock::time_point t0;
  double rate = 1.0;  // records per second
  std::uint64_t burst = 1;

  /// Due time of record i, in ns after t0.
  std::int64_t due_ns(std::uint64_t i) const {
    return static_cast<std::int64_t>(static_cast<double>(i / burst * burst) * 1e9 / rate);
  }
  Clock::time_point at(std::uint64_t i) const { return t0 + std::chrono::nanoseconds(due_ns(i)); }
  /// Records due by `now`.
  std::uint64_t due_by(Clock::time_point now) const {
    const double elapsed = seconds_between(t0, now);
    if (elapsed < 0.0) return 0;
    return (static_cast<std::uint64_t>(elapsed * rate / static_cast<double>(burst)) + 1) * burst;
  }
};

/// Writes the feed's header and then records [0, total) into the
/// non-blocking `fd` on the schedule, from the thread that serves the pipe:
/// each step() writes what is due, and what an earlier step could not fit
/// into the pipe, without blocking. Closes `fd` after the last record.
class Sender {
 public:
  Sender(const Feed& feed, int fd, std::uint64_t total, const Schedule& sched);
  ~Sender();
  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  void step(Clock::time_point now);
  /// Records whose bytes are all in the pipe.
  std::uint64_t written() const { return written_; }
  /// Lateness of each write against the schedule of its first record.
  const LatencyHist& lag() const { return lag_; }

 private:
  const Feed& feed_;
  int fd_;
  std::uint64_t total_;
  Schedule sched_;
  std::string buf_;
  std::size_t at_ = 0;             // bytes of buf_ already written
  std::uint64_t rendered_ = 0, written_ = 0;
  LatencyHist lag_;
};

/// A pipe whose read end feeds the daemon's FdSource. Both ends close on
/// destruction unless handed off.
struct Pipe {
  int rd = -1, wr = -1;
  Pipe();
  ~Pipe();
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  int release_write() {
    const int fd = wr;
    wr = -1;
    return fd;
  }
};

/// For the hostile workload, whose records can be quarantined or shed:
/// the stream index of every record the gate admits, in the order the
/// pipelines will see them — computed by running the same reader and gate
/// over the same bytes, so the n-th processed packet is known exactly.
std::vector<std::uint32_t> admitted_order(const Feed& feed,
                                          const iguard::daemon::DaemonConfig& cfg,
                                          std::uint64_t total);

// --- correctness gates --------------------------------------------------------------

struct Gate {
  bool ok = true;
  std::vector<std::string> findings;
  void check(bool cond, const std::string& what);
};

/// Closed-loop parity gate: one run_synchronous pass (loops = 1) over
/// `path` must equal the oracle on the same bytes — switchsim::replay_sharded
/// for clean inputs, io::ingest_replay_sharded for csv_hostile — member-wise
/// SimStats with labels off, plus the conservation audit. Returns the
/// daemon's stats for the verdict digest.
iguard::daemon::DaemonStats parity_gate(const Workload& w, const Model& m, const Feed& feed,
                                        const std::string& path, Gate& gate);

/// "paths red=.. brown=.. ... dropped=.. tp=.. installs=.." of a run.
std::string verdict_digest(const iguard::switchsim::SimStats& s);

// --- output -------------------------------------------------------------------------

/// `metric <name> <value> <unit>` — the line run.py collects.
void print_metric(std::string_view name, double value, std::string_view unit);
/// `diag <name> <value> <unit> [note]` — printed for people, not collected.
void print_diag(std::string_view name, double value, std::string_view unit,
                std::string_view note = {});
/// hardware_threads, compiler, build type, workload and seed.
void print_header(const Args& a, std::string_view binary);
/// Gate lines and the `result` line; returns the process exit code (0, or 3
/// when a gate failed).
int finish(const Gate& gate, std::uint64_t attempted, std::uint64_t failed);

/// `<work_dir>/<workload>-<seed><suffix>`.
std::string work_path(const Args& a, std::string_view suffix);
void write_file(const std::string& path, const std::string& bytes);

}  // namespace e2e

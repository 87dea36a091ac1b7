#include "e2e.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "io/chaos.hpp"
#include "io/ingest.hpp"
#include "io/replay.hpp"
#include "ml/parallel.hpp"
#include "switchsim/replay.hpp"
#include "trafficgen/attacks.hpp"
#include "trafficgen/benign.hpp"
#include "trafficgen/pcap_io.hpp"

namespace e2e {

using namespace iguard;

// --- workloads ---------------------------------------------------------------

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"csv_churn", Wire::kCsv, 1, false, false, true},
      {"pcap_churn_k2", Wire::kPcap, 2, false, false, false},
      {"pcap_flood", Wire::kPcap, 1, true, false, false},
      {"csv_hostile", Wire::kCsv, 1, false, true, false},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Args parse_args(int argc, char** argv) {
  const auto usage = [&] {
    std::cerr << "usage: " << argv[0]
              << " --workload <name> [--seed N] [--seconds S] [--smoke] [--work-dir DIR]\n"
                 "workloads:";
    for (const auto& w : workloads()) std::cerr << " " << w.name;
    std::cerr << "\n";
    std::exit(2);
  };
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = find_workload(value());
      if (a.workload == nullptr) usage();
    } else if (flag == "--seed") {
      const std::string_view v = value();
      if (std::from_chars(v.data(), v.data() + v.size(), a.seed).ec != std::errc{}) usage();
    } else if (flag == "--seconds") {
      a.seconds = std::atof(std::string(value()).c_str());
      if (!(a.seconds > 0.0) || a.seconds > 600.0) usage();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--work-dir") {
      a.work_dir = value();
    } else {
      usage();
    }
  }
  if (a.workload == nullptr) usage();
  std::filesystem::create_directories(a.work_dir);
  return a;
}

// --- model -------------------------------------------------------------------

std::unique_ptr<Model> build_model(bool smoke, SetupTimes& times) {
  harness::TestbedLabConfig cfg;
  cfg.benign_train_flows = smoke ? 200 : 1000;
  cfg.benign_val_flows = smoke ? 60 : 300;
  cfg.benign_test_flows = smoke ? 60 : 300;
  if (smoke) {
    cfg.attack_flows = 60;
    cfg.scale_grid = {1.1};
    cfg.iforest_grid.resize(1);
  }
  // Trained at the threshold the daemon serves with, so deployed flows see
  // the features the rules were distilled on.
  cfg.packet_threshold_n = kServeN;
  // Training is bit-identical at any thread count; three keeps the process
  // within its thread budget on a 4-thread host.
  cfg.teacher.num_threads = 3;
  cfg.forest.num_threads = 3;

  auto m = std::make_unique<Model>();
  const auto t0 = Clock::now();
  m->lab = std::make_unique<harness::TestbedLab>(cfg);
  const auto t1 = Clock::now();
  m->dep = m->lab->deploy_attack(traffic::AttackType::kMirai);
  const auto t2 = Clock::now();
  m->dm = m->dep.iguard_model();
  times.lab_s = seconds_between(t0, t1);
  times.deploy_s = seconds_between(t1, t2);
  return m;
}

// --- traffic -------------------------------------------------------------------

traffic::Trace make_trace(const Workload& w, std::uint64_t seed, bool smoke) {
  ml::Rng rng(ml::mix64(seed ^ 0xE2E7AFF1Cull));
  std::vector<traffic::Trace> parts;
  traffic::BenignConfig bcfg;
  traffic::AttackConfig acfg;
  if (w.flood) {
    // Few long-lived flows: after each flow's n-th packet it rides the
    // purple (labelled) or red (blacklisted) fast path.
    bcfg.flows = smoke ? 60 : 300;
    acfg.flows = smoke ? 10 : 40;
    parts.push_back(traffic::benign_trace(bcfg, rng));
    for (const auto a : {traffic::AttackType::kUdpDdos, traffic::AttackType::kTcpDdos,
                         traffic::AttackType::kHttpDdos}) {
      parts.push_back(traffic::attack_trace(a, acfg, rng));
    }
  } else {
    // bench_throughput's churn mix: thousands of short botnet/scan flows, so
    // a large share of packets is pre-threshold (brown), a finalisation
    // (blue) or a slot collision (orange).
    bcfg.flows = smoke ? 60 : 600;
    acfg.flows = smoke ? 300 : 5000;
    parts.push_back(traffic::benign_trace(bcfg, rng));
    for (const auto a : {traffic::AttackType::kMirai, traffic::AttackType::kAidra,
                         traffic::AttackType::kOsScan}) {
      parts.push_back(traffic::attack_trace(a, acfg, rng));
    }
  }
  return traffic::merge_traces(std::move(parts));
}

namespace {

// Fixed CSV layout: "SSSSSSSS.UUUUUU,AAAAAAAAAA,BBBBBBBBBB,..." — integer
// seconds at [0,8), source address at [16,26), destination at [27,37).
constexpr std::size_t kCsvSecDigits = 8;
constexpr std::size_t kCsvSrcAt = 16, kCsvDstAt = 27, kCsvIpDigits = 10;
// Pcap record: 16-byte record header (ts_sec first), then Ethernet (14) and
// IPv4, whose source/destination addresses sit at IP offsets 12 and 16.
constexpr std::size_t kPcapRecord = iguard::traffic::kPcapRecordHeaderLen +
                                    iguard::traffic::kPcapMinFrame;
constexpr std::size_t kPcapSrcAt = 16 + 14 + 12, kPcapDstAt = 16 + 14 + 16;

void put_digits(char* at, std::uint64_t v, std::size_t width) {
  for (std::size_t i = width; i-- > 0;) {
    at[i] = static_cast<char>('0' + v % 10);
    v /= 10;
  }
}

bool read_digits(std::string_view s, std::size_t at, std::size_t width, std::uint64_t& out) {
  out = 0;
  for (std::size_t i = at; i < at + width; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    out = out * 10 + static_cast<std::uint64_t>(s[i] - '0');
  }
  return true;
}

std::uint32_t le32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void put_le32(char* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
std::uint32_t be32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return std::uint32_t{u[0]} << 24 | std::uint32_t{u[1]} << 16 | std::uint32_t{u[2]} << 8 | u[3];
}
void put_be32(char* p, std::uint32_t v) {
  p[0] = static_cast<char>(v >> 24);
  p[1] = static_cast<char>(v >> 16);
  p[2] = static_cast<char>(v >> 8);
  p[3] = static_cast<char>(v);
}

std::string render_csv(const traffic::Trace& t) {
  std::string out;
  out.reserve(t.size() * 72);
  char row[160];
  for (const auto& p : t.packets) {
    auto sec = static_cast<std::uint64_t>(p.ts);
    auto usec = static_cast<std::uint64_t>(std::llround((p.ts - static_cast<double>(sec)) * 1e6));
    if (usec >= 1000000) {
      ++sec;
      usec -= 1000000;
    }
    const int n = std::snprintf(row, sizeof(row), "%08llu.%06llu,%010u,%010u,%u,%u,%u,%u,%u,%u,%u,%u\n",
                                static_cast<unsigned long long>(sec),
                                static_cast<unsigned long long>(usec), p.ft.src_ip, p.ft.dst_ip,
                                unsigned{p.ft.src_port}, unsigned{p.ft.dst_port},
                                unsigned{p.ft.proto}, unsigned{p.length}, unsigned{p.ttl},
                                static_cast<unsigned>(p.flags), p.malicious ? 1u : 0u, p.flow_id);
    out.append(row, static_cast<std::size_t>(n));
  }
  return out;
}

}  // namespace

Feed::Feed(const Workload& w, const traffic::Trace& trace, std::uint64_t seed)
    : wire_(w.wire), salt_seed_(ml::mix64(seed ^ 0x5A17ull)) {
  const double span = trace.empty() ? 0.0 : trace.packets.back().ts;
  period_s_ = static_cast<std::uint32_t>(span) + 2;
  event_rate_ = span > 0.0 ? static_cast<double>(trace.size()) / span : 1.0;

  if (wire_ == Wire::kPcap) {
    std::ostringstream os;
    traffic::write_pcap(os, trace);
    const std::string all = os.str();
    header_ = all.substr(0, traffic::kPcapGlobalHeaderLen);
    body_ = all.substr(traffic::kPcapGlobalHeaderLen);
    for (std::size_t at = 0; at + kPcapRecord <= body_.size(); at += kPcapRecord) {
      begin_.push_back(static_cast<std::uint32_t>(at));
      const char* r = body_.data() + at;
      patch_.push_back({le32(r), be32(r + kPcapSrcAt), be32(r + kPcapDstAt), true});
    }
    return;
  }

  header_ = std::string(io::kTraceCsvHeader) + "\n";
  std::string body = render_csv(trace);
  if (w.hostile) {
    // 2% truncated and 2% corrupted records, 5% of 64-record batches
    // replayed and 5% delivered out of order.
    switchsim::FaultConfig fc;
    fc.seed = ml::mix64(seed ^ 0xC4A05ull);
    fc.record_truncate_rate = 0.02;
    fc.record_corrupt_rate = 0.02;
    fc.batch_duplicate_rate = 0.05;
    fc.batch_reorder_rate = 0.05;
    io::ChaosStats cs;
    const std::string mangled = io::mangle_csv(header_ + body, fc, 64, cs);
    body = mangled.substr(mangled.find('\n') + 1);
  }
  // Records are the non-empty lines, exactly as the reader offers them.
  std::vector<std::string_view> lines;
  for (std::size_t at = 0; at < body.size();) {
    std::size_t eol = body.find('\n', at);
    if (eol == std::string::npos) eol = body.size();
    const std::string_view line(body.data() + at, eol - at);
    at = eol + 1;
    if (!line.empty() && line != "\r") lines.push_back(line);
  }
  // A corrupted timestamp that leaps ahead of the records that follow it
  // would pin the stream's event clock; it is dropped instead (finding F1).
  // The reference is the median of the next 128 records (the previous 128
  // at the very end): batch reordering moves records by a batch or two, and
  // one leaping record — or its replayed copy — cannot move a median.
  std::vector<bool> leap(lines.size(), false);
  if (w.hostile) {
    constexpr std::size_t kNear = 128;
    constexpr double kLeapS = 10.0;
    std::vector<double> ts, near;
    for (const auto line : lines) {
      ts.push_back(std::strtod(std::string(line.substr(0, 32)).c_str(), nullptr));
    }
    for (std::size_t i = 0; i < ts.size(); ++i) {
      std::size_t lo = i + 1, hi = std::min(ts.size(), i + 1 + kNear);
      if (hi - lo < kNear / 8) {
        lo = i > kNear ? i - kNear : 0;
        hi = i;
      }
      if (lo >= hi) continue;
      near.assign(ts.begin() + static_cast<std::ptrdiff_t>(lo),
                  ts.begin() + static_cast<std::ptrdiff_t>(hi));
      std::nth_element(near.begin(), near.begin() + near.size() / 2, near.end());
      leap[i] = ts[i] > near[near.size() / 2] + kLeapS;
    }
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (leap[i]) {
      ++leaps_dropped_;
      continue;
    }
    const std::string_view line = lines[i];
    Patch p;
    std::uint64_t sec = 0, src = 0, dst = 0;
    p.ok = line.size() > kCsvDstAt + kCsvIpDigits && line[kCsvSecDigits] == '.' &&
           line[kCsvSrcAt - 1] == ',' && line[kCsvDstAt - 1] == ',' &&
           line[kCsvDstAt + kCsvIpDigits] == ',' && read_digits(line, 0, kCsvSecDigits, sec) &&
           read_digits(line, kCsvSrcAt, kCsvIpDigits, src) &&
           read_digits(line, kCsvDstAt, kCsvIpDigits, dst) && src <= UINT32_MAX &&
           dst <= UINT32_MAX;
    if (p.ok) {
      p.sec = static_cast<std::uint32_t>(sec);
      p.src = static_cast<std::uint32_t>(src);
      p.dst = static_cast<std::uint32_t>(dst);
    }
    begin_.push_back(static_cast<std::uint32_t>(body_.size()));
    patch_.push_back(p);
    body_.append(line);
    body_.push_back('\n');
  }
}

void Feed::patch(char* rec, const Patch& p, std::uint64_t pass) const {
  const auto salt = static_cast<std::uint32_t>(ml::mix64(salt_seed_ ^ pass)) | 1u;
  const std::uint64_t sec = p.sec + pass * period_s_;
  if (wire_ == Wire::kPcap) {
    put_le32(rec, static_cast<std::uint32_t>(sec));
    put_be32(rec + kPcapSrcAt, p.src ^ salt);
    put_be32(rec + kPcapDstAt, p.dst ^ salt);
  } else {
    put_digits(rec, sec, kCsvSecDigits);
    put_digits(rec + kCsvSrcAt, p.src ^ salt, kCsvIpDigits);
    put_digits(rec + kCsvDstAt, p.dst ^ salt, kCsvIpDigits);
  }
}

void Feed::render(std::uint64_t first, std::uint64_t last, std::string& out) const {
  const std::uint64_t n = begin_.size();
  while (first < last) {
    const std::uint64_t pass = first / n;
    const std::uint64_t r = first % n;
    const std::uint64_t r_end = std::min<std::uint64_t>(n, r + (last - first));
    const std::size_t from = begin_[r];
    const std::size_t to = r_end < n ? begin_[r_end] : body_.size();
    const std::size_t base = out.size();
    out.append(body_, from, to - from);
    if (pass > 0) {
      for (std::uint64_t i = r; i < r_end; ++i) {
        if (patch_[i].ok) patch(out.data() + base + (begin_[i] - from), patch_[i], pass);
      }
    }
    first += r_end - r;
  }
}

daemon::DaemonConfig serve_config(const Workload& w, const Feed& feed, obs::Registry* metrics) {
  daemon::DaemonConfig cfg;
  cfg.metrics = metrics;
  // iguardd's serving defaults.
  cfg.pipeline.packet_threshold_n = kServeN;
  cfg.pipeline.swap.enabled = true;
  cfg.pipeline.swap.publish_after_extensions = 0;
  cfg.shards = w.shards;
  if (w.hostile) {
    // Drain below the offered event-time rate, so the gate saturates and
    // sheds whole flows.
    cfg.overload.enabled = true;
    cfg.overload.policy = io::ShedPolicy::kFlowHash;
    cfg.overload.drain_rate_pps = 0.6 * feed.event_rate();
  }
  return cfg;
}

// --- measurement helpers --------------------------------------------------------

namespace {
constexpr std::size_t kSub = 64;          // buckets per octave
constexpr std::size_t kOctaves = 42;      // up to 2^47 ns
std::size_t bucket_of(std::uint64_t v) {
  if (v < kSub) return v;
  const int e = std::bit_width(v) - 1;  // >= 6
  return kSub + static_cast<std::size_t>(e - 6) * kSub + ((v >> (e - 6)) - kSub);
}
double bucket_mid(std::size_t b) {
  if (b < kSub) return static_cast<double>(b);
  const std::size_t e = (b - kSub) / kSub + 6;
  const std::size_t m = (b - kSub) % kSub + kSub;
  const double lo = std::ldexp(static_cast<double>(m), static_cast<int>(e) - 6);
  return lo + std::ldexp(0.5, static_cast<int>(e) - 6);
}
}  // namespace

LatencyHist::LatencyHist() : b_(kSub + kSub * kOctaves, 0) {}

void LatencyHist::add(std::int64_t ns) {
  const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
  ++b_[std::min(bucket_of(v), b_.size() - 1)];
  ++count_;
  max_ = std::max(max_, static_cast<std::int64_t>(v));
}

void LatencyHist::merge(const LatencyHist& o) {
  for (std::size_t i = 0; i < b_.size(); ++i) b_[i] += o.b_[i];
  count_ += o.count_;
  max_ = std::max(max_, o.max_);
}

double LatencyHist::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < b_.size(); ++i) {
    seen += b_[i];
    if (seen >= target) return std::min(bucket_mid(i), static_cast<double>(max_));
  }
  return static_cast<double>(max_);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double at = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

double rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

void trim_heap() { malloc_trim(0); }

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_this_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// --- open-loop sender ------------------------------------------------------------

Sender::Sender(const Feed& feed, int fd, std::uint64_t total, const Schedule& sched)
    : feed_(feed), fd_(fd), total_(total), sched_(sched), buf_(feed.header()) {
  buf_.reserve(1 << 20);
  (void)::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

Sender::~Sender() {
  if (fd_ >= 0) ::close(fd_);
}

void Sender::step(Clock::time_point now) {
  constexpr std::uint64_t kMaxPerWrite = 4096;
  while (fd_ >= 0) {
    while (at_ < buf_.size()) {
      const ssize_t w = ::write(fd_, buf_.data() + at_, buf_.size() - at_);
      if (w > 0) {
        at_ += static_cast<std::size_t>(w);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;  // the pipe is full; the rest goes out on a later step
      } else if (errno != EINTR) {
        ::close(fd_);  // EPIPE: the reader is gone
        fd_ = -1;
        return;
      }
    }
    written_ = rendered_;
    if (rendered_ == total_) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const std::uint64_t due = std::min(total_, sched_.due_by(now));
    if (due <= rendered_) return;
    lag_.add(ns_between(sched_.at(rendered_), now));
    buf_.clear();
    at_ = 0;
    const std::uint64_t last = std::min(due, rendered_ + kMaxPerWrite);
    feed_.render(rendered_, last, buf_);
    rendered_ = last;
  }
}

Pipe::Pipe() {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    std::perror("pipe2");
    std::exit(1);
  }
  rd = fds[0];
  wr = fds[1];
  // A deeper pipe takes the backlog a stall leaves; the default size still works.
  (void)::fcntl(wr, F_SETPIPE_SZ, 1 << 20);
}

Pipe::~Pipe() {
  if (rd >= 0) ::close(rd);
  if (wr >= 0) ::close(wr);
}

std::vector<std::uint32_t> admitted_order(const Feed& feed, const daemon::DaemonConfig& cfg,
                                          std::uint64_t total) {
  constexpr std::uint64_t kChunk = 4096;
  io::TraceReaderConfig rc = cfg.reader;
  rc.metrics = nullptr;
  rc.limits.quarantine_capacity = kChunk;
  const io::TraceReader reader(rc);
  io::OverloadGate gate(cfg.overload);
  std::vector<std::uint32_t> order;
  order.reserve(total);
  std::vector<traffic::Packet> admit;
  std::vector<char> quarantined(kChunk);
  std::string buf;
  double running = 0.0;  // the daemon's stream-level monotone clamp
  for (std::uint64_t first = 0; first < total; first += kChunk) {
    const std::uint64_t last = std::min(total, first + kChunk);
    buf = feed.header();
    feed.render(first, last, buf);
    const io::IngestResult r = reader.read_buffer(buf);
    std::fill(quarantined.begin(), quarantined.end(), 0);
    for (std::size_t i = 0; i < r.quarantine.size(); ++i) {
      quarantined[r.quarantine[i].record_index] = 1;
    }
    auto it = r.trace.packets.begin();
    for (std::uint64_t i = 0; i < last - first; ++i) {
      if (quarantined[i] != 0) continue;
      traffic::Packet q = *it++;
      q.flow_id = static_cast<std::uint32_t>(first + i);
      if (q.ts < running) {
        q.ts = running;
      } else {
        running = q.ts;
      }
      gate.offer(q, admit);
    }
    for (const auto& a : admit) order.push_back(a.flow_id);
    admit.clear();
  }
  gate.flush(admit);
  for (const auto& a : admit) order.push_back(a.flow_id);
  return order;
}

// --- correctness gates --------------------------------------------------------------

void Gate::check(bool cond, const std::string& what) {
  if (!cond) {
    ok = false;
    findings.push_back(what);
  }
}

namespace {

std::string sim_diff(const switchsim::SimStats& a, const switchsim::SimStats& b) {
  std::ostringstream os;
  const auto field = [&](const char* name, std::size_t x, std::size_t y) {
    if (x != y) os << " " << name << "=" << x << "/" << y;
  };
  for (std::size_t i = 0; i < a.path_count.size(); ++i) {
    field(("path" + std::to_string(i)).c_str(), a.path_count[i], b.path_count[i]);
  }
  field("packets", a.packets, b.packets);
  field("dropped", a.dropped, b.dropped);
  field("green_mirrors", a.green_mirrors, b.green_mirrors);
  field("flows_classified", a.flows_classified, b.flows_classified);
  field("tp", a.tp, b.tp);
  field("fp", a.fp, b.fp);
  field("installs", a.faults.installs_applied, b.faults.installs_applied);
  field("leaked", a.faults.leaked_packets, b.faults.leaked_packets);
  field("publishes", a.swap.publishes, b.swap.publishes);
  const std::string s = os.str();
  return s.empty() ? " (differs outside the listed fields)" : s;
}

}  // namespace

daemon::DaemonStats parity_gate(const Workload& w, const Model& m, const Feed& feed,
                                const std::string& path, Gate& gate) {
  obs::Registry reg;
  daemon::DaemonConfig cfg = serve_config(w, feed, &reg);
  cfg.source.path = path;
  cfg.source.loops = 1;
  daemon::DaemonStats s;
  {
    daemon::Daemon d(cfg, m.dm);
    d.run_synchronous();
    s = d.stats();
  }
  const std::string audit = daemon::audit_daemon_conservation(s);
  gate.check(audit.empty(), "parity pass conservation: " + audit);

  switchsim::PipelineConfig pc = cfg.pipeline;
  pc.record_labels = false;
  switchsim::ReplayConfig rc;
  rc.shards = cfg.shards;
  rc.shard_seed = cfg.shard_seed;
  rc.num_threads = 1;
  const std::string bytes = feed.pass0();
  if (!w.hostile) {
    const io::IngestResult in = io::TraceReader(cfg.reader).read_buffer(bytes);
    const auto oracle = switchsim::replay_sharded(in.trace, pc, m.dm, rc);
    gate.check(s.sim == oracle.stats,
               "daemon vs replay_sharded SimStats differ (daemon/oracle):" +
                   sim_diff(s.sim, oracle.stats));
    gate.check(s.ingest.offered == in.stats.offered && s.ingest.accepted == in.stats.accepted &&
                   s.ingest.quarantined == in.stats.quarantined,
               "daemon vs reader ingest counts differ");
  } else {
    io::IngestReplayConfig ic;
    ic.reader = cfg.reader;
    ic.overload = cfg.overload;
    const auto oracle = io::ingest_replay_sharded(std::string_view(bytes), ic, pc, m.dm, rc);
    gate.check(s.sim == oracle.replay.stats,
               "daemon vs ingest_replay_sharded SimStats differ (daemon/oracle):" +
                   sim_diff(s.sim, oracle.replay.stats));
    gate.check(s.ingest.offered == oracle.ingest.offered &&
                   s.ingest.accepted == oracle.ingest.accepted &&
                   s.ingest.quarantined == oracle.ingest.quarantined &&
                   s.ingest.by_category == oracle.ingest.by_category,
               "daemon vs ingest_replay_sharded ingest counts differ");
    gate.check(s.gate == oracle.overload, "daemon vs ingest_replay_sharded gate stats differ");
    const std::string oaudit = io::audit_ingest_conservation(oracle);
    gate.check(oaudit.empty(), "oracle conservation: " + oaudit);
  }
  return s;
}

std::string verdict_digest(const switchsim::SimStats& s) {
  std::ostringstream os;
  os << "paths red=" << s.path(switchsim::Path::kRed)
     << " brown=" << s.path(switchsim::Path::kBrown) << " blue=" << s.path(switchsim::Path::kBlue)
     << " orange=" << s.path(switchsim::Path::kOrange)
     << " purple=" << s.path(switchsim::Path::kPurple) << " packets=" << s.packets
     << " dropped=" << s.dropped << " tp=" << s.tp << " fp=" << s.fp << " tn=" << s.tn
     << " fn=" << s.fn << " installs=" << s.faults.installs_applied
     << " flows_classified=" << s.flows_classified << " publishes=" << s.swap.publishes;
  return os.str();
}

// --- output -------------------------------------------------------------------------

void print_metric(std::string_view name, double value, std::string_view unit) {
  std::printf("metric %.*s %.17g %.*s\n", static_cast<int>(name.size()), name.data(), value,
              static_cast<int>(unit.size()), unit.data());
}

void print_diag(std::string_view name, double value, std::string_view unit,
                std::string_view note) {
  std::printf("diag %.*s %.17g %.*s%s%.*s\n", static_cast<int>(name.size()), name.data(), value,
              static_cast<int>(unit.size()), unit.data(), note.empty() ? "" : " ",
              static_cast<int>(note.size()), note.data());
}

void print_header(const Args& a, std::string_view binary) {
  std::printf("info binary %.*s\n", static_cast<int>(binary.size()), binary.data());
  std::printf("info workload %.*s seed %llu seconds %g%s\n",
              static_cast<int>(a.workload->name.size()), a.workload->name.data(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.smoke ? " smoke" : "");
  std::printf("info hardware_threads %u\n", std::thread::hardware_concurrency());
#if defined(__clang__)
  std::printf("info compiler clang %s\n", __clang_version__);
#elif defined(__GNUC__)
  std::printf("info compiler gcc %s\n", __VERSION__);
#endif
  std::printf("info build_type %s\n", E2E_BUILD_TYPE);
  std::fflush(stdout);
}

int finish(const Gate& gate, std::uint64_t attempted, std::uint64_t failed) {
  for (const auto& f : gate.findings) std::printf("gate FAIL %s\n", f.c_str());
  std::printf("gate %s\n", gate.ok ? "ok" : "FAILED");
  std::printf("result correct=%d attempted=%llu failed=%llu\n", gate.ok ? 1 : 0,
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  std::fflush(stdout);
  return gate.ok ? 0 : 3;
}

std::string work_path(const Args& a, std::string_view suffix) {
  return a.work_dir + "/" + std::string(a.workload->name) + "-" + std::to_string(a.seed) +
         std::string(suffix);
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!f) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
}

}  // namespace e2e

#include "switchsim/pipeline.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>

namespace iguard::switchsim {

namespace {
void count(SimStats& s, Path p) { ++s.path_count[static_cast<std::size_t>(p)]; }

/// PL whitelist width: {dst_port, proto, length, TTL}.
constexpr std::size_t kPlFeatures = 4;

constexpr const char* kPathNames[6] = {"red", "brown", "blue", "orange", "purple", "green"};

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

const PipelineConfig& checked(const PipelineConfig& cfg) {
  if (const std::string err = validate_config(cfg); !err.empty()) {
    const std::size_t colon = err.find(':');
    throw ConfigError("PipelineConfig", err.substr(0, colon),
                      colon == std::string::npos ? err : err.substr(colon + 2));
  }
  return cfg;
}
}  // namespace

std::string validate_config(const PipelineConfig& cfg) {
  if (cfg.flow_slots == 0) return "flow_slots: must be >= 1 (got 0)";
  // The flow store and the blacklist are allocated whole at construction;
  // past these bounds a typo would abort on std::bad_alloc instead of
  // being reported.
  if (cfg.flow_slots > FlowStore::kMaxSlotsPerTable) {
    return "flow_slots: must be <= 2^24 (got " + std::to_string(cfg.flow_slots) + ")";
  }
  if (cfg.blacklist_capacity > BlacklistTable::kMaxCapacity) {
    return "blacklist_capacity: must be <= 2^24 (got " +
           std::to_string(cfg.blacklist_capacity) + ")";
  }
  // to_us() casts delta * 1e6 to uint64; past 2^64 that cast is undefined.
  const double d = cfg.idle_timeout_delta;
  if (!std::isfinite(d) || d * 1e6 >= 0x1p64) {
    return "idle_timeout_delta: must be finite and < 2^64/1e6 s (got " + std::to_string(d) + ")";
  }
  return {};
}

Pipeline::Pipeline(const PipelineConfig& cfg, const DeployedModel& model)
    : cfg_(checked(cfg)),
      deployment_(model),
      store_(cfg.flow_slots),
      blacklist_(cfg.blacklist_capacity, cfg.eviction),
      controller_(blacklist_, cfg.control, &store_, cfg.metrics,
                  cfg.metrics_prefix + ".control") {
  if (deployment_ == nullptr) throw std::invalid_argument("Pipeline: model bundle is null");
  if (cfg_.metrics != nullptr && cfg_.metrics->enabled()) {
    obs_.enabled = true;
    const std::string& p = cfg_.metrics_prefix;
    for (std::size_t i = 0; i < 6; ++i) {
      obs_.path_packets[i] = cfg_.metrics->counter(p + ".path." + kPathNames[i] + ".packets");
      obs_.path_ns[i] = cfg_.metrics->histogram(
          "timing." + p + ".process_ns." + kPathNames[i], obs::default_latency_bounds_ns());
    }
    obs_.flow_occupancy = cfg_.metrics->gauge(p + ".flow_store.occupancy");
    obs_.blacklist_occupancy = cfg_.metrics->gauge(p + ".blacklist.occupancy");
    obs_.blacklist_evictions = cfg_.metrics->counter(p + ".blacklist.evictions");
    obs_.leaked_packets = cfg_.metrics->counter(p + ".leaked_packets");
  }
  if (cfg_.swap.enabled) {
    // The deployment bundle is the handle's version 1. Bundles are
    // immutable, so online updates land in the loop's staging copy and
    // reach the data plane only through a newly published version.
    swap_ = std::make_unique<SwapLoop>(cfg_.swap, deployment_, controller_, cfg_.metrics,
                                       cfg_.metrics_prefix);
    controller_.set_update_sink(swap_.get());
    bound_ = swap_->pin_current();
  } else {
    bound_ = deployment_.get();
  }
}

int Pipeline::classify_pl(const traffic::Packet& p) const {
  if (!bound_->has_pl()) return 0;
  const double f[kPlFeatures] = {static_cast<double>(p.ft.dst_port),
                                 static_cast<double>(p.ft.proto),
                                 static_cast<double>(p.length), static_cast<double>(p.ttl)};
  std::array<std::uint32_t, kPlFeatures> key;
  bound_->pl_q.quantize_into(f, key);
  return bound_->pl_compiled.classify(key);
}

void Pipeline::finalize_flow(const traffic::Packet& p, std::uint64_t flow_key, IntFlowState& st,
                             SimStats& stats) {
  const auto f = st.finalize();
  std::array<std::uint32_t, kSwitchFlFeatures> key;
  bound_->fl_q.quantize_into(f, key);
  const int label = bound_->fl_compiled.classify(key);
  st.label = static_cast<std::int8_t>(label);
  ++stats.flows_classified;
  // Digest (5-tuple + label) regardless of match outcome (§2, step 10a),
  // stamped with the triggering packet's timestamp: the install becomes
  // visible only once the control plane catches up (faults.hpp).
  controller_.on_digest({p.ft, label}, p.ts);
  if (label == 1) malicious_classified_.insert(flow_key);
  if (label == 0) {
    // Egress mirror of benign FL features to the CPU for whitelist updates.
    ++stats.benign_feature_mirrors;
    if (swap_ != nullptr) {
      BenignMirror m;
      m.key = key;
      for (std::size_t j = 0; j < kSwitchFlFeatures; ++j) m.features[j] = f[j];
      controller_.on_benign_mirror(m, p.ts);
    }
  }
  st.clear_features();
  // Mirror to loopback to commit the label (green path, simulated inline).
  // Mirrors are copies, not packets of their own: tracked separately so
  // path_count still sums to exactly stats.packets.
  ++stats.green_mirrors;
}

int Pipeline::process(const traffic::Packet& p, SimStats& stats) {
  // Per-path latency is sampled (kLatencySampleEvery): the two clock reads
  // and the histogram record would otherwise cost more than a red or purple
  // decision. The path, and so the histogram, is known only at the end.
  const bool timed = obs_.enabled && packet_index_++ % kLatencySampleEvery == 0;
  const std::uint64_t t0 = timed ? steady_ns() : 0;
  // Apply control-plane work due by this packet's time before the lookup:
  // with zero latency and no faults this is exactly the lockstep model (an
  // install triggered by packet i has always only affected packets > i).
  controller_.advance_to(p.ts);
  if (swap_ != nullptr) {
    // Hitless pickup: publish anything due by now, then pin; the steady
    // state is two atomic loads.
    bound_ = swap_->advance_and_pin(p.ts);
  }
  ++stats.packets;
  const std::uint8_t truth = p.malicious ? 1 : 0;
  if (cfg_.record_labels) stats.truth.push_back(truth);
  // The one bidirectional flow key this packet needs: blacklist lookup,
  // malicious-classified marking, and the leak check all share it.
  const std::uint64_t flow_key = BlacklistTable::flow_key(p.ft);
  int verdict = 0;
  Path path = Path::kRed;

  if (blacklist_.contains_key(flow_key)) {
    // --- red -----------------------------------------------------------
    count(stats, Path::kRed);
    ++stats.blacklist_hits;
    verdict = 1;
  } else {
    auto acc = store_.access(p.ft);
    if (acc.inserted) ++slots_claimed_;
    if (acc.collision) {
      // --- orange --------------------------------------------------------
      count(stats, Path::kOrange);
      path = Path::kOrange;
      ++stats.collisions;
      IntFlowState& resident = *acc.state;
      if (resident.label >= 0) {
        // Resident flow already classified: reclaim the slot for this flow.
        store_.clear_slot(resident);
        resident.update(p, acc.sig);
        ++stats.green_mirrors;  // loopback mirror re-initialises flow ID
      }
      verdict = classify_pl(p);
    } else {
      IntFlowState& st = *acc.state;
      if (acc.found && st.label >= 0) {
        // --- purple --------------------------------------------------------
        count(stats, Path::kPurple);
        path = Path::kPurple;
        verdict = st.label;
      } else {
        // Shared seconds->µs clamp (flow_state.hpp). The raw cast this code
        // used before was UB for negative timestamps: they wrapped to huge
        // values that force-fired the idle timeout and skewed deployment
        // epochs away from the training extractor's.
        const std::uint64_t now_us = to_us(p.ts);
        const std::uint64_t delta_us = to_us(cfg_.idle_timeout_delta);
        const bool timed_out = cfg_.idle_timeout_delta > 0.0 && st.pkt_count > 0 &&
                               now_us > st.last_ts_us && now_us - st.last_ts_us > delta_us;
        if (timed_out) {
          // --- blue (timeout flavour) --------------------------------------
          // The idle flow is finalised with what it had; the triggering
          // packet then seeds the fresh feature epoch — exactly what
          // extract_switch_features does on timeout, so deployed flows see
          // the same features the FL rules were trained on. The packet
          // itself still gets a PL verdict (its FL epoch just began).
          count(stats, Path::kBlue);
          path = Path::kBlue;
          finalize_flow(p, flow_key, st, stats);
          st.update(p, acc.sig);
          verdict = classify_pl(p);
        } else {
          st.update(p, acc.sig);
          if (cfg_.packet_threshold_n > 0 && st.pkt_count >= cfg_.packet_threshold_n) {
            // --- blue (n-th packet) ----------------------------------------
            count(stats, Path::kBlue);
            path = Path::kBlue;
            finalize_flow(p, flow_key, st, stats);
            verdict = st.label;
          } else {
            // --- brown -----------------------------------------------------
            count(stats, Path::kBrown);
            path = Path::kBrown;
            verdict = classify_pl(p);
          }
        }
      }
    }
  }

  if (cfg_.record_labels) stats.pred.push_back(static_cast<std::uint8_t>(verdict));
  if (verdict == 1) {
    ++(truth ? stats.tp : stats.fp);
    ++stats.dropped;
  } else {
    ++(truth ? stats.fn : stats.tn);
    if (malicious_classified_.contains(flow_key)) {
      // Detection already happened for this flow but enforcement has not
      // landed (install in flight, lost, or the flow label was evicted).
      ++stats.faults.leaked_packets;
      obs_.leaked_packets.inc();
    }
  }
  if (obs_.enabled) {
    const std::size_t pi = static_cast<std::size_t>(path);
    obs_.path_packets[pi].inc();
    obs_.flow_occupancy.set(static_cast<double>(slots_claimed_));
    obs_.blacklist_occupancy.set(static_cast<double>(blacklist_.size()));
    const std::size_t ev = blacklist_.evictions();
    if (ev != last_evictions_) {
      obs_.blacklist_evictions.inc(ev - last_evictions_);
      last_evictions_ = ev;
    }
    if (timed) obs_.path_ns[pi].record(static_cast<double>(steady_ns() - t0));
  }
  return verdict;
}

SimStats Pipeline::run(const traffic::Trace& trace) {
  SimStats stats;
  if (cfg_.record_labels) {
    stats.pred.reserve(trace.size());
    stats.truth.reserve(trace.size());
  }
  for (const auto& p : trace.packets) process(p, stats);
  finish_stream(stats);
  return stats;
}

void Pipeline::finish_stream(SimStats& stats) {
  controller_.flush();
  if (swap_ != nullptr) {
    // The flush above may have delivered late mirrors that triggered one
    // more publish; finish() makes it live and reclaims retired versions.
    swap_->finish();
    bound_ = swap_->handle().current();
    stats.swap = swap_->stats();
  }
  const std::size_t leaked = stats.faults.leaked_packets;
  stats.faults = controller_.fault_stats();
  stats.faults.leaked_packets = leaked;
}

bool Pipeline::request_model_publish(double ts_s) {
  if (swap_ == nullptr) return false;
  swap_->request_publish(ts_s);
  return true;
}

}  // namespace iguard::switchsim

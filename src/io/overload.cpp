#include "io/overload.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <thread>

#include "io/spsc_ring.hpp"
#include "switchsim/faults.hpp"

namespace iguard::io {

std::string_view shed_policy_name(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kDropNewest: return "drop_newest";
    case ShedPolicy::kDropOldest: return "drop_oldest";
    case ShedPolicy::kFlowHash: return "flow_hash";
  }
  return "unknown";
}

std::string validate_config(const OverloadConfig& cfg) {
  if (cfg.queue_capacity == 0) return "queue_capacity: must be >= 1 (got 0)";
  if (std::isnan(cfg.drain_rate_pps) || std::isinf(cfg.drain_rate_pps) ||
      cfg.drain_rate_pps < 0.0) {
    return "drain_rate_pps: must be finite and >= 0 (got " +
           std::to_string(cfg.drain_rate_pps) + ")";
  }
  if (std::isnan(cfg.flow_shed_fraction) || cfg.flow_shed_fraction < 0.0 ||
      cfg.flow_shed_fraction > 1.0) {
    return "flow_shed_fraction: must be in [0, 1] (got " +
           std::to_string(cfg.flow_shed_fraction) + ")";
  }
  return {};
}

OverloadGate::OverloadGate(const OverloadConfig& cfg) : cfg_(cfg) {
  if (const std::string err = validate_config(cfg_); !err.empty()) {
    const std::size_t colon = err.find(':');
    throw switchsim::ConfigError("OverloadConfig", err.substr(0, colon),
                                 colon == std::string::npos ? err : err.substr(colon + 2));
  }
}

bool OverloadGate::flow_in_shed_set(const traffic::FiveTuple& ft) const {
  if (cfg_.flow_shed_fraction <= 0.0) return false;
  if (cfg_.flow_shed_fraction >= 1.0) return true;
  return static_cast<double>(traffic::bihash(ft, cfg_.seed)) <
         cfg_.flow_shed_fraction *
             static_cast<double>(std::numeric_limits<std::uint64_t>::max());
}

void OverloadGate::drain_to(double ts_s, std::vector<traffic::Packet>& out) {
  const double elapsed = std::max(0.0, ts_s - t0_);
  const auto tokens = static_cast<std::uint64_t>(elapsed * cfg_.drain_rate_pps);
  while (drained_ < tokens && head_ < queue_.size()) {
    out.push_back(queue_[head_++]);
    ++drained_;
    ++stats_.admitted;
  }
  if (head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
  } else if (head_ > 4096 && head_ * 2 > queue_.size()) {
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void OverloadGate::offer(const traffic::Packet& p, std::vector<traffic::Packet>& out) {
  ++stats_.offered;
  if (!cfg_.enabled || cfg_.drain_rate_pps == 0.0) {
    ++stats_.admitted;
    out.push_back(p);
    return;
  }
  if (!clock_started_) {
    clock_started_ = true;
    t0_ = p.ts;
  }
  drain_to(p.ts, out);

  if (queue_.empty()) {
    // Idle→busy edge: rebase the event clock at the start of each busy
    // period. This both forfeits tokens banked while the queue was empty
    // (an idle server must not save capacity for a later burst) and keeps
    // `elapsed * drain_rate_pps` proportional to the busy period instead of
    // the stream lifetime — against a fixed t0_ the product eventually
    // passes 2^53, where doubles stop resolving single tokens and the gate
    // silently freezes or over-admits on long horizons.
    t0_ = p.ts;
    drained_ = 0;
  }

  const std::size_t queued = queue_.size() - head_;
  if (queued < cfg_.queue_capacity) {
    queue_.push_back(p);
    stats_.queue_hwm = std::max(stats_.queue_hwm, queued + 1);
    return;
  }
  switch (cfg_.policy) {
    case ShedPolicy::kDropNewest:
      ++stats_.shed;
      ++stats_.shed_newest;
      return;
    case ShedPolicy::kDropOldest:
      ++head_;
      ++stats_.shed;
      ++stats_.shed_oldest;
      queue_.push_back(p);
      return;
    case ShedPolicy::kFlowHash:
      if (flow_in_shed_set(p.ft)) {
        ++stats_.shed;
        ++stats_.shed_flow_hash;
        return;
      }
      ++head_;
      ++stats_.shed;
      ++stats_.shed_oldest;
      queue_.push_back(p);
      return;
  }
}

void OverloadGate::flush(std::vector<traffic::Packet>& out) {
  while (head_ < queue_.size()) {
    out.push_back(queue_[head_++]);
    ++stats_.admitted;
  }
  queue_.clear();
  head_ = 0;
}

ShedResult shed_overload(const traffic::Trace& trace, const OverloadConfig& cfg) {
  OverloadGate gate(cfg);
  ShedResult r;
  r.admitted.packets.reserve(trace.size());
  for (const auto& p : trace.packets) gate.offer(p, r.admitted.packets);
  gate.flush(r.admitted.packets);
  r.stats = gate.stats();
  return r;
}

traffic::Trace pump_through_ring(const traffic::Trace& trace, std::size_t ring_capacity,
                                 RingPumpStats& stats, std::size_t produce_count) {
  SpscRing<traffic::Packet> ring(ring_capacity);
  const std::size_t to_produce = std::min(produce_count, trace.size());
  traffic::Trace out;
  out.packets.resize(to_produce);

  // The daemon's hand-off protocol: bulk pushes, and a full ring parks the
  // producer until the consumer's next pop instead of spinning.
  std::uint64_t push_retries = 0;
  std::thread producer([&] {
    std::span<const traffic::Packet> rest(trace.packets.data(), to_produce);
    while (!rest.empty()) {
      const std::size_t n = ring.try_push_n(rest);
      if (n > 0) {
        rest = rest.subspan(n);
      } else {
        ++push_retries;  // backpressure: wait, never drop
        ring.wait_while_full();
      }
    }
    ring.close();
  });

  // Drain until the producer closes the ring and the residue is popped.
  // Keying the exit on the close signal instead of an expected count means a
  // producer that stops early (truncated source, shutdown) ends the pump
  // instead of live-locking the consumer.
  std::size_t got = 0;
  const auto pop = [&] {
    const std::size_t n = ring.try_pop_n(std::span(out.packets).subspan(got));
    got += n;
    return n;
  };
  for (;;) {
    if (pop() > 0) continue;
    if (ring.closed()) {
      // close() is stored after the final push; re-check once after
      // observing it so that push cannot be missed.
      if (pop() == 0) break;
      continue;
    }
    ++stats.pop_retries;
    std::this_thread::yield();
  }
  producer.join();
  out.packets.resize(got);

  stats.pushed += to_produce;
  stats.popped += got;
  stats.push_retries += push_retries;
  return out;
}

}  // namespace iguard::io

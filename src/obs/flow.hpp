// Message-flow tracing: seeded sampling of packet journeys through the
// overlay router — the fifth layer of the observability subsystem.
//
// A FlowSampler attaches to a Network (at most one per network, held in the
// network's flow-sampler slot) and records, for a small seeded sample
// of aggregation groups, every routing hop their packet takes through the
// overlay: (phase, level, out-edge, host, round). The router reports hops on
// the caller thread at deposit/arrive time — the points where the shard-
// merged effects are applied in deterministic order — so the recorded flows
// are a pure function of (spec, seed): bit-identical at threads=1 vs
// threads=T, under every fault model. The Perfetto exporter renders each
// flow as a chain of flow events (ph s/t/f sharing one id), which makes a
// congestion peak clickable back to the routes that caused it; trace_check
// validates that every flow id's begin/end pair matches.
//
// Sampling is by seeded hash of the group id (admission order is the
// deterministic deposit order, capped at max_flows), so the same groups are
// followed on every rerun of a spec regardless of thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"

namespace ncc::obs {

struct FlowHop {
  uint32_t level = 0;  // routing level the packet arrived at
  uint32_t edge = 0;   // out-edge it takes next (0 at the terminal level)
  NodeId host = 0;     // real node hosting the routing state
  uint64_t round = 0;  // net.rounds() at arrival
  /// The journey ended (or restarted) at an en-route combining cache: a
  /// setup request answered from a cached payload, or a spreading packet
  /// injected at a cache root.
  bool cache_hit = false;
};

struct SampledFlow {
  uint64_t id = 0;     // unique per sampler, in admission order (1-based)
  uint64_t group = 0;  // the aggregation group the packet belongs to
  bool up = false;     // false = combining (down) phase, true = spreading (up)
  std::vector<FlowHop> hops;
};

class FlowSampler {
 public:
  /// Attaches to `net`; at most one sampler per network at a time. Admits up
  /// to `max_flows` sampled (group, phase) journeys, each capped at
  /// `max_hops` hops (elision is flagged via truncated(), never silent).
  explicit FlowSampler(Network& net, uint64_t seed, uint32_t max_flows = 8,
                       uint32_t max_hops = 64);
  ~FlowSampler();

  FlowSampler(const FlowSampler&) = delete;
  FlowSampler& operator=(const FlowSampler&) = delete;

  /// Called by the router on the caller thread for every packet deposit /
  /// multicast arrival. Samples by seeded hash of `group`; a no-op for
  /// unsampled groups.
  void record_hop(uint64_t group, bool up, uint32_t level, uint32_t edge,
                  NodeId host, uint64_t round, bool cache_hit = false);

  const std::vector<SampledFlow>& flows() const { return flows_; }
  bool truncated() const { return truncated_; }

  /// Emit the deterministic flows section: the sampled journeys, in
  /// admission order, hops in record order.
  void write_json(JsonWriter& w) const;

 private:
  Network& net_;
  uint64_t seed_;
  uint32_t max_flows_;
  uint32_t max_hops_;
  std::vector<SampledFlow> flows_;
  // Per phase: group -> index into flows_; -1 marks a group checked and
  // rejected so the admission hash runs once per group per phase. Point
  // lookups only; admission order is the deterministic deposit order.
  FlatMap<int64_t> admitted_[2];
  // Whether a phase has admitted its first flow yet (the first group routed
  // in each phase is always followed, so a traced run never comes up empty).
  bool phase_seen_[2] = {false, false};
  bool truncated_ = false;
};

}  // namespace ncc::obs

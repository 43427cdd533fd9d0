// Execution tracing: per-round time series of the network's behaviour
// (messages, distinct communication partners, drops), exportable as CSV.
//
// Useful for inspecting where an algorithm spends its rounds (injection
// bursts vs routing plateaus vs barrier ticks) and for the load plots in the
// benchmark harness. Hooks into Network's delivery stream and closes each
// round from a round hook, so every round the network runs — quiet ones
// included — gets exactly one sample, and tracing a run costs nothing
// inside the model.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace ncc {

struct RoundSample {
  uint64_t round = 0;
  uint32_t messages = 0;      // delivered this round
  uint32_t max_in_degree = 0; // max messages one node received
  uint32_t busy_nodes = 0;    // nodes that received >= 1 message
};

class RoundTrace {
 public:
  /// Subscribes to `net`'s delivery stream and round hooks. Hooks are an
  /// ordered subscriber list, so a RoundTrace coexists with metrics
  /// collectors, congestion monitors and tracers on the same network; the
  /// subscriptions are removed on destruction.
  explicit RoundTrace(Network& net);
  ~RoundTrace();

  RoundTrace(const RoundTrace&) = delete;
  RoundTrace& operator=(const RoundTrace&) = delete;

  const std::vector<RoundSample>& samples() const { return samples_; }

  /// Sum of delivered messages over the trace.
  uint64_t total_messages() const;
  /// The busiest round (by messages); {0,0,0,0} when empty.
  RoundSample peak() const;

  /// CSV: round,messages,max_in_degree,busy_nodes
  void write_csv(std::ostream& os) const;
  void save_csv(const std::string& path) const;

 private:
  void on_deliver(const Message& m);
  void close_round(uint64_t round);

  Network& net_;
  Network::HookId delivery_id_ = 0;
  Network::HookId round_id_ = 0;
  std::vector<uint32_t> in_degree_;  // per node, current round
  std::vector<NodeId> touched_;
  RoundSample current_{};
  std::vector<RoundSample> samples_;
};

}  // namespace ncc

// The Node-Capacitated Clique (NCC) round simulator (Section 1.1).
//
// n nodes form a logical clique and proceed in synchronous rounds. Per round
// every node may send distinct messages to up to `cap` other nodes and receive
// up to `cap` messages, where cap = capacity_factor * ceil(log2 n) — the
// model's O(log n) with an explicit constant. If more than `cap` messages are
// addressed to a node, it receives a uniformly random subset of `cap` of them
// and the rest are dropped by the network (the model says "an arbitrary
// subset"; random is one legal adversary and keeps runs reproducible).
//
// The Network is the single source of truth for round accounting: every
// primitive and algorithm runs real messages through it, and benches report
// `rounds()`.
//
// Delivery at end_round() is shard-parallel when an engine (src/engine/) is
// attached: destinations are split into contiguous shards, each shard
// enforces its nodes' receive capacities independently, and the drop RNG is
// forked per (round, destination) — so inboxes and NetStats are bit-identical
// for any thread/shard count, a single shard (no engine) included.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "net/message.hpp"

namespace ncc {

class Engine;
namespace obs {
class Tracer;
class FlowSampler;
}  // namespace obs

struct NetConfig {
  NodeId n = 0;
  /// cap = capacity_factor * ceil(log2 n). The paper's O(log n) constant; 8
  /// comfortably covers the butterfly emulation (<= 2(d+1) messages/round)
  /// plus primitive bookkeeping.
  uint32_t capacity_factor = 8;
  /// Abort if a node tries to send more than `cap` messages in one round.
  /// Exceeding the *send* budget is an algorithm bug, not network behaviour.
  bool strict_send = true;
  uint64_t seed = 1;
};

struct NetStats {
  uint64_t rounds = 0;          // synchronous rounds simulated
  uint64_t charged_rounds = 0;  // analytically charged (setup broadcasts)
  uint64_t messages_sent = 0;
  uint64_t messages_dropped = 0;  // receive-capacity overflow
  uint64_t fault_drops = 0;       // removed by an installed fault hook
  uint64_t corrupted = 0;         // payloads mutated by an installed fault hook
  uint32_t max_send_load = 0;     // max messages a node sent in any round
  uint32_t max_recv_load = 0;     // max messages addressed to a node (pre-drop)
  uint64_t send_violations = 0;   // only populated when strict_send == false

  uint64_t total_rounds() const { return rounds + charged_rounds; }
};

/// Memory-accounting counters for the network's hot containers (pending run
/// arenas + pool, the flat inbox arena, the scatter index rows, per-node
/// offset arrays). Split by determinism class: the live-message peaks are
/// derived from per-round message counts and are thread-count invariant; the
/// capacity/allocation counters depend on the shard layout and buffer-reuse
/// history, so — like wall-clock — they are observational only and must never
/// reach determinism-compared bytes (emitters gate them behind the memory
/// flag, see obs::MemoryMonitor).
struct NetMemStats {
  // Thread-count invariant (message counts are part of the determinism
  // contract; sizeof(Message) — the logical AoS message size — is a
  // constant, kept as the unit so the series is layout-independent).
  uint64_t live_msgs_peak = 0;   // max messages in flight in any one round
  uint64_t live_bytes_peak = 0;  // live_msgs_peak in message bytes
  // Observational only: capacity footprint + allocation counts.
  uint64_t container_bytes_peak = 0;  // peak capacity bytes across hot containers
  uint64_t allocs = 0;                // capacity-growth events on hot containers
};

/// Read-only view of one node's delivered inbox inside the network's flat
/// per-round inbox arena. Iteration and indexing materialize `Message` values
/// on the fly from the SoA headers, so existing call sites —
/// `for (const Message& m : net.inbox(u))`, `.size()`, `.front().word(0)` —
/// keep working unchanged (the range-for binds a const reference to the
/// yielded temporary). The view is invalidated by the next end_round() /
/// reset_stats(), same lifetime the old per-node vectors had.
class InboxView {
 public:
  InboxView() = default;
  InboxView(const MsgHdr* hdr, const uint64_t* words, size_t count)
      : hdr_(hdr), words_(words), count_(count) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  Message operator[](size_t i) const {
    NCC_ASSERT(i < count_);
    const MsgHdr& h = hdr_[i];
    Message m;
    m.src = h.src;
    m.dst = h.dst;
    m.tag = h.tag;
    m.nwords = h.nwords;
    for (uint8_t w = 0; w < h.nwords; ++w) m.words[w] = words_[h.off + w];
    return m;
  }
  Message front() const { return (*this)[0]; }

  class iterator {
   public:
    using value_type = Message;
    using difference_type = std::ptrdiff_t;
    iterator(const InboxView* v, size_t i) : v_(v), i_(i) {}
    Message operator*() const { return (*v_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    const InboxView* v_;
    size_t i_;
  };
  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, count_); }

 private:
  const MsgHdr* hdr_ = nullptr;
  const uint64_t* words_ = nullptr;
  size_t count_ = 0;
};

/// Fault-injection hooks (installed by scenario::FaultInjector). All three run
/// on the caller thread at the top of end_round(), *before* delivery is
/// sharded — the pending-message order is thread-count independent (engine
/// determinism contract), so fault decisions keyed on (round, pending index)
/// are too.
struct FaultHooks {
  /// Called once per end_round() with the round about to be closed, before
  /// any filtering; may throw to abort a runaway execution (round limits).
  std::function<void(uint64_t round)> begin_round;
  /// Return true to make the network lose this message (crash-stop endpoints,
  /// random loss). `idx` is the message's position in this round's send order.
  std::function<bool(const Message& msg, uint64_t round, uint64_t idx)> drop;
  /// May mutate the message's payload in place (byzantine corruption); return
  /// true iff the message was changed (counted in stats.corrupted). Runs on
  /// survivors of the drop hook, still keyed on the original send index.
  std::function<bool(Message& msg, uint64_t round, uint64_t idx)> corrupt;
  /// Effective receive capacity for this round (capacity perturbation);
  /// clamped to >= 1. Send budgets are unaffected: a fault changes what the
  /// network delivers, not what algorithms are allowed to attempt.
  std::function<uint32_t(uint64_t round, uint32_t cap)> recv_cap;
};

class Network {
 public:
  explicit Network(NetConfig config);

  // Attached engines and observers hold a Network&, so a network stays put.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  NodeId n() const { return config_.n; }
  uint32_t cap() const { return cap_; }
  const NetConfig& config() const { return config_; }

  /// Queue a message for delivery at the beginning of the next round. Must be
  /// called between rounds (i.e., before end_round()).
  void send(const Message& msg);
  void send(NodeId src, NodeId dst, uint32_t tag, std::initializer_list<uint64_t> words) {
    send(Message(src, dst, tag, words));
  }

  /// Arena handoff, the zero-copy bulk path: callers (the engine's
  /// staged loops) fill a pooled arena off-thread and stage it wholesale as the
  /// next sorted run of this round's pending traffic. stage_run() only scans
  /// the 20-byte headers for send accounting — no message is copied. Runs
  /// concatenate in staging order, so handing over per-shard arenas in shard
  /// order reproduces the sequential send order exactly (the determinism
  /// contract's merge step). Arenas are recycled into an internal pool at
  /// end_round(); acquire from the pool so capacity is reused across rounds.
  MsgArena acquire_arena();
  void stage_run(MsgArena&& run);

  /// Close the current round: enforce capacities, deliver messages into the
  /// per-node inboxes, advance the round counter. Runs shard-parallel across
  /// destinations on the attached engine; the result is identical either
  /// way.
  void end_round();

  /// Inbox of `u` holding the messages delivered at the start of the current
  /// round (i.e., the ones sent in the previous round). The view reads the
  /// flat inbox arena in place and is invalidated by the next end_round().
  InboxView inbox(NodeId u) const;

  /// Charge `k` rounds without simulating them (used only for the
  /// shared-randomness setup broadcasts whose cost the paper states in
  /// closed form; tracked separately in stats).
  void charge_rounds(uint64_t k);

  uint64_t rounds() const { return stats_.rounds; }
  const NetStats& stats() const { return stats_; }
  /// Memory-accounting counters (always maintained — a handful of compares
  /// per round — but only *emitted* behind the memory flag; see NetMemStats
  /// for the determinism split).
  const NetMemStats& mem_stats() const { return mem_; }

  /// Observer subscription handle (add_*_hook); 0 is never issued.
  using HookId = uint64_t;

  /// Observers invoked for every *delivered* message (k-machine accounting,
  /// tracing, congestion monitors). Each receives the message and the round
  /// in which it was delivered. Hooks are an ordered subscriber list: every
  /// subscriber sees the identical stream, sequentially in (destination,
  /// arrival) order — engine or not — and within one message subscribers run
  /// in subscription order. Subscribers must unsubscribe (remove) before
  /// they are destroyed.
  using DeliveryHook = std::function<void(const Message&, uint64_t round)>;
  HookId add_delivery_hook(DeliveryHook hook);
  void remove_delivery_hook(HookId id);

  /// Observers invoked sequentially at the end of every end_round() with the
  /// index of the round just closed and the cumulative stats (scenario
  /// metrics sampling, span bookkeeping). Run after delivery, on the caller
  /// thread, in subscription order.
  using RoundHook = std::function<void(uint64_t round, const NetStats&)>;
  HookId add_round_hook(RoundHook hook);
  void remove_round_hook(HookId id);

  /// Fault-injection attachment (see scenario/faults.hpp); at most one set of
  /// fault hooks at a time.
  void install_fault_hooks(FaultHooks hooks) { faults_ = std::move(hooks); }
  void clear_fault_hooks() { faults_ = FaultHooks{}; }
  /// True when an installed fault hook can mutate payloads in flight. Routing
  /// layers keep their hard misroute asserts on reliable networks (a strayed
  /// packet there is an algorithm bug) and tolerate-and-count only when this
  /// is set (there it is network behaviour).
  bool corruption_possible() const { return static_cast<bool>(faults_.corrupt); }
  /// True when an installed fault hook can lose or mutate traffic. Protocol
  /// layers keep hard invariants on reliable networks (a violated invariant
  /// there is an algorithm bug) and tolerate-and-count only when this is set
  /// (there it is network behaviour: lost responses can desynchronize two
  /// endpoints of the same edge).
  bool losses_possible() const {
    return static_cast<bool>(faults_.drop) || static_cast<bool>(faults_.corrupt) ||
           static_cast<bool>(faults_.recv_cap);  // perturbation drops over-cap messages
  }

  /// Reset round/message statistics (topology and config are kept). Also
  /// clears pending traffic and the per-shard delivery staging.
  void reset_stats();

  /// Attachment slots: the engine and observers attached to this network,
  /// or nullptr. Each object fills its slot in its constructor (at most one
  /// of each kind per network) and clears it in its destructor.
  Engine* engine() const { return engine_; }
  obs::Tracer* tracer() const { return tracer_; }
  obs::FlowSampler* flow_sampler() const { return flow_sampler_; }

 private:
  friend class Engine;
  friend class obs::Tracer;
  friend class obs::FlowSampler;

  template <typename Hook>
  struct Subscriber {
    HookId id;
    Hook fn;
  };

  NetConfig config_;
  uint32_t cap_;
  uint64_t drop_seed_;  // forked per (round, dst) for the drop subsets
  NetStats stats_;
  NetMemStats mem_;
  Engine* engine_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::FlowSampler* flow_sampler_ = nullptr;
  FaultHooks faults_;
  // Pending traffic as an ordered list of sorted runs: direct send()s append
  // to an open tail arena, stage_run() hands over closed per-shard arenas in
  // shard order — concatenating the runs in list order is the round's global
  // send order. Arenas recycle through pool_ so capacity survives rounds.
  std::vector<MsgArena> runs_;
  bool tail_open_ = false;  // runs_.back() accepts direct send()s
  std::vector<MsgArena> pool_;
  std::vector<uint32_t> send_count_;  // per-node sends this round
  // Delivered inboxes, flat: headers for node u live at
  // inbox_hdr_[inbox_off_[u] .. +inbox_cnt_[u]) with payload words in
  // inbox_words_ (hdr.off indexes it). Rebuilt every end_round in place.
  std::vector<MsgHdr> inbox_hdr_;
  std::vector<uint64_t> inbox_words_;
  std::vector<uint64_t> inbox_off_;
  std::vector<uint32_t> inbox_cnt_;
  // Per-round delivery staging (members so capacity is reused):
  // scatter_[p * S + s] = global pending indices of chunk p's messages for
  // destination shard s, ascending (the counting-sort index pass).
  std::vector<std::vector<uint32_t>> scatter_;
  // Per-node scratch for the count/placement passes. recv_seen_[u] ends as
  // the full addressed (pre-drop) count, which the merged-view stats read;
  // wsum_[u] is the node's inbox word budget during the count pass and is
  // reused as its arrival counter during placement; word_off_[u] is the
  // node's word cursor.
  std::vector<uint32_t> recv_seen_;
  std::vector<uint32_t> wsum_;
  std::vector<uint64_t> word_off_;
  HookId next_hook_id_ = 1;
  std::vector<Subscriber<DeliveryHook>> delivery_hooks_;
  std::vector<Subscriber<RoundHook>> round_hooks_;
};

}  // namespace ncc

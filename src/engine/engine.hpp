// The sharded round engine: runs per-node (or per-column, per-packet)
// step callbacks of one synchronous round in parallel, staging their
// outgoing messages in per-shard buffers that are merged into the Network
// at the barrier.
//
// Determinism contract: every observable effect is independent of the
// thread count. Shards are contiguous index ranges processed in increasing
// order (ShardPlan), and staged sends are merged in (shard id, item id,
// send order) — which concatenates back to the plain sequential order — so
// for a fixed seed, threads=1 and threads=T produce bit-identical message
// streams, algorithm outputs, and NetStats. Randomness inside parallel
// loops must be forked per item (Rng::fork / mix64 of the item id), never
// drawn from a stream shared across items.
//
// An Engine attaches to a Network through the network's engine slot. The
// network hands its end_round() delivery passes to the attached engine (see
// net/network.hpp), and the engine_* loop helpers below run on it. Without
// an engine the same helpers run as the engine's single-shard case: one
// shard, inline on the caller thread.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <vector>

#include "engine/shard.hpp"
#include "engine/thread_pool.hpp"
#include "net/message.hpp"
#include "net/network.hpp"

namespace ncc {

/// Wall-clock profile of one shard, accumulated across the engine's
/// lifetime (or since reset_timing()). Strictly observational: timing never
/// feeds back into scheduling and is kept out of every determinism-compared
/// byte stream — emitters gate it behind a timing flag (see bench_engine and
/// the Perfetto exporter's timing tracks).
struct EngineShardTiming {
  uint64_t stage_ns = 0;    // staged-loop callbacks run on this shard
  uint64_t merge_ns = 0;    // handing this shard's staged arena to the network
                            // (header accounting scan, caller thread)
  uint64_t deliver_ns = 0;  // end_round delivery tasks on this shard: the
                            // scatter/count/placement passes, per-task wall
                            // (includes scheduler waits when cores are
                            // oversubscribed — see docs/ARCHITECTURE.md)
  uint64_t loops = 0;       // staged loops that ran this shard
  uint64_t deliveries = 0;  // delivery tasks timed on this shard
};

/// Memory profile of one shard's staged send buffer, accumulated like
/// EngineShardTiming. Capacities and allocation counts depend on the shard
/// layout and buffer-reuse history, so — like wall-clock — they are strictly
/// observational and never reach determinism-compared bytes (emitters gate
/// them behind the memory flag, see obs::MemoryMonitor).
struct EngineShardMemory {
  uint64_t staged_msgs_peak = 0;   // max messages staged in one loop
  uint64_t staged_bytes_peak = 0;  // peak capacity bytes of the staged arena
  uint64_t allocs = 0;             // staged-arena capacity-growth events
};

struct EngineConfig {
  /// Total parallelism including the calling thread; 0 = hardware threads.
  uint32_t threads = 1;
  /// Below this many items a parallel loop runs single-shard (waking workers
  /// costs more than the work). Purely a performance knob: results are
  /// shard-count independent. Tests force 1 to exercise the parallel
  /// machinery on small inputs.
  uint64_t loop_cutoff = 512;
  /// Same cutoff for end_round() delivery, in pending messages per round.
  uint64_t delivery_cutoff = 1024;
};

/// Message sink handed to the callbacks of a staged loop: appends to the
/// loop shard's arena, which the loop hands to the network with stage_run()
/// in shard order once every shard is done.
class MsgSink {
 public:
  explicit MsgSink(MsgArena& arena) : arena_(&arena) {}
  void send(const Message& msg) { arena_->push(msg); }
  void send(NodeId src, NodeId dst, uint32_t tag, std::initializer_list<uint64_t> words) {
    arena_->push(Message(src, dst, tag, words));
  }

 private:
  MsgArena* arena_;
};

using RangeFn = std::function<void(uint32_t shard, uint64_t begin, uint64_t end)>;
using SendRangeFn =
    std::function<void(uint32_t shard, uint64_t begin, uint64_t end, MsgSink& out)>;

class Engine {
 public:
  /// Attaches to `net` (fills its engine slot); at most one engine per
  /// network at a time.
  explicit Engine(Network& net, EngineConfig cfg = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  uint32_t threads() const { return pool_.threads(); }

  /// Per-shard wall-clock profile (one entry per pool thread). Each shard's
  /// stage/deliver slots are only ever written by the worker running that
  /// shard, so reading between rounds is race-free.
  const std::vector<EngineShardTiming>& shard_timing() const { return timing_; }
  /// Per-shard staged-buffer memory profile; same write discipline (each
  /// slot only written by the worker running that shard).
  const std::vector<EngineShardMemory>& shard_memory() const { return memory_; }
  /// Clears both the timing and the memory profiles.
  void reset_timing();

 private:
  friend class Network;
  friend void engine_ranges(const Network& net, uint64_t count, const RangeFn& fn);
  friend void engine_send_ranges(Network& net, uint64_t count, const SendRangeFn& fn);

  /// Shards for a loop over `count` items: one below the loop cutoff.
  uint32_t loop_shards(uint64_t count) const {
    return count >= cfg_.loop_cutoff ? threads() : 1;
  }
  /// Shards for end_round() delivery of `pending` messages.
  uint32_t delivery_shards(uint64_t pending) const {
    return pending >= cfg_.delivery_cutoff ? threads() : 1;
  }
  /// Run end_round()'s delivery pass fn(0..tasks-1) on the pool, timing each
  /// task into its shard's deliver_ns.
  void run_delivery(uint32_t tasks, const std::function<void(uint32_t)>& fn);

  Network& net_;
  EngineConfig cfg_;
  ThreadPool pool_;
  std::vector<MsgArena> arenas_;           // one staged arena per shard
  std::vector<EngineShardTiming> timing_;  // one profile per shard
  std::vector<EngineShardMemory> memory_;  // one memory profile per shard
};

/// The loops of primitives/, core/ and overlay/. [0, count) is split into
/// contiguous shards that run on the engine attached to `net`; with no
/// engine attached, or below the engine's loop cutoff, the one shard runs
/// inline on the caller thread. The observable effects are the same for any
/// shard count.
///
/// The most shards a loop may use (size per-shard buffers with it): the
/// attached engine's thread count, 1 with no engine.
uint32_t engine_shards(const Network& net);

/// fn(shard, begin, end) per shard, concurrently across shards; per-shard
/// accumulation indexed by `shard` (with a final merge in shard order)
/// keeps results shard-count-free.
void engine_ranges(const Network& net, uint64_t count, const RangeFn& fn);

/// Plain parallel loop over [0, count); fn(i) may only touch item-i state.
void engine_for(const Network& net, uint64_t count, const std::function<void(uint64_t)>& fn);

/// engine_ranges with staged sends: each shard's sink appends to an arena
/// acquired from the network's pool (so capacity is reused across rounds),
/// and the arenas are handed over zero-copy in shard order before returning
/// — the send order equals the plain sequential loop's. The round stays
/// open; the caller ends it with net.end_round().
void engine_send_ranges(Network& net, uint64_t count, const SendRangeFn& fn);

/// engine_send_ranges with one step(i, sink) call per item.
void engine_send_loop(Network& net, uint64_t count,
                      const std::function<void(uint64_t, MsgSink&)>& step);

}  // namespace ncc

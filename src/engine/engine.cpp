#include "engine/engine.hpp"

#include <algorithm>
// det-lint: observational — wall-clock feeds span timestamps on the obs side only
#include <chrono>

#include "common/assert.hpp"

namespace ncc {

namespace {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      // det-lint: observational — timestamps land in Perfetto spans, outside the
      // deterministic byte prefix
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // det-lint: observational — same: span timestamps only
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Engine::Engine(Network& net, EngineConfig cfg)
    : net_(net), cfg_(cfg), pool_(cfg.threads) {
  arenas_.resize(pool_.threads());
  timing_.resize(pool_.threads());
  memory_.resize(pool_.threads());
  NCC_ASSERT_MSG(net_.engine_ == nullptr, "network already has an engine attached");
  net_.engine_ = this;
}

Engine::~Engine() { net_.engine_ = nullptr; }

void Engine::run_delivery(uint32_t tasks, const std::function<void(uint32_t)>& fn) {
  pool_.run(tasks, [this, &fn](uint64_t t) {
    uint64_t t0 = now_ns();
    fn(static_cast<uint32_t>(t));
    EngineShardTiming& tm = timing_[t];
    tm.deliver_ns += now_ns() - t0;
    ++tm.deliveries;
  });
}

void Engine::reset_timing() {
  timing_.assign(pool_.threads(), EngineShardTiming{});
  memory_.assign(pool_.threads(), EngineShardMemory{});
}

uint32_t engine_shards(const Network& net) {
  const Engine* eng = net.engine();
  return eng ? eng->threads() : 1;
}

void engine_ranges(const Network& net, uint64_t count, const RangeFn& fn) {
  Engine* eng = net.engine();
  const ShardPlan plan = ShardPlan::make(count, eng ? eng->loop_shards(count) : 1);
  if (count == 0) return;
  if (plan.shards == 1) {
    fn(0, 0, count);
    return;
  }
  eng->pool_.run(plan.shards, [&](uint64_t t) {
    const uint32_t s = static_cast<uint32_t>(t);
    fn(s, plan.begin(s), plan.end(s));
  });
}

void engine_for(const Network& net, uint64_t count,
                const std::function<void(uint64_t)>& fn) {
  engine_ranges(net, count, [&fn](uint32_t, uint64_t b, uint64_t e) {
    for (uint64_t i = b; i < e; ++i) fn(i);
  });
}

void engine_send_ranges(Network& net, uint64_t count, const SendRangeFn& fn) {
  Engine* eng = net.engine();
  const ShardPlan plan = ShardPlan::make(count, eng ? eng->loop_shards(count) : 1);
  if (count == 0) return;
  // Arenas come from the network's pool (caller thread, before the parallel
  // region), so capacity is reused across rounds and steady-state staging
  // allocates nothing. The engine keeps one slot per shard; without one the
  // single shard stages into a local arena and keeps no profile.
  MsgArena solo;
  MsgArena* arenas = eng ? eng->arenas_.data() : &solo;
  for (uint32_t s = 0; s < plan.shards; ++s) arenas[s] = net.acquire_arena();
  auto stage = [&](uint64_t t) {
    const uint32_t s = static_cast<uint32_t>(t);
    const uint64_t t0 = now_ns();
    // Stage into a worker-local arena: neighbouring shards' slots share
    // cache lines, and every send writes the arena's end pointers.
    MsgArena arena = std::move(arenas[s]);
    MsgSink sink(arena);
    fn(s, plan.begin(s), plan.end(s), sink);
    if (eng) {
      EngineShardTiming& tm = eng->timing_[s];
      tm.stage_ns += now_ns() - t0;
      ++tm.loops;
      EngineShardMemory& mm = eng->memory_[s];
      mm.staged_msgs_peak = std::max<uint64_t>(mm.staged_msgs_peak, arena.size());
      mm.staged_bytes_peak =
          std::max<uint64_t>(mm.staged_bytes_peak, arena.capacity_bytes());
    }
    arenas[s] = std::move(arena);
  };
  if (eng) {
    eng->pool_.run(plan.shards, stage);
  } else {
    stage(0);
  }
  // Merge in shard order == global item order: stage_run keeps the strict
  // send accounting on the caller thread (a header-only scan) and takes each
  // shard's arena zero-copy as the next pending run. An engine drains the
  // capacity growth during staging into its shard's memory profile first, so
  // the network does not double count it; without one the network counts it.
  for (uint32_t s = 0; s < plan.shards; ++s) {
    const uint64_t t0 = now_ns();
    if (eng) eng->memory_[s].allocs += arenas[s].take_allocs();
    net.stage_run(std::move(arenas[s]));
    if (eng) eng->timing_[s].merge_ns += now_ns() - t0;
  }
}

void engine_send_loop(Network& net, uint64_t count,
                      const std::function<void(uint64_t, MsgSink&)>& step) {
  engine_send_ranges(net, count, [&step](uint32_t, uint64_t b, uint64_t e, MsgSink& out) {
    for (uint64_t i = b; i < e; ++i) step(i, out);
  });
}

}  // namespace ncc

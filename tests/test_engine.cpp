// Unit tests for the sharded round engine: thread pool dispatch, shard
// plans, staged send merging, the shard-parallel end_round delivery, and the
// NodeProgram runner. The recurring assertion is the engine's determinism
// contract: identical observable behaviour for any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/bits.hpp"
#include "engine/engine.hpp"
#include "engine/node_program.hpp"
#include "engine/shard.hpp"
#include "engine/thread_pool.hpp"
#include "net/message.hpp"

using namespace ncc;

namespace {

NetConfig net_cfg(NodeId n, uint64_t seed = 1, uint32_t factor = 8) {
  NetConfig cfg;
  cfg.n = n;
  cfg.capacity_factor = factor;
  cfg.seed = seed;
  return cfg;
}

/// Engine config that exercises the parallel machinery even on tiny inputs.
EngineConfig eager(uint32_t threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.loop_cutoff = 1;
  cfg.delivery_cutoff = 1;
  return cfg;
}

}  // namespace

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::vector<std::atomic<uint32_t>> hits(4);
  for (auto& h : hits) h = 0;
  for (int rep = 0; rep < 100; ++rep) {
    pool.run(4, [&](uint64_t t) { ++hits[t]; });
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 100u);
}

TEST(ThreadPool, FewerTasksThanThreads) {
  ThreadPool pool(8);
  std::atomic<uint64_t> sum{0};
  pool.run(3, [&](uint64_t t) { sum += t + 1; });
  EXPECT_EQ(sum.load(), 6u);
  pool.run(0, [&](uint64_t) { FAIL(); });
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  uint64_t sum = 0;  // no atomics needed: everything on the caller thread
  pool.run(1, [&](uint64_t t) { sum += t + 7; });
  EXPECT_EQ(sum, 7u);
}

TEST(ShardPlan, ContiguousCoverAndInverse) {
  for (uint64_t count : {0ull, 1ull, 7ull, 64ull, 1000ull}) {
    for (uint32_t shards : {1u, 2u, 3u, 8u, 16u}) {
      ShardPlan p = ShardPlan::make(count, shards);
      uint64_t covered = 0;
      for (uint32_t s = 0; s < p.shards; ++s) {
        EXPECT_EQ(p.begin(s), s == 0 ? 0 : p.end(s - 1));
        covered += p.end(s) - p.begin(s);
        for (uint64_t i = p.begin(s); i < p.end(s); ++i) EXPECT_EQ(p.shard_of(i), s);
      }
      EXPECT_EQ(covered, count);
      EXPECT_EQ(p.end(p.shards - 1), count);
    }
  }
}

TEST(ShardPlan, NeverMoreShardsThanItems) {
  EXPECT_EQ(ShardPlan::make(3, 8).shards, 3u);
  EXPECT_EQ(ShardPlan::make(0, 8).shards, 1u);
}

TEST(Engine, AttachFillsAndClearsTheNetworkSlot) {
  Network net(net_cfg(8));
  EXPECT_EQ(net.engine(), nullptr);
  EXPECT_EQ(engine_shards(net), 1u);
  {
    Engine eng(net, eager(2));
    EXPECT_EQ(net.engine(), &eng);
    EXPECT_EQ(engine_shards(net), 2u);
  }
  EXPECT_EQ(net.engine(), nullptr);
  EXPECT_EQ(engine_shards(net), 1u);
}

TEST(EngineDeathTest, SecondEngineOnOneNetworkDies) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Network net(net_cfg(8));
  Engine eng(net, eager(2));
  EXPECT_DEATH({ Engine second(net, eager(1)); }, "already has an engine attached");
  EXPECT_EQ(net.engine(), &eng);
}

TEST(Engine, SendLoopMatchesSequentialOrder) {
  // The staged/merged send order must equal the plain sequential loop's, so
  // the delivered inboxes (which preserve arrival order under capacity) and
  // stats must match bit for bit.
  auto run = [](uint32_t threads) {
    Network net(net_cfg(64, 3));
    std::optional<Engine> eng;
    if (threads > 0) eng.emplace(net, eager(threads));
    engine_send_loop(net, 63, [&](uint64_t i, MsgSink& out) {
      NodeId u = static_cast<NodeId>(i + 1);
      out.send(u, 0, 7, {u, u * u});
      NodeId other = static_cast<NodeId>(u % 63 + 1);  // 1..63, never == u
      if (other == u) other = (u == 1) ? 2 : 1;
      out.send(u, other, 8, {u});
    });
    net.end_round();
    std::vector<std::pair<NodeId, uint64_t>> got;
    for (const Message& m : net.inbox(0)) got.emplace_back(m.src, m.word(0));
    return std::make_tuple(got, net.stats().messages_sent, net.stats().messages_dropped,
                           net.stats().max_recv_load);
  };
  auto seq = run(0);     // no engine: direct sends
  auto one = run(1);     // engine, single thread
  auto eight = run(8);   // engine, eight threads
  EXPECT_EQ(seq, one);
  EXPECT_EQ(seq, eight);
}

TEST(Network, ParallelDeliveryBitIdenticalUnderOverload) {
  // Flood node 0 far past its receive capacity: the surviving subset and all
  // stats must not depend on the thread count.
  auto run = [](uint32_t threads) {
    Network net(net_cfg(512, 11, 2));
    std::optional<Engine> eng;
    if (threads > 0) eng.emplace(net, eager(threads));
    for (int round = 0; round < 3; ++round) {
      engine_send_loop(net, 511, [&](uint64_t i, MsgSink& out) {
        NodeId u = static_cast<NodeId>(i + 1);
        out.send(u, 0, 1, {u});
        NodeId spread = static_cast<NodeId>(1 + (u * 37) % 510);
        if (spread == u) spread = 511;
        out.send(u, spread, 2, {u});
      });
      net.end_round();
    }
    std::vector<NodeId> survivors;
    for (const Message& m : net.inbox(0)) survivors.push_back(m.src);
    NetStats st = net.stats();
    return std::make_tuple(survivors, st.messages_sent, st.messages_dropped,
                           st.max_send_load, st.max_recv_load);
  };
  auto seq = run(0);
  auto two = run(2);
  auto eight = run(8);
  EXPECT_EQ(seq, two);
  EXPECT_EQ(seq, eight);
  EXPECT_GT(std::get<2>(seq), 0u);  // the overload actually dropped messages
}

TEST(Network, ResetStatsClearsDeliveryStaging) {
  Network net(net_cfg(16, 5));
  Engine eng(net, eager(4));
  for (NodeId u = 1; u < 16; ++u) net.send(u, 0, 1, {u});
  net.reset_stats();
  net.end_round();
  EXPECT_TRUE(net.inbox(0).empty());
  EXPECT_EQ(net.stats().messages_sent, 0u);
  EXPECT_EQ(net.stats().max_recv_load, 0u);
  EXPECT_EQ(net.rounds(), 1u);
}

TEST(Network, DeliveryHookOrderIsSequentialUnderEngine) {
  auto run = [](uint32_t threads) {
    Network net(net_cfg(32, 9));
    std::optional<Engine> eng;
    if (threads > 0) eng.emplace(net, eager(threads));
    std::vector<std::pair<NodeId, NodeId>> seen;  // (dst, src) in hook order
    net.add_delivery_hook(
        [&](const Message& m, uint64_t) { seen.emplace_back(m.dst, m.src); });
    engine_send_loop(net, 31, [&](uint64_t i, MsgSink& out) {
      NodeId u = static_cast<NodeId>(i + 1);
      out.send(u, static_cast<NodeId>((u + 1) % 32 == u ? 0 : (u + 1) % 32), 1, {u});
    });
    net.end_round();
    return seen;
  };
  EXPECT_EQ(run(0), run(8));
}

namespace {

/// Doubling min-gossip: each round every node folds its inbox into its own
/// minimum and forwards the minimum to the node 2^round ahead. After
/// ceil(log2 n) rounds everyone knows the global minimum (node 0's id).
class MinFloodProgram final : public NodeProgram {
 public:
  explicit MinFloodProgram(NodeId n) : n_(n), cur_(n) {
    std::iota(cur_.begin(), cur_.end(), uint64_t{0});
  }

  void step(NodeId u, uint64_t round, const InboxView& inbox,
            MsgSink& out) override {
    for (const Message& m : inbox) cur_[u] = std::min(cur_[u], m.word(0));
    NodeId dst = static_cast<NodeId>((u + (uint64_t{1} << round)) % n_);
    if (dst != u) out.send(u, dst, 1, {cur_[u]});
  }

  bool done(uint64_t rounds_run) override { return rounds_run >= cap_log(n_) + 1; }

  /// Sequential post-pass: fold the final round's inboxes.
  void finish(const Network& net) {
    for (NodeId u = 0; u < n_; ++u)
      for (const Message& m : net.inbox(u)) cur_[u] = std::min(cur_[u], m.word(0));
  }

  const std::vector<uint64_t>& values() const { return cur_; }

 private:
  NodeId n_;
  std::vector<uint64_t> cur_;
};

}  // namespace

TEST(MsgArena, RoundTripAndAllocDrain) {
  MsgArena a;
  a.push(Message(3, 4, 7, {10, 20}));
  a.push(Message((1u << 20) - 1, 0, 8, {}));
  EXPECT_EQ(a.size(), 2u);
  Message m0 = a.at(0);
  EXPECT_EQ(m0.src, 3u);
  EXPECT_EQ(m0.dst, 4u);
  EXPECT_EQ(m0.tag, 7u);
  EXPECT_EQ(m0.word(1), 20u);
  Message m1 = a.at(1);
  EXPECT_EQ(m1.src, (1u << 20) - 1);  // top-of-range id survives the header
  EXPECT_EQ(m1.nwords, 0u);
  // First fill grew capacity; take_allocs drains the counter exactly once.
  EXPECT_GT(a.take_allocs(), 0u);
  EXPECT_EQ(a.take_allocs(), 0u);
  // A refill within the warm capacity allocates nothing.
  a.clear();
  a.push(Message(5, 6, 9, {1, 2}));
  EXPECT_EQ(a.take_allocs(), 0u);
}

TEST(Arena, AllocsFlatAfterWarmUp) {
  // Steady-state rounds must be allocation-free: a constant-volume workload
  // grows every container (send runs, scatter rows, inbox arenas) during the
  // first rounds, after which the pooled buffers are reused as-is.
  Network net(net_cfg(256, 17, 2));
  Engine eng(net, eager(4));
  auto total_allocs = [&]() {
    uint64_t a = net.mem_stats().allocs;
    for (const EngineShardMemory& m : eng.shard_memory()) a += m.allocs;
    return a;
  };
  auto round = [&]() {
    engine_send_loop(net, 255, [&](uint64_t i, MsgSink& out) {
      NodeId u = static_cast<NodeId>(i + 1);
      out.send(u, 0, 1, {u, u * u});  // overloads node 0: reservoir path too
      NodeId spread = static_cast<NodeId>(1 + (u * 37) % 254);
      if (spread == u) spread = 255;
      out.send(u, spread, 2, {u});
    });
    net.end_round();
  };
  for (int r = 0; r < 3; ++r) round();  // warm-up
  uint64_t warm = total_allocs();
  for (int r = 0; r < 8; ++r) round();
  EXPECT_EQ(total_allocs(), warm);
}

TEST(Arena, InterleavedDirectAndLoopSendsMatchSequential) {
  // Direct send()s open tail runs between the engine's staged run handoffs;
  // the concatenated run order must still equal the plain sequential program
  // order, bit for bit, including under receive-capacity truncation.
  auto run = [](uint32_t threads) {
    Network net(net_cfg(96, 13, 2));
    std::optional<Engine> eng;
    if (threads > 0) eng.emplace(net, eager(threads));
    for (int round = 0; round < 2; ++round) {
      net.send(1, 0, 1, {100});  // direct: tail run before any staged run
      engine_send_loop(net, 95, [&](uint64_t i, MsgSink& out) {
        NodeId u = static_cast<NodeId>(i + 1);
        out.send(u, 0, 2, {u});
      });
      net.send(2, 0, 3, {200});  // direct: tail run between staged batches
      engine_send_loop(net, 95, [&](uint64_t i, MsgSink& out) {
        NodeId u = static_cast<NodeId>(i + 1);
        NodeId other = static_cast<NodeId>(u % 95 + 1);
        if (other == u) other = (u == 1) ? 2 : 1;
        out.send(u, other, 4, {u * 3});
      });
      net.end_round();
    }
    std::vector<std::tuple<NodeId, uint32_t, uint64_t>> got;
    for (const Message& m : net.inbox(0)) got.emplace_back(m.src, m.tag, m.word(0));
    NetStats st = net.stats();
    return std::make_tuple(got, st.messages_sent, st.messages_dropped,
                           st.max_recv_load);
  };
  auto seq = run(0);
  EXPECT_EQ(seq, run(1));
  EXPECT_EQ(seq, run(8));
  EXPECT_GT(std::get<2>(seq), 0u);  // node 0 was actually truncated
}

TEST(Arena, MillionNodeIdBounds) {
  // Headers carry 32-bit node ids: drive traffic between ids at the extreme
  // ends of a 2^20-node network so near-maximal ids cross the whole
  // stage -> merge -> deliver path intact. Sparse sends keep this cheap even
  // though the id space is a million wide.
  const NodeId n = 1u << 20;
  const std::vector<NodeId> probes{0, 1, n / 2, n - 2, n - 1};
  auto run = [&](uint32_t threads) {
    Network net(net_cfg(n, 33));
    std::optional<Engine> eng;
    if (threads > 0) eng.emplace(net, eager(threads));
    for (int round = 0; round < 2; ++round) {
      engine_send_loop(net, probes.size(), [&](uint64_t i, MsgSink& out) {
        NodeId u = probes[i];
        for (NodeId v : probes)
          if (v != u) out.send(u, v, 9, {(uint64_t{u} << 20) | v});
      });
      net.end_round();
    }
    std::vector<std::tuple<NodeId, NodeId, uint64_t>> got;
    for (NodeId v : probes)
      for (const Message& m : net.inbox(v)) got.emplace_back(m.src, m.dst, m.word(0));
    return std::make_pair(got, net.stats().messages_sent);
  };
  auto one = run(1);
  auto eight = run(8);
  EXPECT_EQ(one, eight);
  ASSERT_EQ(one.first.size(), probes.size() * (probes.size() - 1));
  for (const auto& [src, dst, w] : one.first)
    EXPECT_EQ(w, (uint64_t{src} << 20) | dst);  // ids round-tripped unmangled
}

TEST(NodeProgram, MinFloodConvergesIdenticallyAcrossThreadCounts) {
  auto run = [](uint32_t threads) {
    Network net(net_cfg(200, 21));
    std::optional<Engine> eng;
    if (threads > 0) eng.emplace(net, eager(threads));
    MinFloodProgram prog(200);
    ProgramResult r = run_program(net, prog);
    prog.finish(net);
    return std::make_tuple(prog.values(), r.rounds, net.stats().messages_sent);
  };
  auto seq = run(0);
  auto eight = run(8);
  EXPECT_EQ(seq, eight);
  for (uint64_t v : std::get<0>(seq)) EXPECT_EQ(v, 0u);
}

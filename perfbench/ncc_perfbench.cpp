// ncc_perfbench: the measuring half of the repository benchmark
// (perfbench/run.py is the arithmetic and reporting half; README.md there
// documents every workload and metric).
//
//   ncc_perfbench --workload gossip|pipeline|mst|hotkey --seed S
//                 --seconds T --threads K [--trace-file PATH]
//
// Runs one workload in a closed loop from one caller. The seed fixes a set
// of instances (one for the seed-invariant workloads, several where one
// instance's round count swings with its seed). A cycle generates one
// instance's inputs and builds Network/Engine/Shared (setup), solves the
// problem through the library's public API (solve), then checks the outputs
// against sequential references (check, untimed). Every instance gets one
// cycle; further cycles go round-robin over the instances while the next is
// expected to fit in T seconds. With --trace-file one more cycle runs
// instance 0 with an obs::Tracer and a round hook attached, and its
// per-round timestamps and span list are written to PATH.
//
// Every line on stdout is one JSON object ("kind": build | cycle | traced |
// end). Times are integer nanoseconds so nothing is lost to formatting.
// All timing code lives here, outside src/: the library is driven only
// through its public calls, hooks and accessors.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/sequential.hpp"
#include "core/bfs.hpp"
#include "core/broadcast_trees.hpp"
#include "core/gossip.hpp"
#include "core/mis.hpp"
#include "core/mst.hpp"
#include "core/orientation_algo.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"
#include "obs/tracer.hpp"
#include "overlay/cache.hpp"
#include "primitives/context.hpp"
#include "primitives/multicast.hpp"
#include "scenario/traffic.hpp"

#ifndef NCC_BENCH_BUILD_TYPE
#define NCC_BENCH_BUILD_TYPE "unknown"
#endif

using namespace ncc;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ns_since(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t).count());
}

/// Process user+sys CPU time, all threads (engine workers included).
uint64_t cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv_ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(tv.tv_usec) * 1000ull;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

uint64_t fold(uint64_t h, uint64_t x) { return mix64(h ^ x); }

/// Returns f() and adds its wall time to acc_ns.
template <typename F>
auto timed(uint64_t& acc_ns, F&& f) {
  Clock::time_point t = Clock::now();
  auto result = f();
  acc_ns += ns_since(t);
  return result;
}

/// Per-cycle layer readings taken from outside the library: wall time of
/// each timed public call (repeated calls accumulate) and counters copied
/// from result structs.
struct Layers {
  std::map<std::string, uint64_t> call_ns;
  std::map<std::string, uint64_t> counts;
};

/// One workload instance. Construction is the setup phase: input generation
/// plus Network/Engine/Shared construction, zero simulated rounds.
class Workload {
 public:
  Workload(NodeId n, uint64_t seed, uint32_t threads)
      : seed_(seed), net_(net_config(n, seed)), engine_(net_, EngineConfig{threads}) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  Network& net() { return net_; }
  Engine& engine() { return engine_; }
  /// Input generation time inside the constructor.
  uint64_t generate_ns() const { return generate_ns_; }

  /// The measured call(s): the problem, end to end, through the public API.
  virtual void solve(Layers& layers) = 0;
  /// "" when every output is correct, else the first failure found.
  virtual std::string check() const = 0;
  /// Digest of the outputs (NetStats folded in by the caller).
  virtual uint64_t digest() const = 0;

 protected:
  uint64_t seed_;
  Network net_;
  Engine engine_;
  uint64_t generate_ns_ = 0;  // derived constructors time input generation into it

 private:
  static NetConfig net_config(NodeId n, uint64_t seed) {
    NetConfig cfg;
    cfg.n = n;
    cfg.seed = mix64(seed ^ 0x6e6574);
    return cfg;
  }
};

/// All-to-all token gossip on the clique: every node's receive capacity is
/// saturated every round, so host time is engine stage/merge/deliver plus
/// network delivery; router, primitives and per-round fixed cost are
/// bypassed. The input is the clique itself, so the seed only reaches the
/// network's drop RNG (which saturating-but-legal gossip never uses).
class GossipWorkload final : public Workload {
 public:
  static constexpr NodeId kN = 4096;

  GossipWorkload(uint64_t seed, uint32_t threads) : Workload(kN, seed, threads) {}

  void solve(Layers& layers) override {
    res_ = timed(layers.call_ns["core.gossip_s"], [&] { return run_gossip(net_); });
    layers.counts["core.gossip.rounds"] = res_.rounds;
  }

  std::string check() const override {
    if (!res_.complete) return "gossip: some node misses a token";
    if (net_.stats().messages_sent != uint64_t{kN} * (kN - 1))
      return "gossip: messages != n(n-1)";
    return "";
  }

  uint64_t digest() const override { return fold(res_.rounds, res_.complete ? 1 : 0); }

 private:
  GossipResult res_;
};

/// The Section 5 pipeline on a sparse random graph: orientation, broadcast
/// trees, BFS from node 0, MIS. A few hundred messages per round: router-
/// bound. Orientation's round count doubles on an unlucky seed, so a run
/// averages several instances.
class PipelineWorkload final : public Workload {
 public:
  static constexpr NodeId kN = 1024;

  PipelineWorkload(uint64_t seed, uint32_t threads)
      : Workload(kN, seed, threads),
        g_(timed(generate_ns_, [&] {
          Rng rng(mix64(seed ^ 0x67726170));
          return gnm_graph(kN, 8ull * kN, rng);
        })),
        shared_(kN, mix64(seed ^ 0x73686172)) {}

  void solve(Layers& layers) override {
    auto& ns = layers.call_ns;
    OrientationRunResult orient = timed(
        ns["core.orientation_s"], [&] { return run_orientation(shared_, net_, g_); });
    BroadcastTrees bt = timed(ns["core.broadcast_trees_s"], [&] {
      return build_broadcast_trees(shared_, net_, g_, orient.orientation, 7);
    });
    bfs_ = timed(ns["core.bfs_s"], [&] { return run_bfs(shared_, net_, g_, bt, 0, 3); });
    mis_ = timed(ns["core.mis_s"], [&] { return run_mis(shared_, net_, g_, bt, 5); });
    layers.counts["core.orientation.rounds"] = orient.rounds;
    layers.counts["core.broadcast_trees.rounds"] = bt.rounds;
    layers.counts["core.bfs.rounds"] = bfs_.rounds;
    layers.counts["core.mis.rounds"] = mis_.rounds;
  }

  std::string check() const override {
    if (bfs_.dist != bfs_distances(g_, 0)) return "bfs: dist != bfs_distances";
    if (!is_maximal_independent_set(g_, mis_.in_mis)) return "mis: not a maximal independent set";
    return "";
  }

  uint64_t digest() const override {
    uint64_t h = 0x70697065;
    for (NodeId u = 0; u < kN; ++u) {
      h = fold(h, bfs_.dist[u]);
      h = fold(h, bfs_.parent[u]);
      h = fold(h, mis_.in_mis[u] ? 1 : 0);
    }
    return h;
  }

 private:
  Graph g_;
  Shared shared_;
  BfsResult bfs_;
  MisResult mis_;
};

/// The paper's headline MST (Boruvka with FindMin sketches) on a connected
/// random-weight graph. n is below the engine's loop cutoff and the engine
/// has one thread: the single-threaded, per-round-fixed-cost baseline. The
/// number of Boruvka phases, and with it the round count, varies by about
/// 20% between seeds, so a run averages many instances.
class MstWorkload final : public Workload {
 public:
  static constexpr NodeId kN = 32;

  MstWorkload(uint64_t seed, uint32_t threads)
      : Workload(kN, seed, threads),
        g_(timed(generate_ns_, [&] {
          Rng rng(mix64(seed ^ 0x6d7374));
          Graph base = connectify(gnm_graph(kN, 8ull * kN, rng), rng);
          return with_random_weights(base, Weight{1} << 16, rng);
        })),
        shared_(kN, mix64(seed ^ 0x73686172)) {}

  void solve(Layers& layers) override {
    res_ = timed(layers.call_ns["core.mst_s"], [&] { return run_mst(shared_, net_, g_, {}, 9); });
    layers.counts["core.mst.rounds"] = res_.rounds;
  }

  std::string check() const override {
    if (res_.total_weight != kruskal_msf(g_).total_weight) return "mst: weight != kruskal_msf";
    if (!is_spanning_forest(g_, res_.edges)) return "mst: not a spanning forest";
    return "";
  }

  uint64_t digest() const override {
    uint64_t h = fold(0x6d7374, res_.total_weight);
    for (const Edge& e : res_.edges) h = fold(fold(fold(h, e.u), e.v), e.w);
    return h;
  }

 private:
  Graph g_;
  Shared shared_;
  MstResult res_;
};

/// Zipf(1.2) multicast request waves over a small hot-key universe, served
/// through the per-routing-state LRU combining cache: the router used the
/// other way round from the pipeline (few hot groups, large memberships,
/// repeated wave after wave).
class HotkeyWorkload final : public Workload {
 public:
  static constexpr NodeId kN = 4096;
  static constexpr uint32_t kWaves = 16;
  static constexpr uint64_t kRequestsPerWave = 4ull * kN;
  static constexpr uint32_t kHotKeys = 256;
  static constexpr double kZipfS = 1.2;
  static constexpr uint32_t kCacheSize = 16;

  HotkeyWorkload(uint64_t seed, uint32_t threads)
      : Workload(kN, seed, threads),
        waves_(timed(generate_ns_, [&] { return make_waves(seed); })),
        shared_(kN, mix64(seed ^ 0x73686172)),
        cache_(shared_.topo().node_count(), kCacheSize) {}

  void solve(Layers& layers) override {
    uint64_t moved = 0, combines = 0;
    for (uint32_t w = 0; w < kWaves; ++w) {
      const Wave& wave = waves_[w];
      MulticastSetupResult setup = timed(layers.call_ns["primitives.setup_multicast_trees_s"], [&] {
        return setup_multicast_trees(shared_, net_, wave.members, 2ull * w + 1, &cache_);
      });
      MulticastResult res = timed(layers.call_ns["primitives.run_multicast_multi_s"], [&] {
        return run_multicast_multi(shared_, net_, setup.trees, wave.sends, wave.ell_hat,
                                   2ull * w + 2, &cache_);
      });
      moved += setup.route.packets_moved + res.route.packets_moved;
      combines += setup.route.combines + res.route.combines;
      received_.push_back(std::move(res.received));
    }
    layers.counts["overlay.packets_moved"] = moved;
    layers.counts["overlay.combines"] = combines;
    layers.counts["overlay.cache.hits"] = cache_.stats().hits;
    layers.counts["overlay.cache.misses"] = cache_.stats().misses;
    layers.counts["requests"] = kWaves * kRequestsPerWave;
  }

  std::string check() const override {
    if (received_.size() != kWaves) return "hotkey: waves missing";
    for (uint32_t w = 0; w < kWaves; ++w) {
      std::vector<std::unordered_map<uint64_t, Val>> got(kN);
      for (NodeId u = 0; u < kN; ++u)
        for (const AggPacket& p : received_[w][u]) got[u].emplace(p.group, p.val);
      for (const MulticastMembership& mm : waves_[w].members) {
        auto it = got[mm.member].find(mm.group);
        if (it == got[mm.member].end()) return "hotkey: a request missed its delivery";
        if (it->second != payload_of(mm.group)) return "hotkey: a request got a wrong payload";
      }
    }
    return "";
  }

  uint64_t digest() const override {
    uint64_t h = fold(0x686f74, cache_.stats().hits);
    for (const auto& wave : received_)
      for (const auto& inbox : wave)
        for (const AggPacket& p : inbox) h = fold(fold(fold(h, p.group), p.val[0]), p.val[1]);
    return h;
  }

 private:
  struct Wave {
    std::vector<MulticastMembership> members;
    std::vector<MulticastSend> sends;
    uint32_t ell_hat = 1;
  };

  Val payload_of(uint64_t group) const { return Val{mix64(seed_ ^ group), group}; }

  std::vector<Wave> make_waves(uint64_t seed) const {
    scenario::ZipfSampler zipf(kHotKeys, kZipfS);
    Rng rng(mix64(seed ^ 0x40719e7));
    std::vector<Wave> waves(kWaves);
    for (Wave& wave : waves) {
      std::vector<uint32_t> per_member(kN, 0);
      std::vector<bool> seen(kHotKeys, false);
      for (uint64_t i = 0; i < kRequestsPerWave; ++i) {
        NodeId member = static_cast<NodeId>(rng.next_below(kN));
        uint32_t key = zipf.draw(rng);
        uint64_t group = 0x1000 + key;
        wave.members.push_back({member, group});
        wave.ell_hat = std::max(wave.ell_hat, ++per_member[member]);
        if (!seen[key]) {
          seen[key] = true;
          wave.sends.push_back({group, static_cast<NodeId>(group % kN), payload_of(group)});
        }
      }
    }
    return waves;
  }

  std::vector<Wave> waves_;
  Shared shared_;
  CombiningCache cache_;
  std::vector<std::vector<std::vector<AggPacket>>> received_;  // [wave][node]
};

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed,
                                        uint32_t threads) {
  if (name == "gossip") return std::make_unique<GossipWorkload>(seed, threads);
  if (name == "pipeline") return std::make_unique<PipelineWorkload>(seed, threads);
  if (name == "mst") return std::make_unique<MstWorkload>(seed, threads);
  if (name == "hotkey") return std::make_unique<HotkeyWorkload>(seed, threads);
  return nullptr;
}

/// Engine threads, calling thread included: mst is the single-threaded
/// baseline.
uint32_t threads_of(const std::string& name, uint32_t requested) {
  return name == "mst" ? 1 : requested;
}

/// Instances per seed; 0 = unknown workload.
uint32_t instances_of(const std::string& name) {
  if (name == "gossip" || name == "hotkey") return 1;
  if (name == "pipeline") return 32;
  if (name == "mst") return 48;
  return 0;
}

uint64_t instance_seed(uint64_t seed, uint32_t instance) {
  return mix64(mix64(seed) ^ instance);
}

/// The traced cycle's raw timeline: end-of-round timestamps (ns since the
/// solve started; entry r is round r's end_round) and the tracer's spans.
struct Timeline {
  std::vector<uint64_t> round_end_ns;
  std::vector<obs::SpanRecord> spans;
  bool truncated = false;
};

/// Setups timed per cycle: the one that is solved plus setup-only repeats,
/// so the sub-millisecond setups still get a steady median.
constexpr int kSetupSamples = 5;

struct Cycle {
  std::string error;  // check() failure or exception text; "" = correct
  std::vector<uint64_t> setup_ns;  // kSetupSamples setups, the solved one last
  uint64_t generate_ns = 0, solve_ns = 0, cpu_ns = 0;
  uint64_t rounds = 0, messages = 0, digest = 0;
  Layers layers;
  // Engine + network layer readings over the solve.
  uint64_t stage_ns = 0, merge_ns = 0, deliver_ns = 0, mem_peak_bytes = 0, mem_allocs = 0;
};

Cycle run_cycle(const std::string& name, uint64_t seed, uint32_t threads, Timeline* timeline) {
  Cycle c;
  try {
    // Setup-only repeats first, each torn down before the next, so no two
    // engines' threads are ever alive at once.
    for (int r = 1; r < kSetupSamples; ++r) {
      Clock::time_point t = Clock::now();
      std::unique_ptr<Workload> discard = make_workload(name, seed, threads);
      c.setup_ns.push_back(ns_since(t));
    }
    Clock::time_point setup_start = Clock::now();
    std::unique_ptr<Workload> w = make_workload(name, seed, threads);
    c.setup_ns.push_back(ns_since(setup_start));
    c.generate_ns = w->generate_ns();
    Network& net = w->net();

    std::unique_ptr<obs::Tracer> tracer;
    Network::HookId hook = 0;
    Clock::time_point solve_start;
    if (timeline) {
      // A cap no workload reaches; truncation is still reported, never hidden.
      tracer = std::make_unique<obs::Tracer>(net, size_t{1} << 26);
      timeline->round_end_ns.reserve(1u << 17);
      hook = net.add_round_hook([timeline, &solve_start](uint64_t, const NetStats&) {
        timeline->round_end_ns.push_back(ns_since(solve_start));
      });
    }
    w->engine().reset_timing();

    uint64_t cpu0 = cpu_ns();
    solve_start = Clock::now();
    w->solve(c.layers);
    c.solve_ns = ns_since(solve_start);
    c.cpu_ns = cpu_ns() - cpu0;

    if (timeline) {
      net.remove_round_hook(hook);
      timeline->spans = tracer->spans();
      timeline->truncated = tracer->truncated();
      tracer.reset();
    }
    c.rounds = net.stats().total_rounds();
    c.messages = net.stats().messages_sent;
    for (const EngineShardTiming& t : w->engine().shard_timing()) {
      c.stage_ns += t.stage_ns;
      c.merge_ns += t.merge_ns;
      c.deliver_ns += t.deliver_ns;
    }
    c.mem_peak_bytes = net.mem_stats().container_bytes_peak;
    c.mem_allocs = net.mem_stats().allocs;
    for (const EngineShardMemory& m : w->engine().shard_memory()) {
      c.mem_peak_bytes += m.staged_bytes_peak;
      c.mem_allocs += m.allocs;
    }
    c.error = w->check();
    c.digest = fold(fold(w->digest(), c.rounds), c.messages);
  } catch (const std::exception& e) {
    c.error = std::string("exception: ") + e.what();
  }
  return c;
}

void emit(const char* kind, uint32_t instance, const Cycle& c) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("kind", kind);
  w.kv("instance", instance);
  w.kv("ok", c.error.empty());
  w.kv("error", c.error);
  w.key("setup_ns");
  w.begin_array();
  for (uint64_t ns : c.setup_ns) w.value(ns);
  w.end_array();
  w.kv("generate_ns", c.generate_ns);
  w.kv("solve_ns", c.solve_ns);
  w.kv("cpu_ns", c.cpu_ns);
  w.kv("rounds", c.rounds);
  w.kv("messages", c.messages);
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(c.digest));
  w.kv("digest", std::string(digest));
  w.kv("engine_stage_ns", c.stage_ns);
  w.kv("engine_merge_ns", c.merge_ns);
  w.kv("engine_deliver_ns", c.deliver_ns);
  w.kv("mem_peak_bytes", c.mem_peak_bytes);
  w.kv("mem_allocs", c.mem_allocs);
  w.key("call_ns");
  w.begin_object();
  for (const auto& [k, v] : c.layers.call_ns) w.kv(k, v);
  w.end_object();
  w.key("counts");
  w.begin_object();
  for (const auto& [k, v] : c.layers.counts) w.kv(k, v);
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

bool write_timeline(const std::string& path, const Timeline& t) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("truncated", t.truncated);
  w.key("round_end_ns");
  w.begin_array();
  for (uint64_t ns : t.round_end_ns) w.value(ns);
  w.end_array();
  // Spans as [name, parent, begin_round, end_round], in begin order.
  w.key("spans");
  w.begin_array();
  for (const obs::SpanRecord& s : t.spans) {
    w.begin_array();
    w.value(s.name);
    w.value(s.parent);
    w.value(s.begin_round);
    w.value(s.end_round);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  bool ok = std::fputs(w.str().c_str(), f) >= 0;
  return std::fclose(f) == 0 && ok;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "ncc_perfbench: %s\nusage: ncc_perfbench --workload gossip|pipeline|mst|hotkey "
               "--seed S --seconds T --threads K [--trace-file PATH]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_file;
  uint64_t seed = 0, seconds = 0, threads = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    bool ok = true;
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      ok = parse_u64(v, &seed);
      have_seed = ok;
    } else if (k == "--seconds") {
      ok = parse_u64(v, &seconds);
    } else if (k == "--threads") {
      ok = parse_u64(v, &threads);
    } else if (k == "--trace-file") {
      trace_file = v;
    } else {
      return usage(("unknown flag " + k).c_str());
    }
    if (!ok) return usage(("bad value for " + k).c_str());
  }
  if (!have_seed || seconds == 0 || seconds > 3600 || threads == 0 || threads > 1024)
    return usage("--seed, --seconds in [1, 3600] and --threads in [1, 1024] are required");
  const uint32_t instances = instances_of(workload);
  if (instances == 0) return usage("unknown workload");

  const uint32_t th = threads_of(workload, static_cast<uint32_t>(threads));
  {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("kind", "build");
    w.kv("build_type", NCC_BENCH_BUILD_TYPE);
#if defined(__clang__)
    w.kv("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    w.kv("compiler", std::string("gcc ") + __VERSION__);
#else
    w.kv("compiler", __VERSION__);
#endif
    w.kv("instances", instances);
    w.kv("threads", th);
#ifdef NDEBUG
    w.kv("ndebug", true);
#else
    w.kv("ndebug", false);
#endif
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  }

  const uint64_t budget_ns = seconds * 1000000000ull;
  Clock::time_point start = Clock::now();
  // One full pass over the instances, then more cycles round-robin while
  // the next is expected to fit: every run reports the same instance set,
  // however many repeats the machine's speed allows.
  uint64_t longest_ns = 0;
  for (uint64_t k = 0; k < instances || ns_since(start) + longest_ns <= budget_ns; ++k) {
    Clock::time_point cycle_start = Clock::now();
    const uint32_t i = static_cast<uint32_t>(k % instances);
    emit("cycle", i, run_cycle(workload, instance_seed(seed, i), th, nullptr));
    longest_ns = std::max(longest_ns, ns_since(cycle_start));
  }

  if (!trace_file.empty()) {
    Timeline timeline;
    Cycle c = run_cycle(workload, instance_seed(seed, 0), th, &timeline);
    if (c.error.empty() && !write_timeline(trace_file, timeline))
      c.error = "cannot write " + trace_file;
    emit("traced", 0, c);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"kind\": \"end\", \"peak_rss_kb\": %ld}\n", ru.ru_maxrss);
  return 0;
}

#include "overlay/router.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

#include "common/assert.hpp"
#include "common/flat_map.hpp"
#include "overlay/cache.hpp"
#include "engine/engine.hpp"
#include "obs/flow.hpp"
#include "obs/tracer.hpp"

namespace ncc {

namespace agg {
Val sum(const Val& a, const Val& b) { return {a[0] + b[0], a[1] + b[1]}; }
Val min_by_first(const Val& a, const Val& b) {
  if (a[0] != b[0]) return a[0] < b[0] ? a : b;
  return a[1] <= b[1] ? a : b;  // deterministic tie-break on second word
}
Val max_by_first(const Val& a, const Val& b) {
  if (a[0] != b[0]) return a[0] > b[0] ? a : b;
  return a[1] >= b[1] ? a : b;
}
Val xor_count(const Val& a, const Val& b) { return {a[0] ^ b[0], a[1] + b[1]}; }
Val xor_xor(const Val& a, const Val& b) { return {a[0] ^ b[0], a[1] ^ b[1]}; }
}  // namespace agg

namespace {

// Message tags (low byte carries the destination routing level).
constexpr uint32_t kTagDownPacket = 0x0100;
constexpr uint32_t kTagDownToken = 0x0200;
constexpr uint32_t kTagUpPacket = 0x0300;
constexpr uint32_t kTagUpToken = 0x0400;

constexpr uint32_t tag_kind(uint32_t tag) { return tag & 0xff00u; }
constexpr uint32_t tag_level(uint32_t tag) { return tag & 0x00ffu; }

// Down-edge degrees can reach 2d <= 62 (augmented cube), so per-node edge
// masks are uint64_t and this is the hard ceiling a new overlay must respect.
constexpr uint32_t kMaxDegree = 62;

/// Priority of a group under the contention rule: smallest rank first, ties
/// broken by smallest group id (Appendix B.2).
struct Prio {
  uint64_t rank;
  uint64_t group;
  bool operator<(const Prio& o) const {
    return rank != o.rank ? rank < o.rank : group < o.group;
  }
};

/// Per-edge contention winner scratch (indexed by down-edge).
struct EdgeBest {
  bool found = false;
  Prio best{};
  uint64_t group = 0;
};

/// Tracks the max number of distinct groups observed at any overlay node.
class CongestionTracker {
 public:
  explicit CongestionTracker(uint64_t node_count) : seen_(node_count) {}

  void visit(uint64_t node_index, uint64_t group) {
    auto& s = seen_[node_index];
    if (s.emplace(group, 1).second)
      max_ = std::max<uint32_t>(max_, static_cast<uint32_t>(s.size()));
  }
  uint32_t max() const { return max_; }

 private:
  // Insert + size only — never iterated, so the membership set is a FlatMap
  // used as a set (value ignored).
  std::vector<FlatMap<uint8_t>> seen_;
  uint32_t max_ = 0;
};

/// Deduplicated worklist of routing-state indices; only nodes with work are
/// visited each round, which keeps a round's cost proportional to the traffic
/// rather than to the overlay size.
class ActiveSet {
 public:
  explicit ActiveSet(uint64_t node_count) : flag_(node_count, false) {}

  void add(uint64_t idx) {
    if (!flag_[idx]) {
      flag_[idx] = true;
      items_.push_back(idx);
    }
  }
  /// Sorted snapshot for deterministic iteration; clears membership flags so
  /// nodes re-add themselves if they still have work.
  std::vector<uint64_t> take() {
    std::sort(items_.begin(), items_.end());
    for (uint64_t i : items_) flag_[i] = false;
    return std::exchange(items_, {});
  }
  bool empty() const { return items_.empty(); }

 private:
  std::vector<bool> flag_;
  std::vector<uint64_t> items_;
};

/// The stall heartbeat shared by both engines: when a faulted network ate
/// every in-flight message of a round (zero progress), re-send all tokens
/// already launched. Token arrival is a bitmask OR, so duplicates are free;
/// a reliable network moves a packet or token every round and never gets
/// here. `send_token(idx, edge)` emits the cross-edge token message.
uint64_t resend_sent_tokens(const std::vector<uint64_t>& token_sent,
                            const std::function<void(uint64_t, uint32_t)>& send_token) {
  uint64_t resent = 0;
  for (uint64_t idx = 0; idx < token_sent.size(); ++idx) {
    uint64_t mask = token_sent[idx] & ~uint64_t{1};  // straight tokens are local
    while (mask) {
      uint32_t e = static_cast<uint32_t>(std::countr_zero(mask));
      mask &= mask - 1;
      send_token(idx, e);
      ++resent;
    }
  }
  return resent;
}

}  // namespace

uint32_t MulticastTrees::max_leaf_load() const {
  uint32_t best = 0;
  for (const auto& v : leaf_members)
    best = std::max<uint32_t>(best, static_cast<uint32_t>(v.size()));
  return best;
}

DownResult route_down(const Overlay& topo, Network& net,
                      std::vector<std::vector<AggPacket>> at_col,
                      const std::function<NodeId(uint64_t)>& dest_col,
                      const std::function<uint64_t(uint64_t)>& rank,
                      const CombineFn& combine, MulticastTrees* record,
                      CombiningCache* cache) {
  obs::Span span(net, "route.down");
  // Cached once: deposits run only on the caller thread, in deterministic
  // merge order, so hops recorded here are thread-count invariant.
  obs::FlowSampler* flows = net.flow_sampler();
  const uint32_t F = topo.levels() - 1;  // final routing level
  const NodeId cols = topo.columns();
  NCC_ASSERT(at_col.size() == cols);
  for (uint32_t l = 0; l < F; ++l) NCC_ASSERT(topo.down_degree(l) <= kMaxDegree);

  DownResult result;
  CongestionTracker congestion(topo.overlay_node_count());

  // Cached group metadata (dest column and rank are hash evaluations that
  // every node can compute from the shared randomness). Populated on deposit
  // — always sequential — so the parallel step loop reads a frozen map.
  FlatMap<std::pair<NodeId, uint64_t>> meta;
  auto group_meta = [&](uint64_t g) -> const std::pair<NodeId, uint64_t>& {
    auto [slot, fresh] = meta.emplace(g, {});
    if (fresh) {
      NodeId dc = dest_col(g);
      NCC_ASSERT(dc < cols);
      *slot = std::make_pair(dc, rank(g));
    }
    return *slot;
  };
  auto meta_of = [&](uint64_t g) -> const std::pair<NodeId, uint64_t>& {
    const auto* slot = meta.find(g);
    NCC_ASSERT(slot != nullptr);
    return *slot;
  };

  // Per routing state: combined pending packet per group.
  std::vector<FlatMap<Val>> pending(topo.node_count());
  uint64_t pending_total = 0;
  ActiveSet active(topo.node_count());
  // Effects applied after end_round() on the caller thread; counted toward
  // the round's progress so the stall heartbeat only fires when the network
  // truly delivered nothing new.
  uint64_t progress = 0;

  // Token state: tokens flow level 0 -> F behind the packets, one per
  // (node, down-edge). Each token message carries its edge index and
  // tokens_recv tracks in-edges as a bitmask (in-degree == down-degree of the
  // level above: generators are involutions), so duplicate deliveries — the
  // stall heartbeat re-sends — are idempotent. Level-0 nodes start ready.
  // Declared before deposit() because the absorber admission rule reads
  // token_ready (see below).
  std::vector<uint64_t> tokens_recv(topo.node_count(), 0);
  std::vector<uint64_t> token_sent(topo.node_count(), 0);
  auto full_mask = [&](uint32_t level) -> uint64_t {
    return (uint64_t{1} << topo.down_degree(level)) - 1;
  };
  auto token_ready = [&](uint64_t idx) {
    uint32_t level = static_cast<uint32_t>(idx / cols);
    return level == 0 || tokens_recv[idx] == full_mask(level - 1);
  };

  // En-route cache bookkeeping (overlay/cache.hpp). All cache traffic runs
  // at the sequential deposit/token merge points, so hits and evictions are
  // bit-identical across engine thread counts. Stats are reported as
  // per-call deltas.
  const CombiningCache::Stats cache_before =
      cache ? cache->stats() : CombiningCache::Stats{};
  // Dedup index into record->cache_roots: later hits of a group at the same
  // state OR their subtree masks into the root recorded by the first hit.
  std::map<std::pair<uint64_t, uint64_t>, size_t> croot_at;

  auto deposit = [&](uint32_t level, NodeId col, uint64_t group, const Val& v) {
    uint64_t idx = topo.index(level, col);
    congestion.visit(topo.overlay_node(level, col), group);
    group_meta(group);
    ++progress;
    // Serving-side cache hit (tree setup only): the state holds this group's
    // payload, so the request ends here. Snapshot-and-clear the subtree
    // recorded below this state and register it as a cache root; the next
    // Spreading Phase injects the cached payload there instead of descending
    // from the group root. Clearing keeps the recorded tree and the cache
    // root disjoint — the up phase serves every recorded edge exactly once.
    if (cache && record && level < F) {
      if (const Val* pv = cache->lookup_payload(idx, group)) {
        uint64_t mask = 0;
        if (uint64_t* recorded = record->children[idx].find(group)) {
          mask = *recorded;
          *recorded = 0;
        }
        auto [dit, fresh_root] = croot_at.emplace(std::make_pair(idx, group),
                                                  record->cache_roots.size());
        if (fresh_root) {
          record->cache_roots.push_back({group, idx, *pv, mask});
        } else {
          record->cache_roots[dit->second].mask |= mask;
        }
        if (flows)
          flows->record_hop(
              group, /*up=*/false, level,
              topo.route_edge(level, col, group_meta(group).first),
              topo.host(col), net.rounds(), /*cache_hit=*/true);
        return;
      }
    }
    if (flows)
      flows->record_hop(
          group, /*up=*/false, level,
          level == F ? 0 : topo.route_edge(level, col, group_meta(group).first),
          topo.host(col), net.rounds());
    if (level == F) {
      // A reliable network never misroutes (the destination-driven descent
      // ends at the group's root column), so there a mismatch is still a hard
      // routing-invariant violation; under byzantine corruption a rewritten
      // group id can land a packet at a foreign root on its last hop — then
      // it is network behaviour: count it and drop, don't abort.
      if (group_meta(group).first != col) {
        NCC_ASSERT_MSG(net.corruption_possible(),
                       "packet misrouted on a reliable network");
        ++result.stats.misrouted;
        return;
      }
      auto [slot, fresh] = result.root_values.emplace(group, v);
      if (!fresh) {
        *slot = combine(*slot, v);
        ++result.stats.combines;
      }
      result.root_col[group] = col;
      if (record) record->root_col[group] = col;
      return;
    }
    // Absorber-side caching (pure aggregation descent): a repeat packet of a
    // group whose earlier packet already departed parks in the armed
    // absorber instead of climbing separately; its mass re-enters the
    // pending queue at this state's token-completion transition.
    if (cache && !record && level >= 1) {
      if (Val* queued = pending[idx].find(group)) {
        *queued = combine(*queued, v);
        ++result.stats.combines;
        active.add(idx);
        return;
      }
      if (cache->absorb(idx, group, v, combine)) return;
      pending[idx].emplace(group, v);
      ++pending_total;
      active.add(idx);
      // Arm only while more packets can still arrive (tokens incomplete): an
      // absorber armed after the flush transition would never drain.
      if (!token_ready(idx)) {
        CombiningCache::Flushed ev;
        if (cache->arm_absorber(idx, group, &ev)) {
          auto [slot, fresh] = pending[idx].emplace(ev.group, ev.val);
          if (fresh) {
            ++pending_total;
          } else {
            *slot = combine(*slot, ev.val);
            ++result.stats.combines;
          }
        }
      }
      return;
    }
    auto [slot, fresh] = pending[idx].emplace(group, v);
    if (fresh) {
      ++pending_total;
    } else {
      *slot = combine(*slot, v);
      ++result.stats.combines;
    }
    active.add(idx);
  };

  // Initialize the tree record before the first deposits: the serving-hit
  // branch reads record->children for level-0 states too.
  if (record) {
    record->levels = topo.levels();
    record->children.assign(topo.node_count(), {});
  }

  for (NodeId c = 0; c < cols; ++c)
    for (const AggPacket& p : at_col[c]) deposit(0, c, p.group, p.val);
  at_col.clear();

  uint64_t tokens_pending = 0;
  for (uint32_t l = 0; l < F; ++l)
    tokens_pending += static_cast<uint64_t>(topo.down_degree(l)) * cols;
  for (NodeId c = 0; c < cols; ++c) active.add(topo.index(0, c));

  struct LocalMove {
    uint32_t level;  // destination level
    NodeId col;
    uint64_t group;
    Val val;
    bool is_token;
    uint32_t edge = 0;  // token in-edge index
  };
  std::vector<LocalMove> local;

  // The per-round step loop runs shard-parallel over the active routing
  // states: each item only mutates its own pending queue / token state, and
  // every cross-node effect (sends, straight-edge moves, tree recording,
  // counters, re-activation) is staged per shard and merged in shard order —
  // which restores the sequential iteration order exactly. Sends stage into
  // the shard's sink, which the loop hands to the network before returning.
  struct RecordOp {
    uint64_t cidx;
    uint64_t group;
    uint64_t bit;
  };
  struct StepOut {
    std::vector<LocalMove> local;
    std::vector<RecordOp> rec;
    std::vector<uint64_t> readd;
    uint64_t moved = 0, freed = 0, tokens = 0;
  };
  std::vector<StepOut> outs(engine_shards(net));
  std::vector<std::vector<LocalMove>> arrivals(engine_shards(net));
  std::vector<uint64_t> items;
  std::vector<CombiningCache::Flushed> flush_buf;

  bool first_round = true;
  while (pending_total > 0 || tokens_pending > 0) {
    // Stall heartbeat: the previous round delivered and moved nothing (only
    // possible when fault injection ate every in-flight message), so re-send
    // every already-launched token before stepping.
    if (!first_round && progress == 0) {
      result.stats.token_resends += resend_sent_tokens(
          token_sent, [&](uint64_t idx, uint32_t e) {
            uint32_t level = static_cast<uint32_t>(idx / cols);
            NodeId col = static_cast<NodeId>(idx % cols);
            NodeId ncol = topo.down_column(level, col, e);
            net.send(topo.host(col), topo.host(ncol), kTagDownToken | (level + 1), {e});
          });
    }
    first_round = false;
    progress = 0;

    items = active.take();
    engine_send_ranges(net, items.size(), [&](uint32_t s, uint64_t ib, uint64_t ie,
                                              MsgSink& sink) {
      StepOut& out = outs[s];  // drained and cleared by the merge below
      // Per-edge contention scratch, hoisted out of the item loop: only the
      // first `deg` entries are live per item (2 on the bit-fixing overlays),
      // so resetting `found` beats zero-initializing the whole 62-slot array
      // on the router's hottest path.
      std::array<EdgeBest, kMaxDegree> best;
      for (uint64_t ii = ib; ii < ie; ++ii) {
        uint64_t idx = items[ii];
        uint32_t level = static_cast<uint32_t>(idx / cols);
        NodeId col = static_cast<NodeId>(idx % cols);
        NCC_ASSERT(level < F);  // final-level nodes never enqueue work
        const uint32_t deg = topo.down_degree(level);
        auto& pq = pending[idx];
        uint64_t edge_used = 0, edge_wanted = 0;
        for (uint32_t e = 0; e < deg; ++e) best[e].found = false;
        pq.for_each([&](uint64_t g, const Val&) {
          uint32_t e = topo.route_edge(level, col, meta_of(g).first);
          NCC_ASSERT(e < deg);
          edge_wanted |= uint64_t{1} << e;
          Prio p{meta_of(g).second, g};
          if (!best[e].found || p < best[e].best) {
            best[e] = {true, p, g};
          }
        });
        for (uint32_t e = 0; e < deg; ++e) {
          if (!best[e].found) continue;
          edge_used |= uint64_t{1} << e;
          uint64_t g = best[e].group;
          Val v = *pq.find(g);
          pq.erase(g);
          ++out.freed;
          ++out.moved;
          NodeId ncol = topo.down_column(level, col, e);
          if (record) {
            // Record the reverse (up) edge at the child for the multicast
            // tree. The child may belong to another shard, so stage the op.
            uint64_t cidx = topo.index(level + 1, ncol);
            out.rec.push_back({cidx, g, uint64_t{1} << e});
          }
          if (e == 0) {
            out.local.push_back({level + 1, ncol, g, v, false});
          } else {
            sink.send(topo.host(col), topo.host(ncol), kTagDownPacket | (level + 1),
                      {g, v[0], v[1]});
          }
        }
        // A packet remaining at the node means another packet of its group
        // may still arrive and combine; the token waits for the edge to clear.
        if (token_ready(idx)) {
          for (uint32_t e = 0; e < deg; ++e) {
            uint64_t bit = uint64_t{1} << e;
            if ((edge_used | edge_wanted | token_sent[idx]) & bit) continue;
            token_sent[idx] |= bit;
            ++out.tokens;
            NodeId ncol = topo.down_column(level, col, e);
            if (e == 0) {
              out.local.push_back({level + 1, ncol, 0, {}, true, 0});
            } else {
              sink.send(topo.host(col), topo.host(ncol), kTagDownToken | (level + 1),
                        {e});
            }
          }
        }
        if (!pq.empty() || (token_ready(idx) && token_sent[idx] != full_mask(level)))
          out.readd.push_back(idx);
      }
    });
    local.clear();
    for (StepOut& out : outs) {
      local.insert(local.end(), out.local.begin(), out.local.end());
      if (record)
        for (const RecordOp& op : out.rec) record->children[op.cidx][op.group] |= op.bit;
      for (uint64_t idx : out.readd) active.add(idx);
      result.stats.packets_moved += out.moved;
      progress += out.moved + out.tokens;
      pending_total -= out.freed;
      tokens_pending -= out.tokens;
      out.local.clear();
      out.rec.clear();
      out.readd.clear();
      out.moved = out.freed = out.tokens = 0;
    }

    net.end_round();
    ++result.stats.rounds;

    auto arrive_token = [&](uint32_t level, NodeId col, uint32_t edge) {
      if (level == F) return;  // final-level tokens terminate here
      uint64_t idx = topo.index(level, col);
      uint64_t bit = uint64_t{1} << edge;
      if (!(tokens_recv[idx] & bit)) {
        tokens_recv[idx] |= bit;
        ++progress;
        // Token completion is the absorber drain point: every value parked
        // at this state re-enters the pending queue here, exactly once, so
        // aggregates stay exact. Runs at the sequential merge, like deposits.
        if (cache && !record && token_ready(idx)) {
          flush_buf.clear();
          cache->flush_absorbers(idx, &flush_buf);
          for (const CombiningCache::Flushed& f : flush_buf) {
            auto [slot, fresh] = pending[idx].emplace(f.group, f.val);
            if (fresh) {
              ++pending_total;
            } else {
              *slot = combine(*slot, f.val);
              ++result.stats.combines;
            }
            active.add(idx);
          }
        }
      }
      if (token_ready(idx) && token_sent[idx] != full_mask(level)) active.add(idx);
    };
    for (const LocalMove& mv : local) {
      if (mv.is_token) {
        arrive_token(mv.level, mv.col, mv.edge);
      } else {
        deposit(mv.level, mv.col, mv.group, mv.val);
      }
    }
    // Arrival scan, sharded over host columns: each shard decodes its
    // columns' inboxes into staged arrival records; the merge applies them
    // in shard order, which concatenates back to the sequential
    // column-ascending scan order — deposits (which touch shared routing
    // state) stay on the caller thread and bit-identical for any shard count.
    engine_ranges(net, cols, [&](uint32_t s, uint64_t ub, uint64_t ue) {
      std::vector<LocalMove>& arr = arrivals[s];
      for (uint64_t u = ub; u < ue; ++u) {
        for (const Message& m : net.inbox(static_cast<NodeId>(u))) {
          if (tag_kind(m.tag) == kTagDownPacket) {
            arr.push_back({tag_level(m.tag), static_cast<NodeId>(u), m.word(0),
                           Val{m.word(1), m.word(2)}, false, 0});
          } else if (tag_kind(m.tag) == kTagDownToken) {
            // The in-edge is derived from the transport framing (src and dst
            // are network truth), never from the payload: a byzantine mutation
            // of the payload cannot poison the in-edge bitmask.
            uint32_t level = tag_level(m.tag);
            uint32_t e = topo.edge_from_delta(
                level - 1, static_cast<NodeId>(u) ^ m.src);
            arr.push_back({level, static_cast<NodeId>(u), 0, {}, true, e});
          }
        }
      }
    });
    for (auto& arr : arrivals) {
      for (const LocalMove& mv : arr) {
        if (mv.is_token) {
          arrive_token(mv.level, mv.col, mv.edge);
        } else {
          deposit(mv.level, mv.col, mv.group, mv.val);
        }
      }
      arr.clear();
    }
  }

  result.stats.congestion = congestion.max();
  if (record) record->congestion = congestion.max();
  if (cache) {
    const CombiningCache::Stats& cs = cache->stats();
    result.stats.cache_hits = cs.hits - cache_before.hits;
    result.stats.cache_misses = cs.misses - cache_before.misses;
    result.stats.cache_evictions = cs.evictions - cache_before.evictions;
  }
  return result;
}

UpResult route_up(const Overlay& topo, Network& net, const MulticastTrees& trees,
                  const FlatMap<Val>& payloads,
                  const std::function<uint64_t(uint64_t)>& rank,
                  CombiningCache* cache) {
  obs::Span span(net, "route.up");
  // Same caller-thread determinism argument as route_down's sampler use.
  obs::FlowSampler* flows = net.flow_sampler();
  const uint32_t F = topo.levels() - 1;
  const NodeId cols = topo.columns();
  NCC_ASSERT(trees.levels == topo.levels());
  NCC_ASSERT(trees.children.size() == topo.node_count());
  for (uint32_t l = 0; l < F; ++l) NCC_ASSERT(topo.down_degree(l) <= kMaxDegree);

  UpResult result;
  result.at_col.assign(cols, {});

  // Populated on arrive() — always sequential — so the parallel step loop
  // reads a frozen map.
  FlatMap<uint64_t> rank_cache;
  auto group_rank = [&](uint64_t g) {
    auto [slot, fresh] = rank_cache.emplace(g, 0);
    if (fresh) *slot = rank(g);
    return *slot;
  };
  auto rank_of = [&](uint64_t g) {
    const uint64_t* slot = rank_cache.find(g);
    NCC_ASSERT(slot != nullptr);
    return *slot;
  };

  // Per routing state: groups being served and the mask of remaining
  // recorded up-edges (bit e = reverse of down-edge e of the level below).
  struct Serving {
    Val val;
    uint64_t mask;
  };
  std::vector<FlatMap<Serving>> serving(topo.node_count());
  uint64_t edges_remaining = 0;
  ActiveSet active(topo.node_count());
  uint64_t progress = 0;

  // Per-call cache stats delta, as in route_down.
  const CombiningCache::Stats cache_before =
      cache ? cache->stats() : CombiningCache::Stats{};

  auto arrive = [&](uint32_t level, NodeId col, uint64_t group, const Val& v) {
    uint64_t idx = topo.index(level, col);
    group_rank(group);
    ++progress;
    if (flows)
      flows->record_hop(group, /*up=*/true, level, 0, topo.host(col),
                        net.rounds());
    if (level == 0) {
      // Admission point: every state the payload passes (leaves included)
      // caches it, so a later wave's setup request can terminate here.
      // Arrivals are applied sequentially at the merge, so admission and
      // eviction order is thread-count invariant.
      if (cache) cache->admit_payload(idx, group, v);
      result.at_col[col].push_back({group, v});
      return;
    }
    const uint64_t* mask = trees.children[idx].find(group);
    if (!mask || *mask == 0) {
      // Off-tree arrival: on a reliable network packets only follow recorded
      // tree edges, so this stays a hard invariant there; byzantine
      // corruption can rewrite a packet's group id in flight — then it is
      // network behaviour: count it and drop, don't abort.
      NCC_ASSERT_MSG(net.corruption_possible(),
                     "multicast packet strayed off its recorded tree");
      ++result.stats.misrouted;
      return;
    }
    if (!serving[idx].emplace(group, Serving{v, *mask}).second) {
      // Duplicate arrival for a group already being served at this node:
      // same story — only a corrupted group id can collide like this.
      NCC_ASSERT_MSG(net.corruption_possible(),
                     "duplicate multicast arrival on a reliable network");
      ++result.stats.misrouted;
      return;
    }
    if (cache) cache->admit_payload(idx, group, v);  // same admission point
    edges_remaining += std::popcount(*mask);
    active.add(idx);
  };

  // Slot order — deterministic and thread-invariant because the caller
  // populates `payloads` sequentially (see FlatMap::for_each).
  payloads.for_each([&](uint64_t group, const Val& val) {
    const NodeId* rcol = trees.root_col.find(group);
    if (!rcol) {
      // A reliable network always records a root (tree invariant); under
      // scenario fault injection a group can lose every membership packet,
      // in which case its multicast is undeliverable — count it, don't abort.
      ++result.stats.lost_groups;
      return;
    }
    arrive(F, *rcol, group, val);
  });

  // Inject the cached payloads at the cache roots route_down recorded: each
  // serves exactly the subtree whose setup requests terminated at that state
  // (the mask snapshotted-and-cleared at hit time), so no recorded edge is
  // served twice. Level-0 roots are leaf-local hits — delivered straight to
  // the column, zero routing messages.
  for (const MulticastTrees::CacheRoot& cr : trees.cache_roots) {
    uint32_t level = static_cast<uint32_t>(cr.idx / cols);
    NodeId col = static_cast<NodeId>(cr.idx % cols);
    group_rank(cr.group);
    ++progress;
    if (flows)
      flows->record_hop(cr.group, /*up=*/true, level, 0, topo.host(col),
                        net.rounds(), /*cache_hit=*/true);
    if (cache) cache->admit_payload(cr.idx, cr.group, cr.val);  // refresh
    if (level == 0) {
      result.at_col[col].push_back({cr.group, cr.val});
      continue;
    }
    if (cr.mask == 0) continue;  // nothing recorded below this state
    if (!serving[cr.idx].emplace(cr.group, Serving{cr.val, cr.mask}).second) {
      // Roots are deduplicated per (idx, group) at record time, so a
      // collision means a corrupted id — count it, don't abort (the same
      // contract as arrive()).
      NCC_ASSERT_MSG(net.corruption_possible(),
                     "duplicate cache-root injection on a reliable network");
      ++result.stats.misrouted;
      continue;
    }
    edges_remaining += std::popcount(cr.mask);
    active.add(cr.idx);
  }

  // Tokens flow F -> 0, one per (node, reversed down-edge); a node at level l
  // has down_degree(l-1) up-edges out and down_degree(l) token in-edges (from
  // level l+1). Final-level nodes are ready immediately. Same idempotent
  // bitmask bookkeeping as route_down.
  std::vector<uint64_t> tokens_recv(topo.node_count(), 0);
  std::vector<uint64_t> token_sent(topo.node_count(), 0);
  auto full_mask = [&](uint32_t level) -> uint64_t {
    return (uint64_t{1} << topo.down_degree(level)) - 1;
  };
  auto token_ready = [&](uint32_t level, uint64_t idx) {
    return level == F || tokens_recv[idx] == full_mask(level);
  };
  uint64_t tokens_pending = 0;
  for (uint32_t l = 1; l <= F; ++l)
    tokens_pending += static_cast<uint64_t>(topo.down_degree(l - 1)) * cols;
  for (NodeId c = 0; c < cols; ++c) active.add(topo.index(F, c));

  struct LocalMove {
    uint32_t level;  // destination level
    NodeId col;
    uint64_t group;
    Val val;
    bool is_token;
    uint32_t edge = 0;
  };
  std::vector<LocalMove> local;

  // Shard-parallel step loop; same staging/merge discipline as route_down.
  struct StepOut {
    std::vector<LocalMove> local;
    std::vector<uint64_t> readd;
    uint64_t moved = 0, freed = 0, tokens = 0;
  };
  std::vector<StepOut> outs(engine_shards(net));
  std::vector<std::vector<LocalMove>> arrivals(engine_shards(net));
  std::vector<uint64_t> items;

  bool first_round = true;
  while (edges_remaining > 0 || tokens_pending > 0) {
    if (!first_round && progress == 0) {
      result.stats.token_resends += resend_sent_tokens(
          token_sent, [&](uint64_t idx, uint32_t e) {
            uint32_t level = static_cast<uint32_t>(idx / cols);
            NodeId col = static_cast<NodeId>(idx % cols);
            NodeId ncol = topo.up_column(level, col, e);
            net.send(topo.host(col), topo.host(ncol), kTagUpToken | (level - 1), {e});
          });
    }
    first_round = false;
    progress = 0;

    items = active.take();
    engine_send_ranges(net, items.size(), [&](uint32_t s, uint64_t ib, uint64_t ie,
                                              MsgSink& sink) {
      StepOut& out = outs[s];  // drained and cleared by the merge below
      // Same hoisted per-edge scratch as route_down's step loop.
      std::array<EdgeBest, kMaxDegree> best;
      for (uint64_t ii = ib; ii < ie; ++ii) {
        uint64_t idx = items[ii];
        uint32_t level = static_cast<uint32_t>(idx / cols);
        NodeId col = static_cast<NodeId>(idx % cols);
        NCC_ASSERT(level >= 1);  // level-0 nodes never enqueue up-work
        const uint32_t deg = topo.down_degree(level - 1);
        auto& sv = serving[idx];
        uint64_t edge_used = 0, edge_wanted = 0;
        for (uint32_t e = 0; e < deg; ++e) best[e].found = false;
        sv.for_each([&](uint64_t g, const Serving& srv) {
          Prio p{rank_of(g), g};
          uint64_t mask = srv.mask;
          while (mask) {
            uint32_t e = static_cast<uint32_t>(std::countr_zero(mask));
            mask &= mask - 1;
            edge_wanted |= uint64_t{1} << e;
            if (!best[e].found || p < best[e].best) best[e] = {true, p, g};
          }
        });
        for (uint32_t e = 0; e < deg; ++e) {
          if (!best[e].found) continue;
          edge_used |= uint64_t{1} << e;
          Serving* sit = sv.find(best[e].group);
          Val v = sit->val;
          sit->mask &= ~(uint64_t{1} << e);
          if (sit->mask == 0) sv.erase(best[e].group);
          ++out.freed;
          ++out.moved;
          NodeId ncol = topo.up_column(level, col, e);
          if (e == 0) {
            out.local.push_back({level - 1, ncol, best[e].group, v, false});
          } else {
            sink.send(topo.host(col), topo.host(ncol), kTagUpPacket | (level - 1),
                      {best[e].group, v[0], v[1]});
          }
        }
        if (token_ready(level, idx)) {
          for (uint32_t e = 0; e < deg; ++e) {
            uint64_t bit = uint64_t{1} << e;
            if ((edge_used | edge_wanted | token_sent[idx]) & bit) continue;
            token_sent[idx] |= bit;
            ++out.tokens;
            NodeId ncol = topo.up_column(level, col, e);
            if (e == 0) {
              out.local.push_back({level - 1, ncol, 0, {}, true, 0});
            } else {
              sink.send(topo.host(col), topo.host(ncol), kTagUpToken | (level - 1),
                        {e});
            }
          }
        }
        if (!sv.empty() ||
            (token_ready(level, idx) && token_sent[idx] != full_mask(level - 1)))
          out.readd.push_back(idx);
      }
    });
    local.clear();
    for (StepOut& out : outs) {
      local.insert(local.end(), out.local.begin(), out.local.end());
      for (uint64_t idx : out.readd) active.add(idx);
      result.stats.packets_moved += out.moved;
      progress += out.moved + out.tokens;
      edges_remaining -= out.freed;
      tokens_pending -= out.tokens;
      out.local.clear();
      out.readd.clear();
      out.moved = out.freed = out.tokens = 0;
    }

    net.end_round();
    ++result.stats.rounds;

    auto arrive_token = [&](uint32_t level, NodeId col, uint32_t edge) {
      if (level == 0) return;  // level-0 tokens terminate here
      uint64_t idx = topo.index(level, col);
      uint64_t bit = uint64_t{1} << edge;
      if (!(tokens_recv[idx] & bit)) {
        tokens_recv[idx] |= bit;
        ++progress;
      }
      if (token_ready(level, idx) && token_sent[idx] != full_mask(level - 1))
        active.add(idx);
    };
    for (const LocalMove& mv : local) {
      if (mv.is_token) {
        arrive_token(mv.level, mv.col, mv.edge);
      } else {
        arrive(mv.level, mv.col, mv.group, mv.val);
      }
    }
    // Sharded arrival scan; same decode/merge discipline as route_down.
    engine_ranges(net, cols, [&](uint32_t s, uint64_t ub, uint64_t ue) {
      std::vector<LocalMove>& arr = arrivals[s];
      for (uint64_t u = ub; u < ue; ++u) {
        for (const Message& m : net.inbox(static_cast<NodeId>(u))) {
          if (tag_kind(m.tag) == kTagUpPacket) {
            arr.push_back({tag_level(m.tag), static_cast<NodeId>(u), m.word(0),
                           Val{m.word(1), m.word(2)}, false, 0});
          } else if (tag_kind(m.tag) == kTagUpToken) {
            // In-edge derived from framing, as in route_down; an up token
            // into level l crosses a generator of level l's down-edge set.
            uint32_t level = tag_level(m.tag);
            uint32_t e = topo.edge_from_delta(
                level, static_cast<NodeId>(u) ^ m.src);
            arr.push_back({level, static_cast<NodeId>(u), 0, {}, true, e});
          }
        }
      }
    });
    for (auto& arr : arrivals) {
      for (const LocalMove& mv : arr) {
        if (mv.is_token) {
          arrive_token(mv.level, mv.col, mv.edge);
        } else {
          arrive(mv.level, mv.col, mv.group, mv.val);
        }
      }
      arr.clear();
    }
  }

  if (cache) {
    const CombiningCache::Stats& cs = cache->stats();
    result.stats.cache_hits = cs.hits - cache_before.hits;
    result.stats.cache_misses = cs.misses - cache_before.misses;
    result.stats.cache_evictions = cs.evictions - cache_before.evictions;
  }
  return result;
}

}  // namespace ncc

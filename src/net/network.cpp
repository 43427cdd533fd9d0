#include "net/network.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/flat_map.hpp"
#include "engine/engine.hpp"

namespace ncc {

Network::Network(NetConfig config)
    : config_(config),
      cap_(config.capacity_factor * cap_log(config.n)),
      drop_seed_(mix64(config.seed ^ 0x6e65747730726bULL)) {
  NCC_ASSERT_MSG(config_.n >= 2, "the NCC model needs at least two nodes");
  send_count_.assign(config_.n, 0);
  inbox_off_.assign(config_.n, 0);
  inbox_cnt_.assign(config_.n, 0);
}

MsgArena Network::acquire_arena() {
  if (pool_.empty()) return MsgArena{};
  MsgArena a = std::move(pool_.back());
  pool_.pop_back();
  return a;
}

void Network::stage_run(MsgArena&& run) {
  // Accounting-only scan of the 20-byte headers on the caller thread — the
  // per-message bookkeeping of a send() loop without copying any message.
  const size_t count = run.size();
  const MsgHdr* h = run.hdrs();
  for (size_t i = 0; i < count; ++i) {
    NCC_ASSERT(h[i].src < config_.n && h[i].dst < config_.n);
    NCC_ASSERT_MSG(h[i].src != h[i].dst, "nodes do not message themselves");
    if (++send_count_[h[i].src] > cap_) {
      if (config_.strict_send) {
        NCC_ASSERT_MSG(false, "send capacity exceeded (algorithm bug)");
      }
      ++stats_.send_violations;
    }
  }
  stats_.messages_sent += count;
  // Growth the stager did not drain itself (engine shards drain into their
  // own memory profile first) lands in the network's counters.
  mem_.allocs += run.take_allocs();
  if (count == 0) {
    pool_.push_back(std::move(run));
    return;
  }
  runs_.push_back(std::move(run));
  tail_open_ = false;
}

void Network::send(const Message& msg) {
  NCC_ASSERT(msg.src < config_.n && msg.dst < config_.n);
  NCC_ASSERT_MSG(msg.src != msg.dst, "nodes do not message themselves");
  ++send_count_[msg.src];
  if (send_count_[msg.src] > cap_) {
    if (config_.strict_send) {
      NCC_ASSERT_MSG(false, "send capacity exceeded (algorithm bug)");
    }
    ++stats_.send_violations;
  }
  ++stats_.messages_sent;
  if (!tail_open_) {
    runs_.push_back(acquire_arena());
    tail_open_ = true;
  }
  runs_.back().push(msg);
}

void Network::end_round() {
  const NodeId n = config_.n;
  const uint64_t round = stats_.rounds;
  const uint32_t R = static_cast<uint32_t>(runs_.size());

  uint64_t total = 0;
  for (const MsgArena& r : runs_) total += r.size();

  // Live-message accounting at the pre-fault snapshot: what was sent this
  // round, a thread-count-invariant quantity (see NetMemStats). Measured in
  // logical (AoS) message bytes so the series is layout-independent.
  if (total > mem_.live_msgs_peak) {
    mem_.live_msgs_peak = total;
    mem_.live_bytes_peak = total * sizeof(Message);
  }

  // Fault injection runs before delivery is sharded: the run-concatenation
  // order is thread-count independent, so decisions keyed on (round, index)
  // are too. Dropped headers are compacted out of their run in place; word
  // spans stay put, so surviving offsets remain valid.
  if (faults_.begin_round) faults_.begin_round(round);
  if ((faults_.drop || faults_.corrupt) && total != 0) {
    uint64_t idx = 0;
    for (MsgArena& r : runs_) {
      size_t kept = 0;
      const size_t sz = r.size();
      for (size_t i = 0; i < sz; ++i, ++idx) {
        Message m = r.at(i);
        if (faults_.drop && faults_.drop(m, round, idx)) {
          ++stats_.fault_drops;
          continue;
        }
        if (faults_.corrupt && faults_.corrupt(m, round, idx)) {
          ++stats_.corrupted;
          r.store(i, m);
        }
        if (kept != i) r.move_hdr(i, kept);
        ++kept;
      }
      r.truncate(kept);
    }
    total = 0;
    for (const MsgArena& r : runs_) total += r.size();
  }
  uint32_t rcap = cap_;
  if (faults_.recv_cap) rcap = std::max<uint32_t>(1, faults_.recv_cap(round, cap_));

  uint32_t S = engine_ ? engine_->delivery_shards(total) : 1;
  ShardPlan nodes = ShardPlan::make(n, S);
  S = nodes.shards;
  ShardPlan chunks = ShardPlan::make(total, S);

  if (recv_seen_.size() != n) recv_seen_.assign(n, 0);
  if (wsum_.size() != n) wsum_.assign(n, 0);
  if (word_off_.size() != n) word_off_.assign(n, 0);

  // Delivery runs on the attached engine whenever there is one — including
  // single-shard rounds, where the pool runs the one task inline on the
  // caller thread. That keeps deliver_ns attribution uniform across thread
  // counts (the engine times every delivery task).
  auto par = [&](uint32_t tasks, const std::function<void(uint32_t)>& fn) {
    if (engine_) {
      engine_->run_delivery(tasks, fn);
    } else {
      for (uint32_t t = 0; t < tasks; ++t) fn(t);
    }
  };

  // Global send-order offsets of the runs: pending index i lives in run r at
  // local slot i - run_start[r]. Scatter rows and scans walk indices in
  // ascending order, so a running run pointer recovers (run, slot) in O(1)
  // amortized.
  std::vector<uint64_t> run_start(R + 1, 0);
  for (uint32_t r = 0; r < R; ++r) run_start[r + 1] = run_start[r] + runs_[r].size();

  // Counting-sort index pass (multi-shard only): chunk p of the pending
  // order records the global indices headed for destination shard s in
  // scatter_[p*S + s]. Chunks are contiguous and scanned in order, so per
  // destination the concatenation over p restores the global arrival order
  // for any S — only 4-byte indices move, never messages.
  if (S > 1) {
    NCC_ASSERT_MSG(total <= UINT32_MAX,
                   "per-round pending exceeds 32-bit scatter indices");
    scatter_.resize(static_cast<size_t>(chunks.shards) * S);
    std::vector<uint64_t> scatter_allocs(chunks.shards, 0);
    par(chunks.shards, [&](uint32_t p) {
      for (uint32_t s = 0; s < S; ++s) scatter_[static_cast<size_t>(p) * S + s].clear();
      uint32_t r = 0;
      for (uint64_t i = chunks.begin(p); i < chunks.end(p); ++i) {
        while (i >= run_start[r + 1]) ++r;
        const MsgHdr& h = runs_[r].hdrs()[i - run_start[r]];
        auto& row = scatter_[static_cast<size_t>(p) * S + nodes.shard_of(h.dst)];
        if (row.size() == row.capacity()) ++scatter_allocs[p];
        row.push_back(static_cast<uint32_t>(i));
      }
    });
    for (uint64_t a : scatter_allocs) mem_.allocs += a;
  }

  // Walk destination shard s's messages in arrival order; fn(hdr, words)
  // gets the header plus the owning run's word store.
  auto for_dst_shard = [&](uint32_t s, auto&& fn) {
    if (S == 1) {
      for (uint32_t r = 0; r < R; ++r) {
        const MsgHdr* h = runs_[r].hdrs();
        const uint64_t* w = runs_[r].words();
        const size_t sz = runs_[r].size();
        for (size_t i = 0; i < sz; ++i) fn(h[i], w);
      }
    } else {
      for (uint32_t p = 0; p < chunks.shards; ++p) {
        uint32_t r = 0;
        for (uint32_t gi : scatter_[static_cast<size_t>(p) * S + s]) {
          while (gi >= run_start[r + 1]) ++r;
          fn(runs_[r].hdrs()[gi - run_start[r]], runs_[r].words());
        }
      }
    }
  };

  struct ShardAcc {
    uint32_t max_send = 0;
    uint32_t max_recv = 0;
    uint64_t dropped = 0;
    uint64_t hdr_total = 0;   // headers delivered into this shard's inboxes
    uint64_t word_total = 0;  // this shard's span of the inbox word store
  };
  std::vector<ShardAcc> acc(S);

  // Count pass: per destination, the addressed (pre-drop) message count and
  // payload-word budget. Overloaded destinations (count > rcap) get fixed
  // rcap * kMaxMessageWords word slots instead of exact sums, so reservoir
  // replacement can overwrite any slot with any payload width.
  par(S, [&](uint32_t s) {
    ShardAcc& a = acc[s];
    const NodeId lo = static_cast<NodeId>(nodes.begin(s));
    const NodeId hi = static_cast<NodeId>(nodes.end(s));
    for (NodeId u = lo; u < hi; ++u) {
      recv_seen_[u] = 0;
      wsum_[u] = 0;
    }
    for_dst_shard(s, [&](const MsgHdr& h, const uint64_t*) {
      ++recv_seen_[h.dst];
      wsum_[h.dst] += h.nwords;
    });
    for (NodeId u = lo; u < hi; ++u) {
      a.max_send = std::max(a.max_send, send_count_[u]);
      send_count_[u] = 0;
      const uint32_t cnt = recv_seen_[u];
      a.max_recv = std::max(a.max_recv, cnt);
      if (cnt > rcap) {
        a.dropped += cnt - rcap;
        wsum_[u] = rcap * kMaxMessageWords;
        a.hdr_total += rcap;
      } else {
        a.hdr_total += cnt;
      }
      a.word_total += wsum_[u];
    }
  });

  // Shard prefix over the flat inbox arena (sequential, S terms); the arena
  // only ever grows, so steady-state rounds re-fill warm capacity.
  uint64_t hdr_total = 0, word_total = 0;
  std::vector<uint64_t> hdr_base(S), word_base(S);
  for (uint32_t s = 0; s < S; ++s) {
    hdr_base[s] = hdr_total;
    word_base[s] = word_total;
    hdr_total += acc[s].hdr_total;
    word_total += acc[s].word_total;
  }
  NCC_ASSERT_MSG(word_total <= UINT32_MAX,
                 "per-round inbox word store exceeds 32-bit offsets");
  if (hdr_total > inbox_hdr_.size()) {
    if (hdr_total > inbox_hdr_.capacity()) ++mem_.allocs;
    inbox_hdr_.resize(hdr_total);
  }
  if (word_total > inbox_words_.size()) {
    if (word_total > inbox_words_.capacity()) ++mem_.allocs;
    inbox_words_.resize(word_total);
  }

  // Placement pass: per destination shard, lay out each node's inbox span,
  // then stream the shard's messages into their slots. The drop RNG is
  // forked per (round, destination), so the surviving subset of an
  // overloaded inbox does not depend on the shard layout or on the traffic
  // at other destinations.
  par(S, [&](uint32_t s) {
    const NodeId lo = static_cast<NodeId>(nodes.begin(s));
    const NodeId hi = static_cast<NodeId>(nodes.end(s));
    uint64_t hcur = hdr_base[s];
    uint64_t wcur = word_base[s];
    for (NodeId u = lo; u < hi; ++u) {
      inbox_off_[u] = hcur;
      inbox_cnt_[u] = std::min(recv_seen_[u], rcap);
      word_off_[u] = wcur;
      hcur += inbox_cnt_[u];
      wcur += wsum_[u];
      wsum_[u] = 0;  // becomes the arrival counter below
    }
    MsgHdr* hout = inbox_hdr_.data();
    uint64_t* wout = inbox_words_.data();
    FlatMap<Rng> drop_rng;  // lookup/emplace only, never iterated
    for_dst_shard(s, [&](const MsgHdr& h, const uint64_t* wbase) {
      const NodeId dst = h.dst;
      const uint32_t k = wsum_[dst]++;
      const bool overloaded = recv_seen_[dst] > rcap;
      uint64_t slot, woff;
      if (k < rcap) {
        slot = inbox_off_[dst] + k;
        if (overloaded) {
          woff = word_off_[dst] + uint64_t{k} * kMaxMessageWords;
        } else {
          woff = word_off_[dst];
          word_off_[dst] += h.nwords;
        }
      } else {
        // Reservoir over arrival order: replace a random survivor with
        // probability rcap/(k+1).
        Rng* r = drop_rng.find(dst);
        if (!r) r = drop_rng.emplace(dst, Rng(mix64(mix64(drop_seed_ ^ round) ^ dst))).first;
        uint64_t j = r->next_below(k + 1);
        if (j >= rcap) return;
        slot = inbox_off_[dst] + j;
        woff = word_off_[dst] + j * uint64_t{kMaxMessageWords};
      }
      MsgHdr out = h;
      out.off = static_cast<uint32_t>(woff);
      hout[slot] = out;
      for (uint8_t w = 0; w < h.nwords; ++w) wout[woff + w] = wbase[h.off + w];
    });
  });

  uint64_t container_bytes = 0;
  for (const MsgArena& r : runs_) container_bytes += r.capacity_bytes();
  for (const MsgArena& a : pool_) container_bytes += a.capacity_bytes();
  for (const auto& row : scatter_) container_bytes += row.capacity() * sizeof(uint32_t);
  container_bytes += inbox_hdr_.capacity() * sizeof(MsgHdr);
  container_bytes += inbox_words_.capacity() * sizeof(uint64_t);
  container_bytes += (send_count_.capacity() + recv_seen_.capacity() +
                      wsum_.capacity() + inbox_cnt_.capacity()) *
                     sizeof(uint32_t);
  container_bytes += (inbox_off_.capacity() + word_off_.capacity()) * sizeof(uint64_t);
  for (const ShardAcc& a : acc) {
    stats_.max_send_load = std::max(stats_.max_send_load, a.max_send);
    stats_.max_recv_load = std::max(stats_.max_recv_load, a.max_recv);
    stats_.messages_dropped += a.dropped;
  }
  mem_.container_bytes_peak = std::max(mem_.container_bytes_peak, container_bytes);

  if (!delivery_hooks_.empty()) {
    // Every subscriber sees the identical stream: (destination, arrival)
    // order, and within one message the subscribers run in subscription
    // order. The delivered inboxes are thread-count independent, so the
    // streams (and anything subscribers derive from them) are too.
    for (NodeId u = 0; u < n; ++u) {
      const uint64_t off = inbox_off_[u];
      for (uint32_t i = 0; i < inbox_cnt_[u]; ++i) {
        const MsgHdr& h = inbox_hdr_[off + i];
        Message m;
        m.src = h.src;
        m.dst = h.dst;
        m.tag = h.tag;
        m.nwords = h.nwords;
        for (uint8_t w = 0; w < h.nwords; ++w) m.words[w] = inbox_words_[h.off + w];
        for (auto& sub : delivery_hooks_) sub.fn(m, round);
      }
    }
  }

  // Recycle the runs (capacity survives in the pool). Reverse order, so a
  // stager acquiring arenas in shard order next round gets each shard's own
  // warm arena back.
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
    mem_.allocs += it->take_allocs();
    it->clear();
    pool_.push_back(std::move(*it));
  }
  runs_.clear();
  tail_open_ = false;
  ++stats_.rounds;
  for (auto& sub : round_hooks_) sub.fn(stats_.rounds - 1, stats_);
}

Network::HookId Network::add_delivery_hook(DeliveryHook hook) {
  HookId id = next_hook_id_++;
  delivery_hooks_.push_back({id, std::move(hook)});
  return id;
}

void Network::remove_delivery_hook(HookId id) {
  std::erase_if(delivery_hooks_, [id](const auto& s) { return s.id == id; });
}

Network::HookId Network::add_round_hook(RoundHook hook) {
  HookId id = next_hook_id_++;
  round_hooks_.push_back({id, std::move(hook)});
  return id;
}

void Network::remove_round_hook(HookId id) {
  std::erase_if(round_hooks_, [id](const auto& s) { return s.id == id; });
}

InboxView Network::inbox(NodeId u) const {
  NCC_ASSERT(u < config_.n);
  const uint32_t cnt = inbox_cnt_[u];
  if (cnt == 0) return InboxView{};
  return InboxView(inbox_hdr_.data() + inbox_off_[u], inbox_words_.data(), cnt);
}

void Network::charge_rounds(uint64_t k) { stats_.charged_rounds += k; }

void Network::reset_stats() {
  stats_ = NetStats{};
  mem_ = NetMemStats{};
  for (MsgArena& r : runs_) {
    r.clear();
    (void)r.take_allocs();
    pool_.push_back(std::move(r));
  }
  runs_.clear();
  tail_open_ = false;
  std::fill(send_count_.begin(), send_count_.end(), 0);
  std::fill(recv_seen_.begin(), recv_seen_.end(), 0);
  std::fill(wsum_.begin(), wsum_.end(), 0);
  std::fill(word_off_.begin(), word_off_.end(), 0);
  std::fill(inbox_off_.begin(), inbox_off_.end(), 0);
  std::fill(inbox_cnt_.begin(), inbox_cnt_.end(), 0);
  inbox_hdr_.clear();
  inbox_words_.clear();
  for (auto& row : scatter_) row.clear();
}

}  // namespace ncc

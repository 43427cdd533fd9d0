// Observability subsystem tests: Tracer span nesting / round intervals /
// NetStats deltas, hook-subscriber coexistence (the multi-subscriber Network
// refactor), per-host congestion accounting incl. the AQ_d aggregation-tree
// root-host bound from the ROADMAP residual, Chrome trace-event
// well-formedness via the obs JSON checker, and the determinism contract:
// span streams and trace bytes identical at threads=1 vs threads=8 under
// every fault model, with wall-clock strictly segregated behind the timing
// flag.
#include <gtest/gtest.h>

#include <map>

#include "engine/engine.hpp"
#include "net/trace.hpp"
#include "obs/congestion.hpp"
#include "obs/flow.hpp"
#include "obs/json_check.hpp"
#include "obs/memory.hpp"
#include "obs/trace_export.hpp"
#include "obs/tracer.hpp"
#include "primitives/aggregate_broadcast.hpp"
#include "primitives/context.hpp"
#include "scenario/metrics.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

using namespace ncc;

namespace {

Network make_net(NodeId n, uint32_t capacity_factor = 8) {
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = 7;
  cfg.capacity_factor = capacity_factor;
  return Network(cfg);
}

/// One message per idle round so spans have something to count.
void tick(Network& net, NodeId src, NodeId dst, uint64_t rounds) {
  for (uint64_t r = 0; r < rounds; ++r) {
    net.send(src, dst, 0x1, {r});
    net.end_round();
  }
}

scenario::ScenarioSpec base_spec(const std::string& algorithm, NodeId n) {
  scenario::ScenarioSpec spec;
  spec.name = "obs_test";
  spec.family = scenario::GraphFamily::kGnm;
  spec.provided.graph = true;
  spec.provided.algorithm = true;
  spec.provided.n = true;
  spec.n = n;
  spec.m = 4ull * n;
  spec.connect = true;
  spec.algorithm = algorithm;
  spec.seed = 11;
  return spec;
}

}  // namespace

TEST(Tracer, SpanNestingAndRoundIntervals) {
  Network net = make_net(8);
  obs::Tracer tracer(net);

  uint64_t outer = tracer.begin("outer");
  tick(net, 0, 1, 2);
  uint64_t inner = tracer.begin("inner");
  tick(net, 0, 1, 3);
  tracer.end(inner);
  tracer.end(outer);
  uint64_t after = tracer.begin("after");
  tracer.end(after);

  ASSERT_EQ(tracer.spans().size(), 3u);
  const obs::SpanRecord& o = tracer.spans()[0];
  const obs::SpanRecord& i = tracer.spans()[1];
  const obs::SpanRecord& a = tracer.spans()[2];
  EXPECT_EQ(o.name, "outer");
  EXPECT_EQ(o.depth, 0u);
  EXPECT_EQ(o.parent, -1);
  EXPECT_EQ(o.begin_round, 0u);
  EXPECT_EQ(o.end_round, 5u);
  EXPECT_EQ(o.messages, 5u);
  EXPECT_EQ(i.name, "inner");
  EXPECT_EQ(i.depth, 1u);
  EXPECT_EQ(i.parent, 0);
  EXPECT_EQ(i.begin_round, 2u);
  EXPECT_EQ(i.end_round, 5u);
  EXPECT_EQ(i.messages, 3u);
  EXPECT_EQ(a.name, "after");
  EXPECT_EQ(a.begin_round, 5u);
  EXPECT_EQ(a.end_round, 5u);
  EXPECT_EQ(a.messages, 0u);
  EXPECT_FALSE(tracer.truncated());
  EXPECT_EQ(tracer.open_depth(), 0u);
}

TEST(Tracer, SpanGuardIsNoopWithoutTracer) {
  Network net = make_net(4);
  ASSERT_EQ(net.tracer(), nullptr);
  {
    obs::Span span(net, "nobody-listening");
    tick(net, 0, 1, 1);
  }
  // Attach one afterwards: earlier guarded scope left no trace.
  obs::Tracer tracer(net);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Slots, TracerAndSamplerFillAndClearTheirSlots) {
  Network net = make_net(4);
  EXPECT_EQ(net.tracer(), nullptr);
  EXPECT_EQ(net.flow_sampler(), nullptr);
  {
    obs::Tracer tracer(net);
    obs::FlowSampler sampler(net, /*seed=*/1);
    EXPECT_EQ(net.tracer(), &tracer);
    EXPECT_EQ(net.flow_sampler(), &sampler);
  }
  EXPECT_EQ(net.tracer(), nullptr);
  EXPECT_EQ(net.flow_sampler(), nullptr);
  // A freed slot takes a new attachment.
  obs::Tracer again(net);
  EXPECT_EQ(net.tracer(), &again);
}

TEST(SlotsDeathTest, SecondTracerOrSamplerOnOneNetworkDies) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Network net = make_net(4);
  obs::Tracer tracer(net);
  obs::FlowSampler sampler(net, /*seed=*/1);
  EXPECT_DEATH({ obs::Tracer second(net); }, "already has a tracer attached");
  EXPECT_DEATH({ obs::FlowSampler second(net, /*seed=*/2); },
               "already has a flow sampler attached");
}

TEST(Tracer, CapsSpanCountAndFlagsTruncation) {
  Network net = make_net(4);
  obs::Tracer tracer(net, /*max_spans=*/4);
  for (int k = 0; k < 10; ++k) {
    obs::Span span(net, "s");
    net.end_round();
  }
  EXPECT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.begun(), 10u);
  EXPECT_TRUE(tracer.truncated());
}

TEST(Tracer, TopLevelSpanDeltasSumToNetStats) {
  // Disjoint top-level spans covering the whole run: their message deltas
  // must add up to the network's total exactly.
  Network net = make_net(8);
  obs::Tracer tracer(net);
  for (int phase = 0; phase < 4; ++phase) {
    obs::Span span(net, "phase");
    tick(net, 0, 1, 2 + phase);
  }
  uint64_t sum = 0;
  for (const obs::SpanRecord& s : tracer.spans()) sum += s.messages;
  EXPECT_EQ(sum, net.stats().messages_sent);
}

TEST(NetworkHooks, SubscribersCoexistAndSeeTheSameStream) {
  // The regression the multi-subscriber refactor guards: RoundTrace,
  // MetricsCollector, CongestionMonitor, and a bare hook all observe the
  // same delivery stream — previously each set_delivery_hook call silently
  // clobbered the last subscriber.
  Network net = make_net(8);
  RoundTrace trace(net);
  scenario::MetricsCollector metrics(net);
  obs::CongestionMonitor congestion(net);
  uint64_t bare_count = 0;
  Network::HookId id = net.add_delivery_hook(
      [&](const Message&, uint64_t) { ++bare_count; });

  for (int r = 0; r < 3; ++r) {
    net.send(1, 0, 0x1, {1});
    net.send(2, 0, 0x1, {2});
    net.end_round();
  }

  EXPECT_EQ(trace.total_messages(), 6u);      // RoundTrace saw every delivery
  EXPECT_EQ(bare_count, 6u);                  // so did the bare subscriber
  EXPECT_EQ(congestion.node_messages(0), 6u); // and the congestion monitor
  EXPECT_EQ(congestion.peak_in_degree(), 2u);
  EXPECT_EQ(metrics.series().rounds, 3u);     // round hooks coexist too

  // Removal only detaches the one subscriber.
  net.remove_delivery_hook(id);
  net.send(1, 0, 0x1, {3});
  net.end_round();
  EXPECT_EQ(bare_count, 6u);
  EXPECT_EQ(trace.total_messages(), 7u);
}

TEST(Congestion, TracksPeaksHistogramAndHostSplit) {
  Network net = make_net(12);  // columns = 8, nodes 8..11 attach-only
  obs::CongestionMonitor mon(net);
  // Round 0: node 3 receives 4 messages, node 9 receives 1.
  for (NodeId s = 4; s < 8; ++s) net.send(s, 3, 0x1, {s});
  net.send(0, 9, 0x1, {0});
  net.end_round();
  // Round 1: nothing.
  net.end_round();

  EXPECT_EQ(mon.columns(), 8u);
  EXPECT_EQ(mon.peak_in_degree(), 4u);
  EXPECT_EQ(mon.peak_node(), 3u);
  EXPECT_EQ(mon.peak_round(), 0u);
  EXPECT_EQ(mon.host_messages(), 4u);
  EXPECT_EQ(mon.attach_messages(), 1u);
  EXPECT_EQ(mon.max_round_in_degree(3), 4u);
  // Histogram: one (node, round) pair at in-degree 4 (bucket 2), one at 1.
  EXPECT_EQ(mon.degree_histogram()[0], 1u);
  EXPECT_EQ(mon.degree_histogram()[2], 1u);
  auto top = mon.hottest(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 3u);
  EXPECT_EQ(top[0].second, 4u);
  ASSERT_EQ(mon.max_in_degree_series().size(), 2u);
  EXPECT_EQ(mon.max_in_degree_series()[0], 4u);
  EXPECT_EQ(mon.max_in_degree_series()[1], 0u);
}

TEST(Congestion, AugmentedCubeRootHostBoundAcrossD) {
  // The ROADMAP residual, measured: AQ_d's aggregation tree delivers at most
  // 2d-1 messages per round to the root's host (node 0). At capacity_factor
  // 2 the receive budget is 2d >= 2d-1, so a barrier loses nothing.
  for (uint32_t d : {3u, 4u, 5u, 6u}) {
    NodeId n = NodeId{1} << d;
    Network net = make_net(n, /*capacity_factor=*/2);
    Shared shared(n, 5, OverlayKind::kAugmentedCube);
    obs::CongestionMonitor mon(net);
    sync_barrier(shared.topo(), net);
    EXPECT_LE(mon.max_round_in_degree(0), 2 * d - 1)
        << "AQ_" << d << " root-host in-degree exceeds the 2d-1 bound";
    EXPECT_EQ(net.stats().messages_dropped, 0u)
        << "AQ_" << d << " barrier dropped counts at capacity_factor 2";
  }
}

TEST(Congestion, AugmentedCubeCapacityOneDropsBarrierCounts) {
  // The documented floor: at capacity_factor 1 the cap is d+1 < 2d-1 for
  // d >= 3, so the root's host must shed deliveries — which is why
  // validate_spec rejects capacity-1 augmented_cube specs.
  const uint32_t d = 6;
  NodeId n = NodeId{1} << d;
  NetConfig cfg;
  cfg.n = n;
  cfg.seed = 7;
  cfg.capacity_factor = 1;
  cfg.strict_send = false;  // the send budget overflows too; observe, don't abort
  Network net(cfg);
  Shared shared(n, 5, OverlayKind::kAugmentedCube);
  obs::CongestionMonitor mon(net);
  sync_barrier(shared.topo(), net);
  EXPECT_GT(net.stats().messages_dropped, 0u);
  // Pre-drop demand exceeded the cap; the monitor (which observes the
  // delivery stream) sees the clamped view.
  EXPECT_GT(net.stats().max_recv_load, net.cap());
  EXPECT_LE(mon.max_round_in_degree(0), net.cap());
}

TEST(TraceExport, ChromeTraceIsWellFormedAndMonotonic) {
  auto spec = base_spec("bfs", 64);
  scenario::RunOptions opts;
  opts.timing = false;
  opts.collect_trace = true;
  scenario::ScenarioOutcome out = scenario::run_scenario(spec, opts);
  ASSERT_TRUE(out.ran);
  ASSERT_FALSE(out.trace.spans.empty());

  obs::JsonWriter w;
  obs::write_chrome_trace(w, {out.trace}, /*include_timing=*/false);

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(w.str(), &doc, &error)) << error;
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  uint64_t spans = 0;
  std::map<std::pair<double, double>, double> last_ts;
  for (const obs::JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const obs::JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string != "X") continue;
    const obs::JsonValue* ts = e.find("ts");
    const obs::JsonValue* dur = e.find("dur");
    ASSERT_TRUE(ts && ts->is_number());
    ASSERT_TRUE(dur && dur->is_number() && dur->number >= 0);
    auto key = std::make_pair(e.find("pid")->number, e.find("tid")->number);
    auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(ts->number, it->second) << "non-monotonic track timestamps";
    }
    last_ts[key] = ts->number;
    ++spans;
  }
  EXPECT_GT(spans, 0u);
}

TEST(TraceExport, TimingTracksAreGated) {
  auto spec = base_spec("bfs", 64);
  spec.threads = 2;  // engine attached -> shard timing exists
  scenario::RunOptions opts;
  opts.timing = false;
  opts.collect_trace = true;
  scenario::ScenarioOutcome out = scenario::run_scenario(spec, opts);
  ASSERT_TRUE(out.ran);
  ASSERT_FALSE(out.trace.shard_timing.empty());

  obs::JsonWriter off;
  obs::write_chrome_trace(off, {out.trace}, /*include_timing=*/false);
  EXPECT_EQ(off.str().find("shard "), std::string::npos);

  // Wall-clock present only when asked for (stage counters are nonzero after
  // a real run, so at least one shard track appears).
  uint64_t loops = 0;
  for (const EngineShardTiming& tm : out.trace.shard_timing) loops += tm.loops;
  EXPECT_GT(loops, 0u);
}

TEST(TraceExport, SpanStreamIdenticalAcrossThreadsUnderAllFaultModels) {
  // The tentpole determinism claim: the span stream and congestion series
  // (and hence the deterministic JSON and trace bytes) are identical at
  // threads=1 vs threads=8 under every fault model.
  struct Case {
    const char* label;
    void (*mutate)(scenario::ScenarioSpec&);
  };
  const Case cases[] = {
      {"clean", [](scenario::ScenarioSpec&) {}},
      {"crash",
       [](scenario::ScenarioSpec& s) {
         s.faults.crash_rounds = {8};
         s.faults.crash_count = 2;
         s.round_limit = 40000;
       }},
      {"drop",
       [](scenario::ScenarioSpec& s) {
         s.faults.drop_rate = 0.01;
         s.round_limit = 40000;
       }},
      {"byzantine",
       [](scenario::ScenarioSpec& s) {
         s.faults.byzantine_rate = 0.01;
         s.round_limit = 40000;
       }},
      {"partition",
       [](scenario::ScenarioSpec& s) {
         s.faults.partition_windows = {{30, 60}};
         s.round_limit = 40000;
       }},
  };
  for (const Case& c : cases) {
    auto spec = base_spec("bfs", 64);
    c.mutate(spec);
    spec.expect = "any";
    scenario::RunOptions t1, t8;
    t1.timing = t8.timing = false;
    t1.collect_trace = t8.collect_trace = true;
    t1.threads_override = 1;
    t8.threads_override = 8;
    auto o1 = scenario::run_scenario(spec, t1);
    auto o8 = scenario::run_scenario(spec, t8);
    ASSERT_TRUE(o1.ran && o8.ran) << c.label;
    EXPECT_EQ(o1.json, o8.json) << c.label;

    ASSERT_EQ(o1.trace.spans.size(), o8.trace.spans.size()) << c.label;
    obs::JsonWriter w1, w8;
    obs::write_chrome_trace(w1, {o1.trace}, false);
    obs::write_chrome_trace(w8, {o8.trace}, false);
    EXPECT_EQ(w1.str(), w8.str()) << c.label;
  }
}

TEST(WallClockSegregation, TimingFieldsOnlyBehindTheFlag) {
  // Audit, as a test: with timing off, no wall-clock field reaches the
  // deterministic JSON; with timing on, only the trailing "timing" section
  // differs.
  auto spec = base_spec("mis", 64);
  scenario::RunOptions off, on;
  off.timing = false;
  on.timing = true;
  auto quiet = scenario::run_scenario(spec, off);
  auto timed = scenario::run_scenario(spec, on);
  EXPECT_EQ(quiet.json.find("wall_ms"), std::string::npos);
  EXPECT_EQ(quiet.json.find("\"timing\""), std::string::npos);
  EXPECT_NE(timed.json.find("\"timing\""), std::string::npos);
  // The timed JSON is the quiet JSON plus the timing section: stripping
  // everything from the timing key onwards must reproduce a prefix of quiet.
  size_t cut = timed.json.find(", \"timing\"");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_EQ(timed.json.substr(0, cut), quiet.json.substr(0, cut));
}

TEST(JsonCheck, ParsesGoodAndRejectsBadDocuments) {
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::json_parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true, "e": null})", &v,
      &err))
      << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("a")->array[2].number, -300.0);
  EXPECT_EQ(v.find("b")->find("c")->string, "x\ny");
  EXPECT_TRUE(v.find("d")->boolean);

  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1,}", "tru", "\"unterminated",
        "{\"a\":1} trailing", "[01x]"}) {
    EXPECT_FALSE(obs::json_parse(bad, &v, &err)) << "accepted: " << bad;
  }
}

TEST(Memory, MonitorTracksLiveBytesAndContainerFootprint) {
  Network net = make_net(8);
  obs::MemoryMonitor mon(net);
  // Round 0: 3 messages in flight; round 1: 1; round 2: none.
  for (NodeId s = 1; s < 4; ++s) net.send(s, 0, 0x1, {s});
  net.end_round();
  net.send(1, 0, 0x1, {9});
  net.end_round();
  net.end_round();

  EXPECT_EQ(mon.peak_live_bytes(), 3 * sizeof(Message));
  ASSERT_EQ(mon.live_bytes_series().size(), 3u);
  EXPECT_EQ(mon.live_bytes_series()[0], 3 * sizeof(Message));
  EXPECT_EQ(mon.live_bytes_series()[1], 1 * sizeof(Message));
  EXPECT_EQ(mon.live_bytes_series()[2], 0u);
  EXPECT_FALSE(mon.series_truncated());

  const NetMemStats& nm = net.mem_stats();
  EXPECT_EQ(nm.live_msgs_peak, 3u);
  EXPECT_EQ(nm.live_bytes_peak, 3 * sizeof(Message));
  EXPECT_GT(nm.allocs, 0u);  // pending_/inbox growth from empty
  EXPECT_GT(nm.container_bytes_peak, 0u);
  EXPECT_GE(mon.total_allocs(), nm.allocs);
  EXPECT_GE(mon.peak_container_bytes(), nm.container_bytes_peak);
}

TEST(Memory, EngineStagedBufferProfileCountsAndResets) {
  Network net = make_net(16);
  Engine eng(net, EngineConfig{2, /*loop_cutoff=*/1, /*delivery_cutoff=*/1});
  engine_send_loop(net, 16, [](uint64_t i, MsgSink& out) {
    out.send(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % 16), 0x1,
             {i});
  });
  net.end_round();
  uint64_t staged_peak = 0, allocs = 0;
  for (const EngineShardMemory& m : eng.shard_memory()) {
    staged_peak += m.staged_msgs_peak;
    allocs += m.allocs;
    // The staged arena is SoA: capacity covers at least the headers plus one
    // payload word per staged message.
    EXPECT_GE(m.staged_bytes_peak,
              m.staged_msgs_peak * (sizeof(MsgHdr) + sizeof(uint64_t)));
  }
  EXPECT_EQ(staged_peak, 16u);  // every staged message counted exactly once
  EXPECT_GT(allocs, 0u);        // buffers grew from empty
  eng.reset_timing();
  for (const EngineShardMemory& m : eng.shard_memory()) {
    EXPECT_EQ(m.staged_msgs_peak, 0u);
    EXPECT_EQ(m.staged_bytes_peak, 0u);
    EXPECT_EQ(m.allocs, 0u);
  }
}

TEST(Memory, SectionOnlyBehindTheFlag) {
  // The memory section is segregated exactly like timing: absent by default,
  // and when enabled it only appends trailing bytes — the deterministic
  // prefix is untouched.
  auto spec = base_spec("mis", 64);
  scenario::RunOptions quiet_opts, mem_opts, both_opts;
  quiet_opts.timing = mem_opts.timing = false;
  both_opts.timing = true;
  mem_opts.memory = both_opts.memory = true;
  auto quiet = scenario::run_scenario(spec, quiet_opts);
  auto with_mem = scenario::run_scenario(spec, mem_opts);
  auto with_both = scenario::run_scenario(spec, both_opts);

  EXPECT_EQ(quiet.json.find("\"memory\""), std::string::npos);
  EXPECT_EQ(quiet.json.find("allocs"), std::string::npos);
  EXPECT_NE(with_mem.json.find("\"memory\""), std::string::npos);

  // memory JSON == quiet JSON plus the trailing section.
  size_t cut = with_mem.json.find(", \"memory\"");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_EQ(with_mem.json.substr(0, cut), quiet.json.substr(0, cut));

  // With both flags the sections trail in fixed order: timing, then memory.
  size_t tcut = with_both.json.find(", \"timing\"");
  size_t mcut = with_both.json.find(", \"memory\"");
  ASSERT_NE(tcut, std::string::npos);
  ASSERT_NE(mcut, std::string::npos);
  EXPECT_LT(tcut, mcut);
  EXPECT_EQ(with_both.json.substr(0, tcut), quiet.json.substr(0, tcut));
}

TEST(Memory, PeakLiveBytesDeterministicAcrossThreads) {
  auto spec = base_spec("mis", 64);
  scenario::RunOptions t1, t8;
  t1.timing = t8.timing = false;
  t1.threads_override = 1;
  t8.threads_override = 8;
  auto o1 = scenario::run_scenario(spec, t1);
  auto o8 = scenario::run_scenario(spec, t8);
  ASSERT_TRUE(o1.ran && o8.ran);
  EXPECT_GT(o1.peak_live_bytes, 0u);
  EXPECT_EQ(o1.peak_live_bytes, o8.peak_live_bytes);
}

TEST(Flows, SampledFlowsIdenticalAcrossThreadsAndNonEmpty) {
  // Token journeys are recorded at the router's sequential deposit/arrive
  // points, so the sampled flows are bit-identical at threads=1 vs threads=8.
  auto spec = base_spec("aggregate", 64);
  scenario::RunOptions t1, t8;
  t1.timing = t8.timing = false;
  t1.collect_trace = t8.collect_trace = true;
  t1.threads_override = 1;
  t8.threads_override = 8;
  auto o1 = scenario::run_scenario(spec, t1);
  auto o8 = scenario::run_scenario(spec, t8);
  ASSERT_TRUE(o1.ran && o8.ran);
  EXPECT_EQ(o1.json, o8.json);

  ASSERT_FALSE(o1.trace.flows.empty());
  ASSERT_EQ(o1.trace.flows.size(), o8.trace.flows.size());
  for (size_t i = 0; i < o1.trace.flows.size(); ++i) {
    const obs::SampledFlow& a = o1.trace.flows[i];
    const obs::SampledFlow& b = o8.trace.flows[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.up, b.up);
    ASSERT_EQ(a.hops.size(), b.hops.size());
    for (size_t h = 0; h < a.hops.size(); ++h) {
      EXPECT_EQ(a.hops[h].level, b.hops[h].level);
      EXPECT_EQ(a.hops[h].edge, b.hops[h].edge);
      EXPECT_EQ(a.hops[h].host, b.hops[h].host);
      EXPECT_EQ(a.hops[h].round, b.hops[h].round);
    }
  }
  // A combining-phase journey descends the routing levels over multiple hops.
  bool multi_hop = false;
  for (const obs::SampledFlow& f : o1.trace.flows)
    multi_hop |= f.hops.size() >= 2;
  EXPECT_TRUE(multi_hop);
}

TEST(Flows, TraceCarriesMemoryCounterAndMatchedFlowEvents) {
  auto spec = base_spec("aggregate", 64);
  scenario::RunOptions opts;
  opts.timing = false;
  opts.collect_trace = true;
  auto out = scenario::run_scenario(spec, opts);
  ASSERT_TRUE(out.ran);
  ASSERT_FALSE(out.trace.live_bytes.empty());
  ASSERT_FALSE(out.trace.flows.empty());

  obs::JsonWriter w;
  obs::write_chrome_trace(w, {out.trace}, /*include_timing=*/false);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(w.str(), &doc, &error)) << error;
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_TRUE(events && events->is_array());

  uint64_t memory_counters = 0;
  std::map<double, std::pair<uint64_t, uint64_t>> flow_ends;  // id -> (s, f)
  for (const obs::JsonValue& e : events->array) {
    const obs::JsonValue* ph = e.find("ph");
    ASSERT_TRUE(ph && ph->is_string());
    if (ph->string == "C") {
      const obs::JsonValue* name = e.find("name");
      const obs::JsonValue* value = e.find("args")->find("value");
      ASSERT_TRUE(value && value->is_number());
      EXPECT_GE(value->number, 0.0);
      if (name->string == "live_msg_bytes") ++memory_counters;
    } else if (ph->string == "s" || ph->string == "f") {
      const obs::JsonValue* id = e.find("id");
      ASSERT_TRUE(id && id->is_number()) << "flow event without id";
      if (ph->string == "s") ++flow_ends[id->number].first;
      if (ph->string == "f") ++flow_ends[id->number].second;
    }
  }
  EXPECT_GT(memory_counters, 0u);
  ASSERT_FALSE(flow_ends.empty());
  for (const auto& [id, counts] : flow_ends) {
    EXPECT_EQ(counts.first, 1u) << "flow id " << id;
    EXPECT_EQ(counts.second, 1u) << "flow id " << id;
  }
}

TEST(Flows, SamplerCapsAdmissionAndHops) {
  Network net = make_net(8);
  obs::FlowSampler sampler(net, /*seed=*/3, /*max_flows=*/2, /*max_hops=*/4);
  // Hammer many groups: at most max_flows journeys are admitted, and a
  // journey never exceeds max_hops hops (truncation flagged).
  for (uint64_t g = 0; g < 64; ++g)
    for (uint64_t hop = 0; hop < 8; ++hop)
      sampler.record_hop(g, false, static_cast<uint32_t>(hop), 0, 0, hop);
  EXPECT_LE(sampler.flows().size(), 2u);
  ASSERT_FALSE(sampler.flows().empty());  // first group is always followed
  EXPECT_EQ(sampler.flows()[0].group, 0u);
  for (const obs::SampledFlow& f : sampler.flows())
    EXPECT_LE(f.hops.size(), 4u);
  EXPECT_TRUE(sampler.truncated());
}

TEST(EngineTiming, ShardProfileAccumulatesAndResets) {
  Network net = make_net(16);
  Engine eng(net, EngineConfig{2, /*loop_cutoff=*/1, /*delivery_cutoff=*/1});
  for (int r = 0; r < 4; ++r) {
    engine_send_loop(net, 16, [](uint64_t i, MsgSink& out) {
      out.send(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % 16), 0x1,
               {i});
    });
    net.end_round();
  }
  uint64_t loops = 0, deliveries = 0;
  for (const EngineShardTiming& tm : eng.shard_timing()) {
    loops += tm.loops;
    deliveries += tm.deliveries;
  }
  EXPECT_EQ(loops, 8u);  // 4 rounds x 2 shards
  EXPECT_GT(deliveries, 0u);
  eng.reset_timing();
  for (const EngineShardTiming& tm : eng.shard_timing()) {
    EXPECT_EQ(tm.loops, 0u);
    EXPECT_EQ(tm.stage_ns + tm.merge_ns + tm.deliver_ns, 0u);
  }
}

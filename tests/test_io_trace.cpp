// Tests for graph I/O (edge-list round-trips, malformed input) and the
// RoundTrace execution recorder.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "core/gossip.hpp"
#include "net/trace.hpp"

using namespace ncc;

TEST(GraphIo, RoundTripPreservesGraph) {
  Rng rng(3);
  Graph g = with_random_weights(gnm_graph(40, 120, rng), 50, rng);
  std::stringstream ss;
  write_edge_list(ss, g);
  Graph h = read_edge_list(ss);
  EXPECT_EQ(h.n(), g.n());
  ASSERT_EQ(h.m(), g.m());
  EXPECT_EQ(h.edges(), g.edges());
}

TEST(GraphIo, UnweightedEdgesOmitWeight) {
  Graph g = path_graph(3);
  std::stringstream ss;
  write_edge_list(ss, g);
  EXPECT_NE(ss.str().find("e 0 1\n"), std::string::npos);
  Graph h = read_edge_list(ss);
  EXPECT_EQ(h.weight(0, 1), 1u);
}

TEST(GraphIo, CommentsAndBlankLines) {
  std::stringstream ss("# header\nn 3\n\ne 0 1  # inline comment\ne 1 2 9\n");
  Graph g = read_edge_list(ss);
  EXPECT_EQ(g.n(), 3u);
  EXPECT_EQ(g.m(), 2u);
  EXPECT_EQ(g.weight(1, 2), 9u);
}

TEST(GraphIo, RejectsMalformedInput) {
  auto expect_throw = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW((void)read_edge_list(ss), std::runtime_error) << text;
  };
  expect_throw("e 0 1\n");                 // edge before n
  expect_throw("n 3\ne 0 3\n");            // out of range
  expect_throw("n 3\ne 1 1\n");            // self loop
  expect_throw("n 3\nx 0 1\n");            // unknown record
  expect_throw("n 3\nn 4\n");              // duplicate n
  expect_throw("");                        // missing n
  expect_throw("n 3\ne 0 1 0\n");          // zero weight
}

TEST(GraphIo, FileRoundTrip) {
  Rng rng(5);
  Graph g = random_forest_union(30, 2, rng);
  std::string path = ::testing::TempDir() + "/nccl_io_test.txt";
  save_edge_list(path, g);
  Graph h = load_edge_list(path);
  EXPECT_EQ(h.edges(), g.edges());
  EXPECT_THROW((void)load_edge_list(path + ".does_not_exist"), std::runtime_error);
}

TEST(RoundTrace, RecordsPerRoundSeries) {
  NetConfig cfg;
  cfg.n = 16;
  cfg.seed = 1;
  Network net(cfg);
  RoundTrace trace(net);
  // Round 0: 3 messages, two to node 5.
  net.send(0, 5, 1, {1});
  net.send(1, 5, 1, {1});
  net.send(2, 6, 1, {1});
  net.end_round();
  // Round 1: quiet. Round 2: 1 message. Round 3: quiet again.
  net.end_round();
  net.send(3, 7, 1, {1});
  net.end_round();
  net.end_round();

  // One sample per round the network ran, the trailing quiet one included.
  ASSERT_EQ(trace.samples().size(), net.rounds());
  EXPECT_EQ(trace.samples().back().round, 3u);
  EXPECT_EQ(trace.samples().back().messages, 0u);
  EXPECT_EQ(trace.total_messages(), 4u);
  auto peak = trace.peak();
  EXPECT_EQ(peak.round, 0u);
  EXPECT_EQ(peak.messages, 3u);
  EXPECT_EQ(peak.max_in_degree, 2u);
  EXPECT_EQ(peak.busy_nodes, 2u);

  std::stringstream ss;
  trace.write_csv(ss);
  std::string csv = ss.str();
  EXPECT_NE(csv.find("round,messages,max_in_degree,busy_nodes"), std::string::npos);
  EXPECT_NE(csv.find("0,3,2,2"), std::string::npos);
  EXPECT_NE(csv.find("1,0,0,0"), std::string::npos);  // quiet round densified
  EXPECT_NE(csv.find("2,1,1,1"), std::string::npos);
  EXPECT_NE(csv.find("3,0,0,0"), std::string::npos);  // trailing quiet round
}

TEST(BarabasiAlbert, ShapeAndArboricity) {
  Rng rng(7);
  Graph g = barabasi_albert_graph(200, 3, rng);
  EXPECT_EQ(g.n(), 200u);
  // m = seed clique + k per new node.
  EXPECT_EQ(g.m(), 6u + 3u * (200 - 4));
  EXPECT_TRUE(is_connected(g));
  // Outdegree-k construction bounds degeneracy by 2k-ish.
  EXPECT_LE(degeneracy(g).degeneracy, 2 * 3u);
}

TEST(RoundTrace, CoversARealAlgorithmRun) {
  // Trace an actual gossip run: every delivered message must be accounted.
  NetConfig cfg;
  cfg.n = 64;
  cfg.seed = 3;
  Network net(cfg);
  RoundTrace trace(net);
  run_gossip(net);
  EXPECT_EQ(trace.total_messages(),
            net.stats().messages_sent - net.stats().messages_dropped);
  EXPECT_EQ(trace.samples().size(), net.rounds());
  EXPECT_EQ(trace.peak().max_in_degree, net.stats().max_recv_load);
}

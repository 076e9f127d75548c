// Unit tests for the virtual MPI layer.
#include <gtest/gtest.h>

#include <vector>

#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "vmpi/comm.hpp"

namespace tlb::vmpi {
namespace {

struct Fixture {
  sim::Engine engine;
  sim::LinkSpec link{2e-6, 12.5e9};

  Communicator make(std::vector<int> placement) {
    return Communicator(engine, link, std::move(placement));
  }
};

TEST(Vmpi, SendThenRecvDelivers) {
  Fixture f;
  auto comm = f.make({0, 1});
  bool got = false;
  comm.recv(1, 0, 7, [&](const Message& m) {
    got = true;
    EXPECT_EQ(m.source, 0);
    EXPECT_EQ(m.tag, 7);
    EXPECT_EQ(m.bytes, 100u);
  });
  comm.send(0, 1, 7, 100);
  f.engine.run();
  EXPECT_TRUE(got);
}

TEST(Vmpi, RecvBeforeSendMatches) {
  Fixture f;
  auto comm = f.make({0, 1});
  int got = 0;
  comm.send(0, 1, 7, 10);
  f.engine.run();  // message sits in the unexpected queue
  comm.recv(1, 0, 7, [&](const Message&) { ++got; });
  EXPECT_EQ(got, 1);
}

TEST(Vmpi, WildcardSourceAndTag) {
  Fixture f;
  auto comm = f.make({0, 0, 0});
  int got = 0;
  comm.recv(2, kAnySource, kAnyTag, [&](const Message& m) {
    ++got;
    EXPECT_EQ(m.source, 1);
  });
  comm.send(1, 2, 42, 8);
  f.engine.run();
  EXPECT_EQ(got, 1);
}

TEST(Vmpi, TagFiltersMessages) {
  Fixture f;
  auto comm = f.make({0, 1});
  std::vector<int> tags;
  comm.recv(1, 0, 2, [&](const Message& m) { tags.push_back(m.tag); });
  comm.send(0, 1, 1, 8);
  comm.send(0, 1, 2, 8);
  f.engine.run();
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0], 2);
  // The tag-1 message is still retrievable.
  int got = 0;
  comm.recv(1, 0, 1, [&](const Message&) { ++got; });
  EXPECT_EQ(got, 1);
}

TEST(Vmpi, InterNodeTransferCost) {
  Fixture f;
  auto comm = f.make({0, 1});
  const std::uint64_t bytes = 125000;  // 10 us at 12.5 GB/s
  sim::SimTime delivered = -1.0;
  comm.recv(1, 0, 0, [&](const Message& m) { delivered = m.delivered_at; });
  comm.send(0, 1, 0, bytes);
  f.engine.run();
  EXPECT_NEAR(delivered, 2e-6 + 1e-5, 1e-12);
}

TEST(Vmpi, IntraNodeIsCheaperThanNetwork) {
  Fixture f;
  auto comm = f.make({0, 0, 1});
  sim::SimTime intra = -1.0;
  sim::SimTime inter = -1.0;
  comm.send(0, 1, 0, 1 << 20, [&](const Message& m) { intra = m.delivered_at; });
  comm.send(0, 2, 0, 1 << 20, [&](const Message& m) { inter = m.delivered_at; });
  f.engine.run();
  ASSERT_GT(intra, 0.0);
  EXPECT_LT(intra, inter);
}

TEST(Vmpi, ChannelFifoNoOvertaking) {
  Fixture f;
  auto comm = f.make({0, 1});
  std::vector<int> order;
  comm.recv(1, 0, kAnyTag, [&](const Message& m) { order.push_back(m.tag); });
  comm.recv(1, 0, kAnyTag, [&](const Message& m) { order.push_back(m.tag); });
  comm.send(0, 1, 1, 10'000'000);  // big: slow
  comm.send(0, 1, 2, 8);           // small: would overtake without FIFO
  f.engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Vmpi, SenderCompletionCallback) {
  Fixture f;
  auto comm = f.make({0, 1});
  bool sent = false;
  comm.send(0, 1, 0, 8, [&](const Message&) { sent = true; });
  f.engine.run();
  EXPECT_TRUE(sent);
}

TEST(Vmpi, BarrierReleasesAllTogether) {
  Fixture f;
  auto comm = f.make({0, 1, 2, 3});
  std::vector<sim::SimTime> times(4, -1.0);
  for (int r = 0; r < 4; ++r) {
    f.engine.at(0.1 * r, [&, r] {
      comm.barrier(r, [&, r] { times[static_cast<std::size_t>(r)] = f.engine.now(); });
    });
  }
  f.engine.run();
  for (int r = 1; r < 4; ++r) EXPECT_DOUBLE_EQ(times[0], times[static_cast<std::size_t>(r)]);
  // Last arrival at 0.3 plus log2(4)=2 latencies.
  EXPECT_NEAR(times[0], 0.3 + 2 * f.link.latency, 1e-12);
}

TEST(Vmpi, BarrierReusableAcrossGenerations) {
  Fixture f;
  auto comm = f.make({0, 1});
  int done = 0;
  comm.barrier(0, [&] { ++done; });
  comm.barrier(1, [&] { ++done; });
  f.engine.run();
  EXPECT_EQ(done, 2);
  comm.barrier(0, [&] { ++done; });
  comm.barrier(1, [&] { ++done; });
  f.engine.run();
  EXPECT_EQ(done, 4);
}

TEST(Vmpi, SingleRankBarrierIsImmediatelyReleased) {
  Fixture f;
  auto comm = f.make({0});
  bool done = false;
  comm.barrier(0, [&] { done = true; });
  f.engine.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(f.engine.now(), 0.0);  // log2(1) = 0 rounds
}

TEST(Vmpi, WildcardRecvsDrainSameTimestampDeliveries) {
  // Two messages from different sources on the same node arrive at the
  // same simulated instant; wildcard receives must match both, in the
  // engine's FIFO tie order (send order).
  Fixture f;
  auto comm = f.make({0, 0, 0});  // all intra-node: identical cost
  std::vector<int> sources;
  comm.recv(2, kAnySource, kAnyTag,
            [&](const Message& m) { sources.push_back(m.source); });
  comm.recv(2, kAnySource, kAnyTag,
            [&](const Message& m) { sources.push_back(m.source); });
  comm.send(0, 2, 5, 64);
  comm.send(1, 2, 5, 64);
  f.engine.run();
  EXPECT_EQ(sources, (std::vector<int>{0, 1}));
}

TEST(Vmpi, ChannelFifoSurvivesRetransmits) {
  // With heavy message loss, retransmitted messages must not overtake
  // later ones of the same channel: delivery stays in send order.
  Fixture f;
  auto comm = f.make({0, 1});
  LinkFault fault;
  fault.loss_rate = 0.4;
  comm.set_fault_seed(123);
  comm.set_link_fault(fault);
  constexpr int kMessages = 30;
  std::vector<int> order;
  for (int i = 0; i < kMessages; ++i) {
    comm.recv(1, 0, kAnyTag, [&](const Message& m) { order.push_back(m.tag); });
    comm.send(0, 1, i, 256);
  }
  f.engine.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_GT(comm.retransmissions(), 0u);  // the loss rate did bite
  EXPECT_EQ(comm.messages_lost(), comm.retransmissions());
}

TEST(Vmpi, NearCertainLossDeliversWithinMaxAttempts) {
  // The link is fail-slow: the final attempt always succeeds, so even a
  // near-certain loss rate delivers within kRetryMaxAttempts.
  Fixture f;
  auto comm = f.make({0, 1});
  LinkFault fault;
  fault.loss_rate = 0.99;
  comm.set_fault_seed(7);
  comm.set_link_fault(fault);
  int attempts = 0;
  comm.recv(1, 0, 0, [&](const Message& m) { attempts = m.attempts; });
  comm.send(0, 1, 0, 64);
  f.engine.run();
  EXPECT_GT(attempts, 1);
  EXPECT_LE(attempts, kRetryMaxAttempts);
}

TEST(Vmpi, BarrierWaitsForDelayedStraggler) {
  Fixture f;
  auto comm = f.make({0, 1, 2});
  std::vector<sim::SimTime> times(3, -1.0);
  comm.barrier(0, [&] { times[0] = f.engine.now(); });
  comm.barrier(1, [&] { times[1] = f.engine.now(); });
  f.engine.at(5.0, [&] {
    comm.barrier(2, [&] { times[2] = f.engine.now(); });
  });
  f.engine.run();
  // Released together, no earlier than the straggler's arrival.
  EXPECT_DOUBLE_EQ(times[0], times[1]);
  EXPECT_DOUBLE_EQ(times[0], times[2]);
  EXPECT_NEAR(times[0], 5.0 + 2 * f.link.latency, 1e-12);
}

TEST(Vmpi, DegradedLinkScalesTransferCost) {
  Fixture f;
  auto comm = f.make({0, 1});
  constexpr std::uint64_t kBytes = 1'000'000;
  sim::SimTime clean = -1.0;
  comm.recv(1, 0, 0, [&](const Message& m) { clean = m.delivered_at; });
  comm.send(0, 1, 0, kBytes);
  f.engine.run();

  LinkFault fault;
  fault.latency_mult = 2.0;
  fault.bandwidth_mult = 0.5;
  comm.set_link_fault(fault);
  const sim::SimTime degraded_start = f.engine.now();
  sim::SimTime degraded = -1.0;
  comm.recv(1, 0, 0, [&](const Message& m) { degraded = m.delivered_at; });
  comm.send(0, 1, 0, kBytes);
  f.engine.run();

  const sim::SimTime clean_cost = clean;  // sent at t = 0
  const sim::SimTime degraded_cost = degraded - degraded_start;
  EXPECT_NEAR(degraded_cost,
              2.0 * f.link.latency + kBytes / (0.5 * f.link.bandwidth), 1e-12);
  EXPECT_GT(degraded_cost, clean_cost * 1.9);
}

TEST(Vmpi, TotalLossRetransmitCountIsBounded) {
  // Under 100% loss the retransmit count per message is exactly
  // kRetryMaxAttempts - 1 (the final attempt always succeeds: fail-slow), and
  // every message still drains — nothing stays in flight forever.
  Fixture f;
  auto comm = f.make({0, 1});
  LinkFault total_loss;
  total_loss.loss_rate = 1.0;
  comm.set_fault_seed(5);
  comm.set_link_fault(total_loss);

  constexpr int kMessages = 10;
  int delivered = 0;
  for (int i = 0; i < kMessages; ++i) {
    comm.recv(1, 0, kAnyTag, [&](const Message& m) {
      ++delivered;
      EXPECT_EQ(m.attempts, kRetryMaxAttempts);
    });
    comm.send(0, 1, i, 32);
  }
  f.engine.run();
  EXPECT_EQ(delivered, kMessages);  // in-flight count returned to zero
  EXPECT_EQ(comm.retransmissions(),
            static_cast<std::uint64_t>(kMessages) *
                static_cast<std::uint64_t>(kRetryMaxAttempts - 1));
}

TEST(Vmpi, AddRankPreservesChannelState) {
  // add_rank (expander rewire) grows the communicator mid-run without
  // disturbing in-flight FIFO state: messages sent before the growth still
  // deliver in order, and the new rank is immediately usable.
  Fixture f;
  auto comm = f.make({0, 1});
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    comm.recv(1, 0, kAnyTag, [&](const Message& m) { order.push_back(m.tag); });
    comm.send(0, 1, i, 128);
  }
  const RankId fresh = comm.add_rank(/*node=*/2);
  EXPECT_EQ(fresh, 2);
  EXPECT_EQ(comm.size(), 3);
  bool fresh_got = false;
  comm.recv(fresh, 0, 7, [&](const Message&) { fresh_got = true; });
  comm.send(0, fresh, 7, 64);
  f.engine.run();
  ASSERT_EQ(order.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_TRUE(fresh_got);
}

TEST(Vmpi, FabricRoutedSendsShareBandwidth) {
  // With a fabric attached, concurrent inter-node payloads share the NIC
  // max-min fairly instead of each paying the analytic cost: two 1000-byte
  // messages over a 100 B/s NIC both finish at t = 20, not t = 10.
  Fixture f;
  auto comm = f.make({0, 1});
  net::Fabric fabric(f.engine, net::NetTopology::crossbar(2, 100.0, 0.0));
  comm.attach_fabric(&fabric);
  std::vector<sim::SimTime> delivered;
  comm.recv(1, 0, kAnyTag, [&](const Message& m) { delivered.push_back(m.delivered_at); });
  comm.recv(1, 0, kAnyTag, [&](const Message& m) { delivered.push_back(m.delivered_at); });
  comm.send(0, 1, 1, 1000);
  comm.send(0, 1, 2, 1000);
  f.engine.run();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_NEAR(delivered[0], 20.0, 1e-9);
  EXPECT_NEAR(delivered[1], 20.0, 1e-9);
  EXPECT_EQ(fabric.flows_started(), 2u);
  EXPECT_EQ(fabric.active_flows(), 0);
}

TEST(Vmpi, IntraNodeSendsBypassFabric) {
  // Shared-memory transfers never enter the fabric: same cost as without
  // one attached, and no flow is started.
  Fixture f;
  auto comm = f.make({0, 0});
  net::Fabric fabric(f.engine, net::NetTopology::crossbar(1, 100.0, 0.0));
  comm.attach_fabric(&fabric);
  const std::uint64_t bytes = 1 << 20;
  sim::SimTime delivered = -1.0;
  comm.recv(1, 0, 0, [&](const Message& m) { delivered = m.delivered_at; });
  comm.send(0, 1, 0, bytes);
  f.engine.run();
  EXPECT_NEAR(delivered, f.link.shm_transfer_time(bytes), 1e-12);
  EXPECT_EQ(fabric.flows_started(), 0u);
}

}  // namespace
}  // namespace tlb::vmpi

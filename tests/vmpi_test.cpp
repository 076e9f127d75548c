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

TEST(Vmpi, InterNodeTransferCost) {
  Fixture f;
  auto comm = f.make({0, 1});
  const std::uint64_t bytes = 125000;  // 10 us at 12.5 GB/s
  sim::SimTime delivered = -1.0;
  comm.send(0, 1, bytes, [&] { delivered = f.engine.now(); });
  f.engine.run();
  EXPECT_NEAR(delivered, 2e-6 + 1e-5, 1e-12);
}

TEST(Vmpi, IntraNodeIsCheaperThanNetwork) {
  Fixture f;
  auto comm = f.make({0, 0, 1});
  sim::SimTime intra = -1.0;
  sim::SimTime inter = -1.0;
  comm.send(0, 1, 1 << 20, [&] { intra = f.engine.now(); });
  comm.send(0, 2, 1 << 20, [&] { inter = f.engine.now(); });
  f.engine.run();
  ASSERT_GT(intra, 0.0);
  EXPECT_LT(intra, inter);
}

TEST(Vmpi, ChannelFifoNoOvertaking) {
  Fixture f;
  auto comm = f.make({0, 1});
  std::vector<int> order;
  comm.send(0, 1, 10'000'000, [&] { order.push_back(1); });  // big: slow
  comm.send(0, 1, 8, [&] { order.push_back(2); });  // would overtake
  f.engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Vmpi, SenderCompletionCallback) {
  Fixture f;
  auto comm = f.make({0, 1});
  bool sent = false;
  comm.send(0, 1, 8, [&] { sent = true; });
  f.engine.run();
  EXPECT_TRUE(sent);
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
    comm.send(0, 1, 256, [&order, i] { order.push_back(i); });
  }
  f.engine.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_GT(comm.messages_lost(), 0u);  // the loss rate did bite
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
  comm.send(0, 1, 64, [&] {
    attempts = 1 + static_cast<int>(comm.messages_lost());
  });
  f.engine.run();
  EXPECT_GT(attempts, 1);
  EXPECT_LE(attempts, kRetryMaxAttempts);
}

TEST(Vmpi, DegradedLinkScalesTransferCost) {
  Fixture f;
  auto comm = f.make({0, 1});
  constexpr std::uint64_t kBytes = 1'000'000;
  sim::SimTime clean = -1.0;
  comm.send(0, 1, kBytes, [&] { clean = f.engine.now(); });
  f.engine.run();

  LinkFault fault;
  fault.latency_mult = 2.0;
  fault.bandwidth_mult = 0.5;
  comm.set_link_fault(fault);
  const sim::SimTime degraded_start = f.engine.now();
  sim::SimTime degraded = -1.0;
  comm.send(0, 1, kBytes, [&] { degraded = f.engine.now(); });
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

  // Each message delivers on its last attempt, after every backoff wait
  // (attempt k waits kRetryTimeout * kRetryBackoff^k) plus the wire cost:
  // one more or one fewer attempt would land at a different instant.
  constexpr std::uint64_t kBytes = 32;
  sim::SimTime last_attempt_at = 0.0;
  sim::SimTime wait = kRetryTimeout;
  for (int k = 0; k < kRetryMaxAttempts - 1; ++k) {
    last_attempt_at += wait;
    wait *= kRetryBackoff;
  }
  const sim::SimTime expected =
      last_attempt_at + f.link.latency + kBytes / f.link.bandwidth;

  constexpr int kMessages = 10;
  int delivered = 0;
  for (int i = 0; i < kMessages; ++i) {
    comm.send(0, 1, kBytes, [&] {
      ++delivered;
      EXPECT_NEAR(f.engine.now(), expected, 1e-12);
    });
  }
  f.engine.run();
  EXPECT_EQ(delivered, kMessages);  // in-flight count returned to zero
  EXPECT_EQ(comm.messages_lost(),
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
    comm.send(0, 1, 128, [&order, i] { order.push_back(i); });
  }
  const RankId fresh = comm.add_rank(/*node=*/2);
  EXPECT_EQ(fresh, 2);
  EXPECT_EQ(comm.size(), 3);
  bool fresh_got = false;
  comm.send(0, fresh, 64, [&] { fresh_got = true; });
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
  comm.send(0, 1, 1000, [&] { delivered.push_back(f.engine.now()); });
  comm.send(0, 1, 1000, [&] { delivered.push_back(f.engine.now()); });
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
  comm.send(0, 1, bytes, [&] { delivered = f.engine.now(); });
  f.engine.run();
  EXPECT_NEAR(delivered, f.link.shm_transfer_time(bytes), 1e-12);
  EXPECT_EQ(fabric.flows_started(), 0u);
}

}  // namespace
}  // namespace tlb::vmpi

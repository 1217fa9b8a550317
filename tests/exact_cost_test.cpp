// Exact per-op costs of the repository benchmark's three closed-loop op
// mixes (perfbench's cluster_exchange, device_stream and device_queue),
// built here through the public APIs: Runtime, Listener and CClient.
// These counts are deterministic, so they are asserted exactly: a
// change that puts a remote call, a CLF message, a surrogate call or a
// name-service mutation back on a data path fails this test.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "dstampede/client/client.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/core/runtime.hpp"

namespace dstampede {
namespace {

using core::ConnMode;
using core::GetSpec;

constexpr int kWarmupOps = 5;
constexpr int kOps = 300;

// The per-op cost of one exchange, summed over every space.
struct Costs {
  std::uint64_t remote_calls = 0;     // AsStats::remote_calls
  std::uint64_t data_packets = 0;     // EndpointStats::data_packets_sent
  std::uint64_t surrogate_calls = 0;  // the surrogate.calls counter
  std::uint64_t ns_mutations = 0;     // AsStats::ns_ops on the name server
  bool operator==(const Costs&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Costs& c) {
  return os << c.remote_calls << " remote calls / " << c.data_packets
            << " CLF data packets / " << c.surrogate_calls
            << " surrogate calls / " << c.ns_mutations << " NS mutations";
}

Costs Read(core::Runtime& rt) {
  Costs c;
  for (std::size_t i = 0; i < rt.size(); ++i) {
    core::AddressSpace& as = rt.as(i);
    c.remote_calls += as.stats().remote_calls.load();
    c.data_packets += as.transport_stats().data_packets_sent.load();
    c.surrogate_calls +=
        as.metrics_registry().GetCounter("surrogate.calls").Value();
    if (as.local_name_server() != nullptr) c.ns_mutations += as.stats().ns_ops.load();
  }
  return c;
}

// Runs `exchange` for a warm-up, then kOps times, and returns the cost
// of one exchange; fails the test unless every total divides evenly.
template <typename Exchange>
Costs PerOp(core::Runtime& rt, Exchange&& exchange) {
  Timestamp ts = 0;
  for (int i = 0; i < kWarmupOps; ++i) exchange(ts++);
  const Costs before = Read(rt);
  for (int i = 0; i < kOps; ++i) exchange(ts++);
  const Costs after = Read(rt);
  auto per_op = [](std::uint64_t total) {
    EXPECT_EQ(total % kOps, 0u) << "a cost that is not the same every op";
    return total / kOps;
  };
  return {per_op(after.remote_calls - before.remote_calls),
          per_op(after.data_packets - before.data_packets),
          per_op(after.surrogate_calls - before.surrogate_calls),
          per_op(after.ns_mutations - before.ns_mutations)};
}

std::unique_ptr<core::Runtime> StartRuntime(std::size_t spaces) {
  core::Runtime::Options opts;
  opts.num_address_spaces = spaces;
  auto rt = core::Runtime::Create(opts);
  EXPECT_TRUE(rt.ok()) << rt.status();
  return rt.ok() ? std::move(rt).value() : nullptr;
}

std::unique_ptr<client::CClient> JoinDevice(const client::Listener& listener,
                                            std::int32_t host_as) {
  client::CClient::Options opts;
  opts.server = listener.addr();
  opts.preferred_as = host_as;
  auto client = client::CClient::Join(opts);
  EXPECT_TRUE(client.ok()) << client.status();
  return client.ok() ? std::move(client).value() : nullptr;
}

// AS0 puts a 1 KB item into a channel owned by AS1; AS1 gets and
// consumes it.
TEST(ExactCostTest, ClusterExchange) {
  auto rt = StartRuntime(2);
  ASSERT_NE(rt, nullptr);
  auto ch = rt->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();
  auto out = rt->as(0).Connect(*ch, ConnMode::kOutput);
  auto in = rt->as(1).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok() && in.ok());
  const Costs cost = PerOp(*rt, [&](Timestamp ts) {
    ASSERT_TRUE(rt->as(0).Put(*out, ts, Buffer(1000, 0x11)).ok());
    auto item = rt->as(1).Get(*in, GetSpec::Exact(ts), Deadline::AfterMillis(10000));
    ASSERT_TRUE(item.ok()) << item.status();
    ASSERT_TRUE(rt->as(1).Consume(*in, ts).ok());
  });
  EXPECT_EQ(cost, (Costs{1, 2, 0, 0}));
  rt->Shutdown();
}

// A producer device hosted on AS0 puts 55 KB items into its channel on
// AS0; a consumer device hosted on AS1 gets and consumes them.
TEST(ExactCostTest, DeviceStream) {
  auto rt = StartRuntime(2);
  ASSERT_NE(rt, nullptr);
  auto listener = client::Listener::Start(*rt);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto producer = JoinDevice(**listener, 0);
  auto consumer = JoinDevice(**listener, 1);
  ASSERT_TRUE(producer && consumer);
  auto ch = producer->CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();
  auto out = producer->Connect(*ch, ConnMode::kOutput);
  auto in = consumer->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok() && in.ok());
  const Costs cost = PerOp(*rt, [&](Timestamp ts) {
    ASSERT_TRUE(producer->Put(*out, ts, Buffer(55000, 0x22)).ok());
    auto item = consumer->Get(*in, GetSpec::Exact(ts), Deadline::AfterMillis(10000));
    ASSERT_TRUE(item.ok()) << item.status();
    ASSERT_TRUE(consumer->Consume(*in, ts).ok());
  });
  EXPECT_EQ(cost, (Costs{2, 4, 3, 0}));
  (void)producer->Leave();
  (void)consumer->Leave();
  (*listener)->Shutdown();
  rt->Shutdown();
}

// Producer and consumer devices, both hosted on AS0, put 1 KB items
// into a queue owned by AS1 and read them destructively (Get, then
// Consume). Each Get is consumed on delivery by the queue's owner, so
// the explicit Consume answers kNotFound.
TEST(ExactCostTest, DeviceQueue) {
  auto rt = StartRuntime(2);
  ASSERT_NE(rt, nullptr);
  auto listener = client::Listener::Start(*rt);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto q = rt->as(1).CreateQueue();
  ASSERT_TRUE(q.ok()) << q.status();
  auto producer = JoinDevice(**listener, 0);
  auto consumer = JoinDevice(**listener, 0);
  ASSERT_TRUE(producer && consumer);
  auto out = producer->Connect(*q, ConnMode::kOutput);
  auto in = consumer->Connect(*q, ConnMode::kInput);
  ASSERT_TRUE(out.ok() && in.ok());
  const Costs cost = PerOp(*rt, [&](Timestamp ts) {
    ASSERT_TRUE(producer->Put(*out, ts, Buffer(1000, 0x33)).ok());
    auto item = consumer->Get(*in, Deadline::AfterMillis(10000));
    ASSERT_TRUE(item.ok()) << item.status();
    ASSERT_EQ(item->timestamp, ts);
    ASSERT_EQ(consumer->Consume(*in, ts).code(), StatusCode::kNotFound);
  });
  EXPECT_EQ(cost, (Costs{3, 6, 3, 0}));
  (void)producer->Leave();
  (void)consumer->Leave();
  (*listener)->Shutdown();
  rt->Shutdown();
}

// A pull gauge's value in a space's registry snapshot.
std::int64_t Gauge(core::AddressSpace& as, const std::string& name) {
  const std::string json = as.MetricsJson();
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << name;
  return at == std::string::npos
             ? -1
             : std::strtoll(json.c_str() + at + key.size(), nullptr, 10);
}

// Owners free a session's reply slot when the session ends: on Bye,
// and on a reap of its parked surrogate on a live host. The slots are
// bounded by live sessions.
TEST(SessionSlotTest, SlotsAreFreedWhenSessionsEnd) {
  auto rt = StartRuntime(3);
  ASSERT_NE(rt, nullptr);
  clf::FaultInjector edge_faults;
  client::Listener::Options lopts;
  lopts.edge_faults = &edge_faults;
  auto listener = client::Listener::Start(*rt, lopts);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto q = rt->as(1).CreateQueue();
  auto ch = rt->as(2).CreateChannel();
  ASSERT_TRUE(q.ok() && ch.ok());

  auto leaver = JoinDevice(**listener, 0);
  client::CClient::Options vanish_opts;
  vanish_opts.server = (*listener)->addr();
  vanish_opts.preferred_as = 0;
  vanish_opts.reconnect.enabled = false;
  auto vanisher = client::CClient::Join(vanish_opts);
  ASSERT_TRUE(leaver && vanisher.ok());
  // Each device records calls on AS1 (the queue) and AS2 (the channel),
  // and a create on its host, AS0.
  for (client::CClient* device : {leaver.get(), vanisher->get()}) {
    auto out = device->Connect(*q, ConnMode::kOutput);
    auto ch_out = device->Connect(*ch, ConnMode::kOutput);
    ASSERT_TRUE(out.ok() && ch_out.ok());
    ASSERT_TRUE(device->Put(*out, 1, Buffer{1}).ok());
    ASSERT_TRUE(device->Put(*ch_out, device == leaver.get() ? 1 : 2, Buffer{2}).ok());
    ASSERT_TRUE(device->CreateChannel().ok());
  }
  EXPECT_EQ(Gauge(rt->as(0), "stm.session_slots"), 2);
  EXPECT_EQ(Gauge(rt->as(1), "stm.session_slots"), 2);
  EXPECT_EQ(Gauge(rt->as(2), "stm.session_slots"), 2);

  ASSERT_TRUE(leaver->Leave().ok());
  edge_faults.ArmConnectionKill(1,
                                clf::FaultInjector::KillPoint::kBeforeExecute);
  EXPECT_FALSE((*vanisher)->NsList("").ok());
  for (int i = 0; i < 300 && (*listener)->surrogates_in(
                                 client::Surrogate::State::kParked) == 0;
       ++i) {
    std::this_thread::sleep_for(Millis(10));
  }
  ASSERT_EQ((*listener)->ReapParked(), 1u);
  // The Bye's slot frees run on the departing surrogate's thread, after
  // its reply.
  for (int i = 0; i < 300 && Gauge(rt->as(1), "stm.session_slots") != 0; ++i) {
    std::this_thread::sleep_for(Millis(10));
  }
  for (std::size_t i = 0; i < rt->size(); ++i) {
    EXPECT_EQ(Gauge(rt->as(i), "stm.session_slots"), 0) << "AS" << i;
  }
  (*listener)->Shutdown();
  rt->Shutdown();
}

}  // namespace
}  // namespace dstampede

// CLF tests: reliable ordered delivery, fragmentation of large
// messages, the shared-memory fast path, and the property suite that
// drives the ARQ through seeded drop/duplicate/reorder schedules.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "clf_inbox.hpp"
#include "dstampede/clf/endpoint.hpp"

namespace dstampede::clf {
namespace {

InboxEndpoint MakeEndpoint(Endpoint::Options opts = {}) {
  auto ep = MakeInboxEndpoint(opts);
  EXPECT_TRUE(ep.ok()) << ep.status();
  return std::move(ep).value();
}

TEST(ClfTest, SmallMessageRoundTrip) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  Buffer msg = {1, 2, 3};
  ASSERT_TRUE(a->Send(b->addr(), msg).ok());
  Buffer got;
  transport::SockAddr from;
  ASSERT_TRUE(b.Recv(got, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_EQ(got, msg);
  EXPECT_EQ(from, a->addr());
}

TEST(ClfTest, EmptyMessage) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  ASSERT_TRUE(a->Send(b->addr(), {}).ok());
  Buffer got = {9};
  transport::SockAddr from;
  ASSERT_TRUE(b.Recv(got, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_TRUE(got.empty());
}

TEST(ClfTest, LargeMessageFragmentsAndReassembles) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  Buffer msg(1400 * 1024);  // ~24 fragments
  FillPattern(msg, 42);
  ASSERT_TRUE(a->Send(b->addr(), msg).ok());
  Buffer got;
  transport::SockAddr from;
  ASSERT_TRUE(b.Recv(got, from, Deadline::AfterMillis(10000)).ok());
  ASSERT_EQ(got.size(), msg.size());
  EXPECT_TRUE(CheckPattern(got, 42));
  EXPECT_GT(a->stats().data_packets_sent.load(), 20u);
}

TEST(ClfTest, ManyMessagesStayOrdered) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    Buffer msg(64);
    FillPattern(msg, static_cast<std::uint64_t>(i));
    ASSERT_TRUE(a->Send(b->addr(), msg).ok());
  }
  for (int i = 0; i < kCount; ++i) {
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(b.Recv(got, from, Deadline::AfterMillis(5000)).ok());
    EXPECT_TRUE(CheckPattern(got, static_cast<std::uint64_t>(i)))
        << "message " << i << " out of order or corrupt";
  }
}

TEST(ClfTest, BidirectionalTraffic) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  std::thread peer([&] {
    for (int i = 0; i < 50; ++i) {
      Buffer got;
      transport::SockAddr from;
      ASSERT_TRUE(b.Recv(got, from, Deadline::AfterMillis(5000)).ok());
      ASSERT_TRUE(b->Send(from, got).ok());  // echo
    }
  });
  for (int i = 0; i < 50; ++i) {
    Buffer msg(512);
    FillPattern(msg, static_cast<std::uint64_t>(i) + 1000);
    ASSERT_TRUE(a->Send(b->addr(), msg).ok());
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(a.Recv(got, from, Deadline::AfterMillis(5000)).ok());
    EXPECT_EQ(got, msg);
  }
  peer.join();
}

TEST(ClfTest, MultiplePeersInterleaved) {
  auto hub = MakeEndpoint();
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  for (int i = 0; i < 20; ++i) {
    Buffer from_a(32, 0xA);
    Buffer from_b(32, 0xB);
    ASSERT_TRUE(a->Send(hub->addr(), from_a).ok());
    ASSERT_TRUE(b->Send(hub->addr(), from_b).ok());
  }
  int got_a = 0, got_b = 0;
  for (int i = 0; i < 40; ++i) {
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(hub.Recv(got, from, Deadline::AfterMillis(5000)).ok());
    if (from == a->addr()) {
      EXPECT_EQ(got, Buffer(32, 0xA));
      ++got_a;
    } else {
      EXPECT_EQ(got, Buffer(32, 0xB));
      ++got_b;
    }
  }
  EXPECT_EQ(got_a, 20);
  EXPECT_EQ(got_b, 20);
}

TEST(ClfTest, RecvTimesOut) {
  // An idle endpoint delivers nothing unprompted.
  auto a = MakeEndpoint();
  Buffer got;
  transport::SockAddr from;
  Status s = a.Recv(got, from, Deadline::AfterMillis(50));
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
}

TEST(ClfTest, SendAfterShutdownFails) {
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  a->Shutdown();
  Buffer one = {1};
  EXPECT_EQ(a->Send(b->addr(), one).code(), StatusCode::kCancelled);
}

TEST(ClfTest, ShmFastPathDelivers) {
  Endpoint::Options opts;
  opts.enable_shm_fastpath = true;
  auto a = MakeEndpoint(opts);
  auto b = MakeEndpoint(opts);
  Buffer msg(300 * 1024);  // multiple shm chunks
  FillPattern(msg, 9);
  ASSERT_TRUE(a->Send(b->addr(), msg).ok());
  Buffer got;
  transport::SockAddr from;
  ASSERT_TRUE(b.Recv(got, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_TRUE(CheckPattern(got, 9));
  EXPECT_EQ(from, a->addr());
  // The fast path must have bypassed the wire entirely.
  EXPECT_EQ(a->stats().data_packets_sent.load(), 0u);
  EXPECT_EQ(b->stats().shm_messages.load(), 1u);
}

TEST(ClfTest, ShmDisabledUsesWire) {
  Endpoint::Options opts;  // fastpath off by default
  auto a = MakeEndpoint(opts);
  auto b = MakeEndpoint(opts);
  ASSERT_TRUE(a->Send(b->addr(), Buffer(100)).ok());
  Buffer got;
  transport::SockAddr from;
  ASSERT_TRUE(b.Recv(got, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_GE(a->stats().data_packets_sent.load(), 1u);
  EXPECT_EQ(b->stats().shm_messages.load(), 0u);
}

TEST(ClfTest, ConcurrentLargeSendsToOnePeerDoNotInterleave) {
  // Regression: two threads sending multi-fragment messages from the
  // same endpoint to the same peer must not interleave fragments in
  // the sequence space (reassembly would see a foreign first-fragment
  // mid message and corrupt both).
  auto a = MakeEndpoint();
  auto b = MakeEndpoint();
  constexpr int kPerThread = 15;
  constexpr std::size_t kSize = 150 * 1024;  // 3 fragments each
  std::thread t1([&] {
    for (int i = 0; i < kPerThread; ++i) {
      Buffer msg(kSize);
      FillPattern(msg, 1000 + static_cast<std::uint64_t>(i));
      ASSERT_TRUE(a->Send(b->addr(), msg).ok());
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < kPerThread; ++i) {
      Buffer msg(kSize);
      FillPattern(msg, 2000 + static_cast<std::uint64_t>(i));
      ASSERT_TRUE(a->Send(b->addr(), msg).ok());
    }
  });
  int seen_t1 = 0, seen_t2 = 0;
  for (int i = 0; i < 2 * kPerThread; ++i) {
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(b.Recv(got, from, Deadline::AfterMillis(30000)).ok());
    ASSERT_EQ(got.size(), kSize);
    // Each message must be internally intact and attributable.
    if (CheckPattern(got, 1000 + static_cast<std::uint64_t>(seen_t1))) {
      ++seen_t1;
    } else if (CheckPattern(got, 2000 + static_cast<std::uint64_t>(seen_t2))) {
      ++seen_t2;
    } else {
      FAIL() << "message " << i << " corrupted or out of per-thread order";
    }
  }
  EXPECT_EQ(seen_t1, kPerThread);
  EXPECT_EQ(seen_t2, kPerThread);
  t1.join();
  t2.join();
}

// The handler contract on the UDP path: every message exactly once, in
// per-peer order, always on the endpoint's one receiver thread — with
// fragmented and single-datagram messages from two peers interleaved.
TEST(ClfTest, HandlerSeesEveryMessageOnceInOrderOnOneThread) {
  constexpr int kPerSender = 12;
  struct Seen {
    transport::SockAddr from;
    Buffer message;
    std::thread::id thread;
  };
  ds::Mutex mu{"test.seen.mu"};
  ds::CondVar cv;
  std::vector<Seen> seen;
  auto receiver = Endpoint::Create(
      {}, [&](const transport::SockAddr& from, Buffer message) {
        {
          ds::MutexLock lock(mu);
          seen.push_back(
              {from, std::move(message), std::this_thread::get_id()});
        }
        cv.NotifyAll();
      });
  ASSERT_TRUE(receiver.ok()) << receiver.status();
  auto s1 = MakeEndpoint();
  auto s2 = MakeEndpoint();
  // Even messages span three datagrams, odd ones fit in one.
  auto size_of = [](int i) -> std::size_t {
    return i % 2 == 0 ? 150 * 1024 : 100;
  };
  auto send_all = [&](InboxEndpoint& ep, std::uint64_t base) {
    for (int i = 0; i < kPerSender; ++i) {
      Buffer msg(size_of(i));
      FillPattern(msg, base + static_cast<std::uint64_t>(i));
      ASSERT_TRUE(ep->Send((*receiver)->addr(), msg).ok());
    }
  };
  std::thread::id sender1, sender2;
  std::thread t1([&] {
    sender1 = std::this_thread::get_id();
    send_all(s1, 1000);
  });
  std::thread t2([&] {
    sender2 = std::this_thread::get_id();
    send_all(s2, 2000);
  });
  t1.join();
  t2.join();
  {
    ds::MutexLock lock(mu);
    const Deadline give_up = Deadline::AfterMillis(30000);
    while (seen.size() < 2u * kPerSender) {
      if (!cv.WaitUntil(mu, give_up)) break;
    }
  }
  // Exactly once: nothing more turns up after the last expected one.
  std::this_thread::sleep_for(Millis(100));
  ds::MutexLock lock(mu);
  ASSERT_EQ(seen.size(), 2u * kPerSender);
  int next1 = 0, next2 = 0;
  for (const Seen& m : seen) {
    EXPECT_EQ(m.thread, seen.front().thread) << "handler changed threads";
    ASSERT_TRUE(m.from == s1->addr() || m.from == s2->addr());
    int& next = m.from == s1->addr() ? next1 : next2;
    const std::uint64_t base = m.from == s1->addr() ? 1000 : 2000;
    ASSERT_EQ(m.message.size(), size_of(next)) << "per-peer order broken";
    EXPECT_TRUE(
        CheckPattern(m.message, base + static_cast<std::uint64_t>(next)));
    ++next;
  }
  EXPECT_EQ(next1, kPerSender);
  EXPECT_EQ(next2, kPerSender);
  // The receiver's own thread, never a sender's or the test's.
  EXPECT_NE(seen.front().thread, sender1);
  EXPECT_NE(seen.front().thread, sender2);
  EXPECT_NE(seen.front().thread, std::this_thread::get_id());
}

// Regression: Shutdown joined the receiver before waking window
// waiters, so a handler blocked in Send on a full window (here: a
// one-packet window toward a blackholed peer) hung it forever.
TEST(ClfTest, ShutdownWakesHandlerBlockedOnWindow) {
  auto sink = MakeEndpoint();  // never hears anything: partitioned
  Endpoint::Options opts;
  opts.window_packets = 1;
  std::atomic<Endpoint*> self{nullptr};
  std::atomic<bool> entered{false};
  std::atomic<int> second_send{-1};
  auto a = Endpoint::Create(opts, [&](const transport::SockAddr&, Buffer) {
    entered = true;
    (void)self.load()->Send(sink->addr(), Buffer{1});  // fills the window
    second_send = static_cast<int>(
        self.load()->Send(sink->addr(), Buffer{2}).code());  // blocks
  });
  ASSERT_TRUE(a.ok()) << a.status();
  self = a->get();
  (*a)->fault_injector().Partition(sink->addr());

  auto trigger = MakeEndpoint();
  ASSERT_TRUE(trigger->Send((*a)->addr(), Buffer{0}).ok());
  const TimePoint give_up = Now() + Millis(5000);
  while (!entered && Now() < give_up) std::this_thread::sleep_for(Millis(5));
  ASSERT_TRUE(entered.load());
  std::this_thread::sleep_for(Millis(50));  // let the second Send park

  std::atomic<bool> returned{false};
  std::thread stopper([&] {
    (*a)->Shutdown();
    returned = true;
  });
  const TimePoint deadline = Now() + Millis(5000);
  while (!returned && Now() < deadline) std::this_thread::sleep_for(Millis(5));
  if (!returned) {
    // The stopper can never be joined; fail loudly instead of hanging.
    std::fprintf(stderr, "Endpoint::Shutdown hung joining its receiver\n");
    std::abort();
  }
  stopper.join();
  EXPECT_EQ(second_send.load(), static_cast<int>(StatusCode::kCancelled));
}

// --- fault-injection property suite -------------------------------------
//
// Exactly-once, in-order delivery must survive drops, duplicates and
// reordering. Each parameter is (drop, dup, reorder, seed).
struct FaultCase {
  double drop;
  double dup;
  double reorder;
  std::uint64_t seed;
};

class ClfFaultTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(ClfFaultTest, ExactlyOnceInOrderUnderFaults) {
  const FaultCase& fc = GetParam();
  Endpoint::Options lossy;
  lossy.faults.drop_probability = fc.drop;
  lossy.faults.duplicate_probability = fc.dup;
  lossy.faults.reorder_probability = fc.reorder;
  lossy.faults.seed = fc.seed;
  lossy.initial_rto = Millis(5);
  auto sender = MakeEndpoint(lossy);
  auto receiver = MakeEndpoint();  // clean return path for acks

  constexpr int kCount = 120;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      Buffer msg(100 + (i % 7) * 501);  // varied sizes
      FillPattern(msg, static_cast<std::uint64_t>(i) * 13 + 1);
      ASSERT_TRUE(sender->Send(receiver->addr(), msg).ok());
    }
  });
  for (int i = 0; i < kCount; ++i) {
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(receiver.Recv(got, from, Deadline::AfterMillis(30000)).ok())
        << "lost message " << i << " under faults";
    EXPECT_EQ(got.size(), 100u + (i % 7) * 501u) << "order violated at " << i;
    EXPECT_TRUE(CheckPattern(got, static_cast<std::uint64_t>(i) * 13 + 1));
  }
  producer.join();
  // Nothing extra may be delivered (exactly-once).
  Buffer extra;
  transport::SockAddr from;
  EXPECT_EQ(receiver.Recv(extra, from, Deadline::AfterMillis(200)).code(),
            StatusCode::kTimeout);
  if (fc.drop > 0) {
    EXPECT_GT(sender->stats().retransmissions.load(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Faults, ClfFaultTest,
    ::testing::Values(FaultCase{0.05, 0.0, 0.0, 1},   // light loss
                      FaultCase{0.20, 0.0, 0.0, 2},   // heavy loss
                      FaultCase{0.0, 0.20, 0.0, 3},   // duplication
                      FaultCase{0.0, 0.0, 0.30, 4},   // reordering
                      FaultCase{0.10, 0.10, 0.10, 5}, // everything
                      FaultCase{0.10, 0.10, 0.10, 6},
                      FaultCase{0.15, 0.05, 0.20, 7}));

// Fragmented messages under loss: every fragment must arrive for the
// message to reassemble, so loss exercises retransmission harder.
TEST(ClfFaultTest, FragmentedMessagesSurviveLoss) {
  Endpoint::Options lossy;
  lossy.faults.drop_probability = 0.15;
  lossy.faults.seed = 11;
  lossy.initial_rto = Millis(5);
  auto sender = MakeEndpoint(lossy);
  auto receiver = MakeEndpoint();
  for (int i = 0; i < 5; ++i) {
    Buffer msg(200 * 1024);
    FillPattern(msg, static_cast<std::uint64_t>(i) + 500);
    ASSERT_TRUE(sender->Send(receiver->addr(), msg).ok());
    Buffer got;
    transport::SockAddr from;
    ASSERT_TRUE(receiver.Recv(got, from, Deadline::AfterMillis(30000)).ok());
    ASSERT_EQ(got.size(), msg.size());
    EXPECT_TRUE(CheckPattern(got, static_cast<std::uint64_t>(i) + 500));
  }
}

}  // namespace
}  // namespace dstampede::clf

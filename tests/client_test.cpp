// Client library + listener + surrogate integration: joining, STM ops
// from an end device, cross-AS routing through the surrogate, GC-notice
// piggybacking, C/Java interop, clean leave vs parked surrogate.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>

#include "dstampede/client/java_client.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/core/runtime.hpp"

namespace dstampede::client {
namespace {

using core::ConnMode;
using core::GetSpec;
using core::NsEntry;

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Runtime::Options opts;
    opts.num_address_spaces = 2;
    opts.gc_interval = Millis(10);
    auto rt = core::Runtime::Create(opts);
    ASSERT_TRUE(rt.ok()) << rt.status();
    rt_ = std::move(rt).value();
    auto listener = Listener::Start(*rt_);
    ASSERT_TRUE(listener.ok()) << listener.status();
    listener_ = std::move(listener).value();
  }

  void TearDown() override {
    if (listener_) listener_->Shutdown();
    if (rt_) rt_->Shutdown();
  }

  std::unique_ptr<CClient> JoinC(std::int32_t preferred_as = -1,
                                 const std::string& name = "dev") {
    CClient::Options opts;
    opts.server = listener_->addr();
    opts.name = name;
    opts.preferred_as = preferred_as;
    auto client = CClient::Join(opts);
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  Buffer Bytes(std::string_view s) { return Buffer(s.begin(), s.end()); }

  std::unique_ptr<core::Runtime> rt_;
  std::unique_ptr<Listener> listener_;
};

TEST_F(ClientTest, JoinAssignsSurrogateAndHostAs) {
  auto client = JoinC();
  EXPECT_NE(client->session_id(), 0u);
  EXPECT_LT(AsIndex(client->host_as()), rt_->size());
  EXPECT_EQ(listener_->surrogates_total(), 1u);
  EXPECT_EQ(listener_->surrogates_in(Surrogate::State::kActive), 1u);
}

TEST_F(ClientTest, PreferredAsHonored) {
  auto client = JoinC(/*preferred_as=*/1);
  EXPECT_EQ(AsIndex(client->host_as()), 1u);
}

TEST_F(ClientTest, RoundRobinAssignment) {
  auto a = JoinC();
  auto b = JoinC();
  EXPECT_NE(AsIndex(a->host_as()), AsIndex(b->host_as()));
}

TEST_F(ClientTest, ClientCreatesChannelInHostAs) {
  auto client = JoinC(/*preferred_as=*/0);
  auto ch = client->CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();
  EXPECT_EQ(AsIndex(ch->owner()), 0u);
  EXPECT_NE(rt_->as(0).FindChannel(ch->bits()), nullptr);
}

TEST_F(ClientTest, PutGetThroughSurrogate) {
  auto client = JoinC();
  auto ch = client->CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = client->Connect(*ch, ConnMode::kOutput);
  auto in = client->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());

  Buffer payload(55000);
  FillPattern(payload, 8);
  ASSERT_TRUE(client->Put(*out, 3, payload).ok());
  auto item = client->Get(*in, GetSpec::Exact(3), Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_EQ(item->timestamp, 3);
  EXPECT_TRUE(CheckPattern(item->payload.span(), 8));
}

TEST_F(ClientTest, TwoDevicesShareOneChannelViaNameServer) {
  auto producer = JoinC(-1, "camera");
  auto consumer = JoinC(-1, "display");

  auto ch = producer->CreateChannel();
  ASSERT_TRUE(ch.ok());
  ASSERT_TRUE(producer
                  ->NsRegister(NsEntry{"shared/video", NsEntry::Kind::kChannel,
                                       ch->bits(), "test stream"})
                  .ok());
  auto entry = consumer->NsLookup("shared/video", Deadline::AfterMillis(5000));
  ASSERT_TRUE(entry.ok()) << entry.status();

  auto out = producer->Connect(*ch, ConnMode::kOutput);
  auto in = consumer->Connect(ChannelId::FromBits(entry->id_bits),
                              ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());

  ASSERT_TRUE(producer->Put(*out, 1, Bytes("frame-1")).ok());
  auto item =
      consumer->Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(item->payload.ToString(), "frame-1");
  EXPECT_TRUE(consumer->Consume(*in, 1).ok());
}

TEST_F(ClientTest, CrossAsRoutingThroughSurrogate) {
  // Device hosted on AS0 operates a channel owned by AS1: the surrogate
  // must forward over CLF transparently.
  auto device = JoinC(/*preferred_as=*/0);
  auto ch = rt_->as(1).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = device->Connect(*ch, ConnMode::kOutput);
  auto in = device->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(device->Put(*out, 9, Bytes("routed")).ok());
  auto item = device->Get(*in, GetSpec::Exact(9), Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_EQ(item->payload.ToString(), "routed");
}

TEST_F(ClientTest, BlockingGetAcrossDevices) {
  auto producer = JoinC();
  auto consumer = JoinC();
  auto ch = producer->CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto in = consumer->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(in.ok());

  std::thread late_producer([&] {
    std::this_thread::sleep_for(Millis(50));
    auto out = producer->Connect(*ch, ConnMode::kOutput);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(producer->Put(*out, 1, Bytes("late")).ok());
  });
  auto item =
      consumer->Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(15000));
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_EQ(item->payload.ToString(), "late");
  late_producer.join();
}

TEST_F(ClientTest, QueueThroughSurrogate) {
  auto client = JoinC();
  auto q = client->CreateQueue();
  ASSERT_TRUE(q.ok());
  auto out = client->Connect(*q, ConnMode::kOutput);
  auto in = client->Connect(*q, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(client->Put(*out, 1, Bytes("job-a")).ok());
  ASSERT_TRUE(client->Put(*out, 2, Bytes("job-b")).ok());
  EXPECT_EQ(client->Get(*in, Deadline::AfterMillis(5000))->payload.ToString(),
            "job-a");
  EXPECT_EQ(client->Get(*in, Deadline::AfterMillis(5000))->payload.ToString(),
            "job-b");
}

TEST_F(ClientTest, GcNoticesPiggybackToInterestedDevice) {
  auto device = JoinC();
  auto ch = device->CreateChannel();
  ASSERT_TRUE(ch.ok());

  std::vector<Timestamp> reclaimed;
  ASSERT_TRUE(device
                  ->SetGcHandler(ch->bits(), /*is_queue=*/false,
                                 [&](const core::GcNotice& notice) {
                                   reclaimed.push_back(notice.timestamp);
                                 })
                  .ok());

  auto out = device->Connect(*ch, ConnMode::kOutput);
  auto in = device->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(device->Put(*out, 1, Bytes("x")).ok());
  ASSERT_TRUE(device->Consume(*in, 1).ok());

  // The notice is generated by the owner AS's GC service and forwarded
  // "at an opportune time": on a later call. Poke with harmless calls.
  for (int i = 0; i < 50 && reclaimed.empty(); ++i) {
    std::this_thread::sleep_for(Millis(10));
    (void)device->NsList("");
  }
  ASSERT_EQ(reclaimed.size(), 1u);
  EXPECT_EQ(reclaimed[0], 1);
  EXPECT_GE(device->gc_notices_received(), 1u);
}

TEST_F(ClientTest, UninterestedDeviceGetsNoNotices) {
  auto device = JoinC();
  auto ch = device->CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = device->Connect(*ch, ConnMode::kOutput);
  auto in = device->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(device->Put(*out, 1, Bytes("x")).ok());
  ASSERT_TRUE(device->Consume(*in, 1).ok());
  std::this_thread::sleep_for(Millis(100));
  (void)device->NsList("");
  EXPECT_EQ(device->gc_notices_received(), 0u);
}

TEST_F(ClientTest, CleanLeaveRetiresSurrogate) {
  auto device = JoinC();
  ASSERT_TRUE(device->Leave().ok());
  for (int i = 0; i < 100 &&
                  listener_->surrogates_in(Surrogate::State::kLeft) == 0;
       ++i) {
    std::this_thread::sleep_for(Millis(10));
  }
  EXPECT_EQ(listener_->surrogates_in(Surrogate::State::kLeft), 1u);
  // Calls after leave fail locally.
  EXPECT_EQ(device->CreateChannel().status().code(),
            StatusCode::kConnectionClosed);
}

TEST_F(ClientTest, ParkedByAbruptClose) {
  // The paper's §3.3 limitation, reproduced deliberately: an end device
  // that dies without a clean leave leaves its surrogate parked.
  // Open a raw TCP connection, complete the Hello, then slam it shut:
  // the surrogate must park, not crash, and stay countable.
  auto conn = transport::TcpConnection::Connect(listener_->addr());
  ASSERT_TRUE(conn.ok());
  marshal::XdrEncoder enc;
  core::EncodeRequestHeader(enc, static_cast<core::Op>(ClientOp::kHello), 1);
  HelloReq hello;
  hello.name = "abrupt";
  hello.Encode(enc);
  ASSERT_TRUE(conn->SendFrame(enc.Take()).ok());
  Buffer reply;
  ASSERT_TRUE(conn->RecvFrame(reply, Deadline::AfterMillis(5000)).ok());
  conn->Close();  // vanish without Bye

  for (int i = 0; i < 100 &&
                  listener_->surrogates_in(Surrogate::State::kParked) == 0;
       ++i) {
    std::this_thread::sleep_for(Millis(10));
  }
  EXPECT_EQ(listener_->surrogates_in(Surrogate::State::kParked), 1u);
}

TEST_F(ClientTest, HelloRequiredBeforeAnythingElse) {
  auto conn = transport::TcpConnection::Connect(listener_->addr());
  ASSERT_TRUE(conn.ok());
  marshal::XdrEncoder enc;
  core::EncodeRequestHeader(enc, core::Op::kCreateChannel, 1);
  core::CreateReq{}.Encode(enc);
  ASSERT_TRUE(conn->SendFrame(enc.Take()).ok());
  Buffer reply;
  // The listener drops devices that do not say hello.
  Status s = conn->RecvFrame(reply, Deadline::AfterMillis(3000));
  EXPECT_EQ(s.code(), StatusCode::kConnectionClosed);
}

// --- Java-style client ------------------------------------------------------

TEST_F(ClientTest, JavaClientFullRoundTrip) {
  JavaStyleClient::Options opts;
  opts.server = listener_->addr();
  opts.name = "jdev";
  auto client = JavaStyleClient::Join(opts);
  ASSERT_TRUE(client.ok()) << client.status();
  auto ch = (*client)->CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = (*client)->Connect(*ch, ConnMode::kOutput);
  auto in = (*client)->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  Buffer payload(20000);
  FillPattern(payload, 13);
  ASSERT_TRUE((*client)->Put(*out, 1, payload).ok());
  auto item =
      (*client)->Get(*in, GetSpec::Exact(1), Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok());
  EXPECT_TRUE(CheckPattern(item->payload.span(), 13));
}

TEST_F(ClientTest, CAndJavaDevicesInterop) {
  // Language heterogeneity (§3.2.3): a Java producer feeds a C consumer
  // through the same channel abstraction.
  JavaStyleClient::Options jopts;
  jopts.server = listener_->addr();
  jopts.name = "java-camera";
  auto java = JavaStyleClient::Join(jopts);
  ASSERT_TRUE(java.ok());
  auto c = JoinC(-1, "c-display");

  auto ch = (*java)->CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto out = (*java)->Connect(*ch, ConnMode::kOutput);
  auto in = c->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());

  Buffer payload(4096);
  FillPattern(payload, 21);
  ASSERT_TRUE((*java)->Put(*out, 5, payload).ok());
  auto item = c->Get(*in, GetSpec::Exact(5), Deadline::AfterMillis(10000));
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_TRUE(CheckPattern(item->payload.span(), 21));
  EXPECT_TRUE(c->Consume(*in, 5).ok());
}

TEST_F(ClientTest, ManyDevicesConcurrently) {
  constexpr int kDevices = 6;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int d = 0; d < kDevices; ++d) {
    threads.emplace_back([&, d] {
      CClient::Options opts;
      opts.server = listener_->addr();
      opts.name = "dev-" + std::to_string(d);
      auto client = CClient::Join(opts);
      if (!client.ok()) return;
      auto ch = (*client)->CreateChannel();
      if (!ch.ok()) return;
      auto out = (*client)->Connect(*ch, ConnMode::kOutput);
      auto in = (*client)->Connect(*ch, ConnMode::kInput);
      if (!out.ok() || !in.ok()) return;
      for (Timestamp ts = 0; ts < 20; ++ts) {
        Buffer payload(1024);
        FillPattern(payload, static_cast<std::uint64_t>(d * 1000 + ts));
        if (!(*client)->Put(*out, ts, std::move(payload)).ok()) return;
        auto item = (*client)->Get(*in, GetSpec::Exact(ts),
                                   Deadline::AfterMillis(10000));
        if (!item.ok() ||
            !CheckPattern(item->payload.span(),
                          static_cast<std::uint64_t>(d * 1000 + ts))) {
          return;
        }
        if (!(*client)->Consume(*in, ts).ok()) return;
      }
      ok_count.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kDevices);
}

// --- session resilience: transparent reconnect & surrogate failover ---

class ResilienceTest : public ::testing::Test {
 protected:
  // Failure detection on (the resilience layer rides on PR 1's CLF
  // machinery); the listener shares one edge fault injector so tests
  // can kill the device<->surrogate TCP link at precise points.
  void Start() {
    core::Runtime::Options opts;
    opts.num_address_spaces = 2;
    opts.gc_interval = Millis(10);
    opts.clf_max_retransmits = 5;
    opts.peer_keepalive_interval = Millis(50);
    opts.peer_timeout = kPeerTimeout;
    auto rt = core::Runtime::Create(opts);
    ASSERT_TRUE(rt.ok()) << rt.status();
    rt_ = std::move(rt).value();
    Listener::Options lopts;
    lopts.edge_faults = &edge_faults_;
    auto listener = Listener::Start(*rt_, lopts);
    ASSERT_TRUE(listener.ok()) << listener.status();
    listener_ = std::move(listener).value();
  }

  void TearDown() override {
    if (listener_) listener_->Shutdown();
    if (rt_) rt_->Shutdown();
  }

  std::unique_ptr<CClient> JoinC(std::int32_t preferred_as = -1) {
    CClient::Options opts;
    opts.server = listener_->addr();
    opts.preferred_as = preferred_as;
    auto client = CClient::Join(opts);
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  Buffer Bytes(std::string_view s) { return Buffer(s.begin(), s.end()); }

  static constexpr auto kPeerTimeout = std::chrono::milliseconds(500);

  clf::FaultInjector edge_faults_;
  std::unique_ptr<core::Runtime> rt_;
  std::unique_ptr<Listener> listener_;
};

TEST_F(ResilienceTest, TransparentReconnectIsExactlyOnce) {
  Start();
  auto client = JoinC();
  auto q = client->CreateQueue();
  ASSERT_TRUE(q.ok()) << q.status();
  auto out = client->Connect(*q, ConnMode::kOutput);
  auto in = client->Connect(*q, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(client->Put(*out, 0, Bytes("a")).ok());

  // Link killed before the surrogate executes the put: the replay after
  // reconnect must run it (for the first time) — nothing is lost.
  edge_faults_.ArmConnectionKill(1,
                                 clf::FaultInjector::KillPoint::kBeforeExecute);
  ASSERT_TRUE(client->Put(*out, 1, Bytes("b")).ok());

  // Link killed after the execute but before the reply: the replay must
  // be answered from the surrogate's reply cache — nothing runs twice.
  edge_faults_.ArmConnectionKill(1,
                                 clf::FaultInjector::KillPoint::kAfterExecute);
  ASSERT_TRUE(client->Put(*out, 2, Bytes("c")).ok());

  EXPECT_EQ(client->reconnects(), 2u);
  EXPECT_GE(client->replays(), 2u);
  EXPECT_EQ(edge_faults_.connections_killed(), 2u);
  EXPECT_EQ(listener_->sessions_resumed(), 2u);
  EXPECT_EQ(listener_->sessions_migrated(), 0u);
  EXPECT_EQ(listener_->surrogates_total(), 1u);

  // Every acked put is in the queue exactly once, in order.
  for (std::string_view want : {"a", "b", "c"}) {
    auto item = client->Get(*in, Deadline::AfterMillis(5000));
    ASSERT_TRUE(item.ok()) << item.status();
    EXPECT_EQ(item->payload.ToString(), want);
  }
  EXPECT_EQ(client->Get(*in, Deadline::AfterMillis(100)).status().code(),
            StatusCode::kTimeout);
}

TEST_F(ResilienceTest, FailoverToLiveAddressSpaceOnHostDeath) {
  Start();
  // Containers owned by AS 0 so they survive AS 1 (the session's host)
  // dying mid-stream.
  auto q = rt_->as(0).CreateQueue();
  ASSERT_TRUE(q.ok()) << q.status();

  auto client = JoinC(/*preferred_as=*/1);
  ASSERT_EQ(AsIndex(client->host_as()), 1u);
  auto out = client->Connect(*q, ConnMode::kOutput);
  auto in = client->Connect(*q, ConnMode::kInput);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(in.ok()) << in.status();

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        client->Put(*out, i, Bytes("item-" + std::to_string(i))).ok());
  }

  rt_->as(1).Shutdown();
  const TimePoint cut = Now();
  for (int i = 5; i < 10; ++i) {
    Status s = client->Put(*out, i, Bytes("item-" + std::to_string(i)));
    ASSERT_TRUE(s.ok()) << "put " << i << ": " << s;
  }
  // The put that spanned the death paid for detection + failover; the
  // documented bound is 2x the peer timeout.
  EXPECT_LT(Now() - cut, 2 * kPeerTimeout);

  EXPECT_EQ(AsIndex(client->host_as()), 0u) << "session must have migrated";
  EXPECT_EQ(client->reconnects(), 1u);
  EXPECT_EQ(listener_->sessions_migrated(), 1u);

  // Zero acked ops lost, zero duplicated, order preserved — across the
  // migration and the replayed in-flight call.
  for (int i = 0; i < 10; ++i) {
    auto item = client->Get(*in, Deadline::AfterMillis(5000));
    ASSERT_TRUE(item.ok()) << item.status();
    EXPECT_EQ(item->payload.ToString(), "item-" + std::to_string(i));
  }
  EXPECT_EQ(client->Get(*in, Deadline::AfterMillis(100)).status().code(),
            StatusCode::kTimeout);
}

// After a failover the device's handles still carry the slots its
// first surrogate got; the migrated surrogate must remap every op that
// addresses one, not only Put/Get on a queue. The old slots are
// detached by the owner's recovery, so an op that missed the remap
// would fail, and a Detach that missed it would leave the new
// attachment pinning items against GC.
TEST_F(ResilienceTest, ChannelOpsLandOnRemappedSlotsAfterFailover) {
  Start();
  auto ch = rt_->as(0).CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();
  // An owner-side reader that consumes everything, so whether an item
  // is reclaimed rests on the device's input connection alone.
  auto keeper = rt_->as(0).Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(keeper.ok()) << keeper.status();

  auto client = JoinC(/*preferred_as=*/1);
  ASSERT_EQ(AsIndex(client->host_as()), 1u);
  auto out = client->Connect(*ch, ConnMode::kOutput);
  auto in = client->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(in.ok()) << in.status();
  ASSERT_TRUE(client->Put(*out, 0, Bytes("t0")).ok());

  rt_->as(1).Shutdown();
  for (Timestamp ts = 1; ts < 8; ++ts) {
    Status s = client->Put(*out, ts, Bytes("t" + std::to_string(ts)));
    ASSERT_TRUE(s.ok()) << "put " << ts << ": " << s;
  }
  ASSERT_EQ(AsIndex(client->host_as()), 0u) << "session must have migrated";
  ASSERT_EQ(listener_->sessions_migrated(), 1u);
  // The owner's recovery detaches the dead host's connections: the
  // slots the device's handles carry.
  const auto dead_host = static_cast<AsId>(1);
  for (int i = 0; i < 300 && !rt_->as(0).IsPeerDown(dead_host); ++i) {
    std::this_thread::sleep_for(Millis(10));
  }
  ASSERT_TRUE(rt_->as(0).IsPeerDown(dead_host));

  // SetFilter and Get: the connection now sees even timestamps only.
  core::ItemFilter evens;
  evens.stride = 2;
  ASSERT_TRUE(client->SetFilter(*in, evens).ok());
  auto first = client->Get(*in, GetSpec::Oldest(), Deadline::AfterMillis(2000));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->timestamp, 0);
  auto next =
      client->Get(*in, GetSpec::NextAfter(0), Deadline::AfterMillis(2000));
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->timestamp, 2) << "filter missed the slot Get reads";

  // Consume: once the keeper has consumed everything, only the device's
  // unconsumed even items (4, 6) remain.
  ASSERT_TRUE(client->Consume(*in, 0).ok());
  ASSERT_TRUE(client->Consume(*in, 2).ok());
  ASSERT_TRUE(rt_->as(0).ConsumeUntil(*keeper, 7).ok());
  auto channel = rt_->as(0).FindChannel(ch->bits());
  ASSERT_NE(channel, nullptr);
  EXPECT_EQ(channel->live_items(), 2u);

  // Detach: the device's claim on 4 and 6 goes with it and GC reclaims.
  ASSERT_TRUE(client->Disconnect(*in).ok());
  for (int i = 0; i < 200 && channel->live_items() != 0; ++i) {
    std::this_thread::sleep_for(Millis(10));
  }
  EXPECT_EQ(channel->live_items(), 0u);
}

// A device driven by raw frames. A CClient resumes as soon as its link
// drops, so its host is still alive when it replays; this one resumes
// only when the test says so.
class RawDevice {
 public:
  // Connects and says Hello; the listener hosts the session on
  // `preferred_as`.
  Status Join(const transport::SockAddr& listener, std::int32_t preferred_as) {
    listener_ = listener;
    DS_ASSIGN_OR_RETURN(conn_, transport::TcpConnection::Connect(listener_));
    marshal::XdrEncoder enc;
    core::EncodeRequestHeader(enc, static_cast<core::Op>(ClientOp::kHello),
                              ++ticket_);
    HelloReq{kClientKindC, "raw-device", preferred_as}.Encode(enc);
    DS_ASSIGN_OR_RETURN(Buffer reply, RoundTrip(enc.Take()));
    marshal::XdrDecoder dec(reply);
    DS_RETURN_IF_ERROR(Body(dec));
    DS_RETURN_IF_ERROR(dec.GetU32().status());  // host AS
    DS_ASSIGN_OR_RETURN(session_id_, dec.GetU64());
    return OkStatus();
  }

  // The frame of the next tracked call (takes the next ticket).
  Buffer Frame(core::Op op, const core::RequestBody& body) {
    marshal::XdrEncoder enc;
    core::EncodeRequestHeader(enc, op, ++ticket_);
    core::EncodeRequestBody(enc, body);
    return enc.Take();
  }
  Result<Buffer> Call(core::Op op, const core::RequestBody& body) {
    return RoundTrip(Frame(op, body));
  }
  Result<Buffer> RoundTrip(const Buffer& frame) {
    DS_RETURN_IF_ERROR(conn_.SendFrame(frame));
    Buffer reply;
    DS_RETURN_IF_ERROR(conn_.RecvFrame(reply, Deadline::AfterMillis(5000)));
    return reply;
  }

  // Reconnects and resumes the session wherever the listener puts it.
  Status Resume() {
    DS_ASSIGN_OR_RETURN(conn_, transport::TcpConnection::Connect(listener_));
    marshal::XdrEncoder enc;
    core::EncodeRequestHeader(enc, static_cast<core::Op>(ClientOp::kResume),
                              ++ticket_);
    ResumeReq{kClientKindC, session_id_, -1}.Encode(enc);
    DS_ASSIGN_OR_RETURN(Buffer reply, RoundTrip(enc.Take()));
    marshal::XdrDecoder dec(reply);
    return Body(dec);
  }

  // Reads a reply's header: its status, or the decode error.
  static Status Body(marshal::XdrDecoder& dec) {
    DS_ASSIGN_OR_RETURN(core::ResponseHeader hdr,
                        core::DecodeResponseHeader(dec));
    return hdr.status;
  }

  std::uint64_t session_id() const { return session_id_; }

 private:
  transport::SockAddr listener_;
  transport::TcpConnection conn_;
  std::uint64_t ticket_ = 0;
  std::uint64_t session_id_ = 0;
};

// The call whose reply is lost executes on the session's host, AS 1,
// against containers on AS 0; AS 1 dies before the device resumes. The
// replay must be answered with the original reply by the containers'
// owner, not run a second time. A ledger of every queue item put and
// delivered checks that each is delivered exactly once, also in the
// row where the reply of a destructive read arrives and only then the
// host dies: the owner's host-death recovery (which detaches the dead
// host's connections and requeues their unconsumed items) must not
// deliver that item again. In the last row the read is still parked
// on the empty queue when the host dies, and the replay reaches the
// owner before the owner has noticed: the replay must take the
// original's place, not queue up behind it.
TEST_F(ResilienceTest, ReplyLostAndHostDiedReplayIsAnsweredNotRerun) {
  enum class Call { kAttach, kPut, kGet, kGetDelivered, kGetParked };
  const struct {
    const char* name;
    Call call;
  } kRows[] = {
      {"attach to a channel", Call::kAttach},
      {"put to a queue", Call::kPut},
      {"destructive get from a queue", Call::kGet},
      {"destructive get delivered, then the host dies", Call::kGetDelivered},
      {"destructive get parked when the host dies", Call::kGetParked},
  };
  for (const auto& row : kRows) {
    SCOPED_TRACE(row.name);
    Start();
    core::AddressSpace& owner = rt_->as(0);
    // Set once AS 0 has run its recovery for the dead host, detaches
    // included (observers fire last).
    auto recovered = std::make_shared<std::atomic<bool>>(false);
    owner.AddPeerDownObserver([recovered](AsId) { recovered->store(true); });
    auto ch = owner.CreateChannel();
    auto q = owner.CreateQueue();
    ASSERT_TRUE(ch.ok() && q.ok());
    auto feed = owner.Connect(*q, ConnMode::kOutput);
    ASSERT_TRUE(feed.ok()) << feed.status();
    std::vector<std::string> put = {"q1", "q2"};
    if (row.call == Call::kGetParked) put.clear();  // the queue starts empty
    std::map<std::string, int> delivered;
    for (std::size_t i = 0; i < put.size(); ++i) {
      ASSERT_TRUE(owner.Put(*feed, static_cast<Timestamp>(i + 1), Bytes(put[i]))
                      .ok());
    }

    RawDevice device;
    ASSERT_TRUE(device.Join(listener_->addr(), /*preferred_as=*/1).ok());
    // Attach replies carry the slot the device's handle keeps.
    auto attach = [&](const core::AttachReq& req) -> Result<std::uint32_t> {
      DS_ASSIGN_OR_RETURN(Buffer reply, device.Call(core::Op::kAttach, req));
      marshal::XdrDecoder dec(reply);
      DS_RETURN_IF_ERROR(RawDevice::Body(dec));
      return dec.GetU32();
    };
    auto q_out = attach({q->bits(), true, ConnMode::kOutput, "out"});
    auto q_in = attach({q->bits(), true, ConnMode::kInput, "in"});
    ASSERT_TRUE(q_out.ok() && q_in.ok());
    const core::GetReq get{q->bits(), true, ConnMode::kInput, *q_in,
                           GetSpec::Oldest(), 5000};
    // Reads a Get reply's item into the ledger.
    auto deliver = [&](const Buffer& reply) {
      marshal::XdrDecoder dec(reply);
      ASSERT_TRUE(RawDevice::Body(dec).ok());
      ASSERT_TRUE(dec.GetI64().ok());
      auto payload = dec.GetOpaque();
      ASSERT_TRUE(payload.ok());
      ++delivered[std::string(payload->begin(), payload->end())];
    };

    Buffer frame;
    switch (row.call) {
      case Call::kAttach:
        frame = device.Frame(core::Op::kAttach,
                             core::AttachReq{ch->bits(), false,
                                             ConnMode::kInput, "ch-in"});
        break;
      case Call::kPut:
        put.push_back("p3");
        frame = device.Frame(core::Op::kPut,
                             core::PutReq{q->bits(), true, ConnMode::kOutput,
                                          *q_out, 3, 5000, Bytes("p3")});
        break;
      case Call::kGet:
      case Call::kGetDelivered:
      case Call::kGetParked:
        frame = device.Frame(core::Op::kGet, get);
        break;
    }
    const std::uint64_t replays_before =
        owner.metrics_registry().GetCounter("stm.session_replays").Value();
    if (row.call == Call::kGetDelivered) {
      auto reply = device.RoundTrip(frame);
      ASSERT_TRUE(reply.ok()) << reply.status();
      deliver(*reply);
      rt_->as(1).Shutdown();
    } else if (row.call == Call::kGetParked) {
      // The read parks on AS 0; the host dies under it.
      std::thread killer([&] {
        std::this_thread::sleep_for(Millis(200));
        rt_->as(1).Shutdown();
      });
      ASSERT_FALSE(device.RoundTrip(frame).ok());
      killer.join();
    } else {
      // The call executes; its reply is lost with the link. Only then
      // does the host die, and only then does the device resume.
      edge_faults_.ArmConnectionKill(
          1, clf::FaultInjector::KillPoint::kAfterExecute);
      ASSERT_FALSE(device.RoundTrip(frame).ok());
      rt_->as(1).Shutdown();
    }
    ASSERT_TRUE(device.Resume().ok());
    ASSERT_EQ(listener_->sessions_migrated(), 1u);

    if (row.call == Call::kGetParked) {
      // Resumed well inside the peer timeout, so the original still
      // waits on AS 0 for the dead host. The item arrives after the
      // replay: it must reach the device.
      put.push_back("q1");
      std::thread feeder([&] {
        std::this_thread::sleep_for(Millis(200));
        ASSERT_TRUE(owner.Put(*feed, 1, Bytes("q1")).ok());
      });
      auto replay = device.RoundTrip(frame);
      feeder.join();
      ASSERT_TRUE(replay.ok()) << replay.status();
      deliver(*replay);
    }
    for (int i = 0; i < 300 && !recovered->load(); ++i) {
      std::this_thread::sleep_for(Millis(10));
    }
    ASSERT_TRUE(recovered->load()) << "AS 0 never declared AS 1 dead";

    if (row.call != Call::kGetDelivered && row.call != Call::kGetParked) {
      auto replay = device.RoundTrip(frame);
      ASSERT_TRUE(replay.ok()) << replay.status();
      marshal::XdrDecoder dec(*replay);
      ASSERT_TRUE(RawDevice::Body(dec).ok());
      // The owner answered the replay from the session's reply slot.
      EXPECT_EQ(
          owner.metrics_registry().GetCounter("stm.session_replays").Value(),
          replays_before + 1)
          << "the replay ran the call again";
      if (row.call == Call::kGet) deliver(*replay);
      if (row.call == Call::kAttach) {
        // The original reply: the slot the session record holds for
        // the attachment.
        auto slot = dec.GetU32();
        ASSERT_TRUE(slot.ok());
        auto record = owner.SessionGet(device.session_id());
        ASSERT_TRUE(record.ok()) << record.status();
        const auto recorded = std::find_if(
            record->attachments.begin(), record->attachments.end(),
            [&](const core::SessionAttachment& a) {
              return a.container_bits == ch->bits();
            });
        ASSERT_NE(recorded, record->attachments.end());
        EXPECT_EQ(*slot, recorded->slot);
        auto detached = device.Call(
            core::Op::kDetach, core::DetachReq{ch->bits(), false, *slot});
        ASSERT_TRUE(detached.ok()) << detached.status();
        // AS 0 has detached the dead host's connections, so nothing
        // may still be attached to the channel for the device.
        auto channel = owner.FindChannel(ch->bits());
        ASSERT_NE(channel, nullptr);
        EXPECT_EQ(channel->input_connections(), 0u);
      }
    }
    if (row.call == Call::kGet || row.call == Call::kGetDelivered) {
      // The next Get returns the next item.
      auto next = device.Call(core::Op::kGet, get);
      ASSERT_TRUE(next.ok()) << next.status();
      deliver(*next);
      EXPECT_EQ(delivered["q1"], 1);
      EXPECT_EQ(delivered["q2"], 1);
    }
    if (row.call == Call::kGetDelivered) {
      // Consumed on delivery: the device's explicit Consume finds
      // nothing left to acknowledge.
      auto consumed = device.Call(
          core::Op::kConsume,
          core::ConsumeReq{q->bits(), true, ConnMode::kInput, *q_in, 1, false});
      ASSERT_TRUE(consumed.ok()) << consumed.status();
      marshal::XdrDecoder dec(*consumed);
      EXPECT_EQ(RawDevice::Body(dec).code(), StatusCode::kNotFound);
    }

    // Drain the queue: every item put is delivered exactly once, and
    // the queue ends empty.
    auto drain = owner.Connect(*q, ConnMode::kInput);
    ASSERT_TRUE(drain.ok()) << drain.status();
    for (;;) {
      auto item = owner.Get(*drain, Deadline::AfterMillis(100));
      if (!item.ok()) {
        EXPECT_EQ(item.status().code(), StatusCode::kTimeout);
        break;
      }
      ++delivered[item->payload.ToString()];
    }
    for (const std::string& item : put) {
      EXPECT_EQ(delivered[item], 1) << item;
    }
    EXPECT_EQ(delivered.size(), put.size());
    TearDown();
    listener_.reset();
    rt_.reset();
  }
}

TEST_F(ResilienceTest, ResumeAfterMigrationAdoptsTheLiveSurrogate) {
  Start();
  auto q = rt_->as(0).CreateQueue();
  ASSERT_TRUE(q.ok()) << q.status();
  auto client = JoinC(/*preferred_as=*/1);
  auto out = client->Connect(*q, ConnMode::kOutput);
  auto in = client->Connect(*q, ConnMode::kInput);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(in.ok()) << in.status();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->Put(*out, i, Bytes("item-" + std::to_string(i))).ok());
  }

  // Host death migrates the session; the dead-host surrogate becomes a
  // superseded tombstone that stays in the listener's table.
  rt_->as(1).Shutdown();
  for (int i = 3; i < 6; ++i) {
    ASSERT_TRUE(client->Put(*out, i, Bytes("item-" + std::to_string(i))).ok());
  }
  ASSERT_EQ(listener_->sessions_migrated(), 1u);

  // Drop the TCP link to the *migrated* surrogate. The resume must
  // match the live surrogate past the tombstone and adopt it in place;
  // re-migrating through the tombstone would supersede the live
  // surrogate, whose eventual reap (on a live host) destroys the
  // session's registry record and reply slot.
  edge_faults_.ArmConnectionKill(1,
                                 clf::FaultInjector::KillPoint::kBeforeExecute);
  for (int i = 6; i < 9; ++i) {
    ASSERT_TRUE(client->Put(*out, i, Bytes("item-" + std::to_string(i))).ok());
  }
  EXPECT_EQ(listener_->sessions_migrated(), 1u)
      << "resume re-migrated through a superseded tombstone";
  EXPECT_EQ(listener_->sessions_resumed(), 1u);

  // A second drop: the once-resumed session must stay resumable.
  edge_faults_.ArmConnectionKill(1,
                                 clf::FaultInjector::KillPoint::kAfterExecute);
  for (int i = 9; i < 12; ++i) {
    ASSERT_TRUE(client->Put(*out, i, Bytes("item-" + std::to_string(i))).ok());
  }
  EXPECT_EQ(listener_->sessions_migrated(), 1u);
  EXPECT_EQ(listener_->sessions_resumed(), 2u);

  // Exactly-once across the migration and both resumes, in order.
  for (int i = 0; i < 12; ++i) {
    auto item = client->Get(*in, Deadline::AfterMillis(5000));
    ASSERT_TRUE(item.ok()) << item.status();
    EXPECT_EQ(item->payload.ToString(), "item-" + std::to_string(i));
  }
  EXPECT_EQ(client->Get(*in, Deadline::AfterMillis(100)).status().code(),
            StatusCode::kTimeout);

  // Reconnect churn spawned four surrogate activations but must not
  // accumulate their exited Run threads: the janitor joins them,
  // leaving only the live one.
  const TimePoint reap_give_up = Now() + Millis(5000);
  while (listener_->run_threads() > 1 && Now() < reap_give_up) {
    std::this_thread::sleep_for(Millis(10));
  }
  EXPECT_EQ(listener_->run_threads(), 1u);
}

TEST_F(ResilienceTest, GcNoticesSurviveFailover) {
  Start();
  auto ch = rt_->as(0).CreateChannel();
  ASSERT_TRUE(ch.ok());
  auto client = JoinC(/*preferred_as=*/1);

  std::atomic<int> reclaimed{0};
  ASSERT_TRUE(client
                  ->SetGcHandler(ch->bits(), /*is_queue=*/false,
                                 [&](const core::GcNotice&) { ++reclaimed; })
                  .ok());
  auto out = client->Connect(*ch, ConnMode::kOutput);
  auto in = client->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());

  rt_->as(1).Shutdown();

  // All of these replay/route through the migrated surrogate.
  ASSERT_TRUE(client->Put(*out, 1, Bytes("x")).ok());
  ASSERT_TRUE(client->Consume(*in, 1).ok());
  for (int i = 0; i < 100 && reclaimed.load() == 0; ++i) {
    std::this_thread::sleep_for(Millis(10));
    (void)client->NsList("");
  }
  EXPECT_EQ(reclaimed.load(), 1)
      << "the GC interest (and notice path) must survive migration";
  EXPECT_EQ(listener_->sessions_migrated(), 1u);
}

TEST_F(ResilienceTest, ReconnectGivesUpWhenClusterGone) {
  Start();
  CClient::Options opts;
  opts.server = listener_->addr();
  opts.reconnect.give_up_after = Millis(300);
  auto joined = CClient::Join(opts);
  ASSERT_TRUE(joined.ok()) << joined.status();
  auto client = std::move(joined).value();

  listener_->Shutdown();

  const TimePoint t0 = Now();
  auto s = client->NsList("");
  EXPECT_EQ(s.status().code(), StatusCode::kUnavailable) << s.status();
  EXPECT_GE(Now() - t0, Millis(300)) << "should have kept trying for a while";
  EXPECT_LT(Now() - t0, Millis(5000));
}

TEST_F(ResilienceTest, ResumeOfEndedOrUnknownSessionReportsNotFound) {
  Start();
  auto client = JoinC();
  const std::uint64_t ended_session = client->session_id();
  ASSERT_TRUE(client->Leave().ok());
  for (int i = 0;
       i < 100 && listener_->surrogates_in(Surrogate::State::kLeft) == 0;
       ++i) {
    std::this_thread::sleep_for(Millis(10));
  }

  auto try_resume = [&](std::uint64_t session_id) -> StatusCode {
    auto conn = transport::TcpConnection::Connect(listener_->addr());
    EXPECT_TRUE(conn.ok());
    if (!conn.ok()) return StatusCode::kInternal;
    marshal::XdrEncoder enc;
    core::EncodeRequestHeader(enc, static_cast<core::Op>(ClientOp::kResume),
                              77);
    ResumeReq req;
    req.client_kind = kClientKindC;
    req.session_id = session_id;
    req.preferred_as = -1;
    req.Encode(enc);
    EXPECT_TRUE(conn->SendFrame(enc.Take()).ok());
    Buffer reply;
    Status s = conn->RecvFrame(reply, Deadline::AfterMillis(5000));
    EXPECT_TRUE(s.ok()) << s;
    if (!s.ok()) return StatusCode::kInternal;
    marshal::XdrDecoder dec(reply);
    auto hdr = core::DecodeResponseHeader(dec);
    EXPECT_TRUE(hdr.ok());
    return hdr.ok() ? hdr->status.code() : StatusCode::kInternal;
  };

  // A cleanly-ended session is gone (surrogate kLeft, registry dropped).
  EXPECT_EQ(try_resume(ended_session), StatusCode::kNotFound);
  // A session id that never existed has no registry record either.
  EXPECT_EQ(try_resume(0xdeadbeefULL), StatusCode::kNotFound);
}

TEST_F(ResilienceTest, GcNoticeReentrancySurvivesTheDeadlockDetector) {
  // Regression for the Resume-reply deadlock fixed in the resilience
  // PR: GC notices arriving on a Resume reply are deferred until
  // client.mu is released, so a handler that re-enters the client must
  // not deadlock. Run the whole scenario with the runtime lock-order /
  // blocking-while-locked detector armed: a regression (dispatching
  // under the lock) shows up as a re-entrant-acquisition abort instead
  // of a silent hang.
  sync::SetDeadlockDetectionForTesting(true);
  struct DetectorOff {
    ~DetectorOff() { sync::SetDeadlockDetectionForTesting(false); }
  } detector_off;

  Start();
  auto client = JoinC();
  auto ch = client->CreateChannel();
  ASSERT_TRUE(ch.ok()) << ch.status();

  std::atomic<int> notices{0};
  std::atomic<int> reentered{0};
  CClient* raw = client.get();
  ASSERT_TRUE(client
                  ->SetGcHandler(ch->bits(), /*is_queue=*/false,
                                 [&, raw](const core::GcNotice&) {
                                   ++notices;
                                   // Re-enter the client mid-dispatch.
                                   if (raw->NsList("").ok()) ++reentered;
                                 })
                  .ok());
  auto out = client->Connect(*ch, ConnMode::kOutput);
  auto in = client->Connect(*ch, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(client->Put(*out, 1, Bytes("x")).ok());
  ASSERT_TRUE(client->Consume(*in, 1).ok());

  // Let the owner's GC sweep deliver the notice to the surrogate's
  // pending set while the client makes no calls, then kill the link:
  // the notice rides back on the Resume reply (the deferred-dispatch
  // path) rather than a normal call's trailer.
  std::this_thread::sleep_for(Millis(100));
  edge_faults_.ArmConnectionKill(1,
                                 clf::FaultInjector::KillPoint::kBeforeExecute);
  for (int i = 0; i < 100 && notices.load() == 0; ++i) {
    (void)client->NsList("");
    std::this_thread::sleep_for(Millis(10));
  }
  EXPECT_GE(notices.load(), 1);
  EXPECT_EQ(reentered.load(), notices.load());
  EXPECT_GE(client->reconnects(), 1u);
}

TEST_F(ResilienceTest, ResumeThroughADifferentListenerAfterListenerDeath) {
  // Two listeners over the same cluster. The session is created through
  // the first; killing that listener must not kill the session — the
  // client's reconnect tries its alternate server and the second
  // listener rehydrates the session from the shared registry, even
  // though it never saw this device before.
  Start();
  auto second = Listener::Start(*rt_, Listener::Options{});
  ASSERT_TRUE(second.ok()) << second.status();

  CClient::Options opts;
  opts.server = listener_->addr();
  opts.alternate_servers = {(*second)->addr()};
  auto joined = CClient::Join(opts);
  ASSERT_TRUE(joined.ok()) << joined.status();
  auto client = std::move(joined).value();

  auto q = client->CreateQueue();
  ASSERT_TRUE(q.ok()) << q.status();
  auto out = client->Connect(*q, ConnMode::kOutput);
  auto in = client->Connect(*q, ConnMode::kInput);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(in.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client->Put(*out, i, Bytes("item-" + std::to_string(i))).ok());
  }

  // Kill the listener that owns the session's surrogate. The cluster
  // (every address space) stays alive — only the front door dies.
  listener_->Shutdown();

  for (int i = 5; i < 10; ++i) {
    Status s = client->Put(*out, i, Bytes("item-" + std::to_string(i)));
    ASSERT_TRUE(s.ok()) << "put " << i << " after listener death: " << s;
  }
  EXPECT_GE(client->reconnects(), 1u);
  EXPECT_EQ((*second)->sessions_migrated(), 1u)
      << "the second listener must have rehydrated the session";

  // Exactly-once, in order, across the listener failover.
  for (int i = 0; i < 10; ++i) {
    auto item = client->Get(*in, Deadline::AfterMillis(5000));
    ASSERT_TRUE(item.ok()) << item.status();
    EXPECT_EQ(item->payload.ToString(), "item-" + std::to_string(i));
  }
  EXPECT_EQ(client->Get(*in, Deadline::AfterMillis(100)).status().code(),
            StatusCode::kTimeout);
  (*second)->Shutdown();
}

TEST_F(ResilienceTest, ListenerAdvertisesItselfInNameServer) {
  Start();
  auto client = JoinC();
  auto entries = client->NsList("sys/listener/");
  ASSERT_TRUE(entries.ok()) << entries.status();
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].id_bits, listener_->addr().port);
  // The full advertised address travels in the meta field, so failover
  // candidates need not assume loopback.
  auto advertised = transport::SockAddr::FromString((*entries)[0].meta);
  ASSERT_TRUE(advertised.ok()) << advertised.status();
  EXPECT_EQ(*advertised, listener_->addr());
}

}  // namespace
}  // namespace dstampede::client

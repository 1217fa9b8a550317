// Wire protocol: encode/decode round trips for every request type,
// response envelopes, deadline mapping, and robustness fuzzing —
// truncated or corrupted frames must come back as status errors, never
// crashes or hangs (a hostile or buggy peer cannot take down an
// address space).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "clf_inbox.hpp"
#include "dstampede/client/listener.hpp"
#include "dstampede/client/protocol.hpp"
#include "dstampede/core/runtime.hpp"
#include "dstampede/core/wire.hpp"
#include "dstampede/transport/tcp.hpp"

namespace dstampede::core {
namespace {

TEST(WireTest, RequestHeaderRoundTrip) {
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kPut, 0xDEADBEEFCAFEULL);
  marshal::XdrDecoder dec(enc.buffer());
  auto hdr = DecodeRequestHeader(dec);
  ASSERT_TRUE(hdr.ok());
  EXPECT_EQ(hdr->op, Op::kPut);
  EXPECT_EQ(hdr->request_id, 0xDEADBEEFCAFEULL);
}

// A surrogate's tag and a trace context ride one header together: the
// trace fields first, then the tag, with both op-word flags set. With
// neither, the header is the bare 12-byte [op][request_id].
TEST(WireTest, SessionTagAndTraceContextRoundTrip) {
  const trace::TraceContext ctx{0xABCD, 0x1234, trace::TraceContext::kSampled};
  const SessionTag tag{21, 7};
  marshal::XdrEncoder enc;
  {
    trace::ScopedContext tracing(ctx);
    SessionScope tagging(tag);
    EXPECT_EQ(CurrentSessionTag(), tag);
    EncodeRequestHeader(enc, Op::kGet, 42);
  }
  EXPECT_FALSE(CurrentSessionTag()) << "the scope must restore the tag";
  EXPECT_EQ(enc.size(), 12u + 20u + 16u);
  marshal::XdrDecoder word(enc.buffer());
  EXPECT_EQ(word.GetU32().value_or(0),
            static_cast<std::uint32_t>(Op::kGet) | kTraceFlag | kSessionFlag);
  marshal::XdrDecoder dec(enc.buffer());
  auto hdr = DecodeRequestHeader(dec);
  ASSERT_TRUE(hdr.ok()) << hdr.status();
  EXPECT_EQ(hdr->op, Op::kGet);
  EXPECT_EQ(hdr->request_id, 42u);
  EXPECT_EQ(hdr->trace.trace_id, ctx.trace_id);
  EXPECT_EQ(hdr->trace.span_id, ctx.span_id);
  EXPECT_TRUE(hdr->trace.sampled());
  EXPECT_EQ(hdr->session, tag);
  EXPECT_TRUE(dec.AtEnd());

  marshal::XdrEncoder plain;
  EncodeRequestHeader(plain, Op::kGet, 42);
  EXPECT_EQ(plain.size(), 12u);
  marshal::XdrDecoder plain_dec(plain.buffer());
  auto plain_hdr = DecodeRequestHeader(plain_dec);
  ASSERT_TRUE(plain_hdr.ok());
  EXPECT_FALSE(plain_hdr->session);
}

TEST(WireTest, ResponseHeaderCarriesStatus) {
  marshal::XdrEncoder enc;
  EncodeResponseHeader(enc, 77, TimeoutError("too slow"));
  marshal::XdrDecoder dec(enc.buffer());
  auto hdr = DecodeResponseHeader(dec);
  ASSERT_TRUE(hdr.ok());
  EXPECT_EQ(hdr->request_id, 77u);
  EXPECT_EQ(hdr->status.code(), StatusCode::kTimeout);
  EXPECT_EQ(hdr->status.message(), "too slow");
}

TEST(WireTest, NonReplyFrameRejectedAsResponse) {
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kGet, 1);
  marshal::XdrDecoder dec(enc.buffer());
  EXPECT_FALSE(DecodeResponseHeader(dec).ok());
}

TEST(WireTest, PutReqRoundTrip) {
  PutReq req;
  req.container_bits = 0x12345678ABCDEF00ULL;
  req.is_queue = true;
  req.mode = ConnMode::kInputOutput;
  req.slot = 99;
  req.ts = -5;
  req.deadline_ms = 1234;
  req.payload = {9, 8, 7};
  marshal::XdrEncoder enc;
  req.Encode(enc);
  marshal::XdrDecoder dec(enc.buffer());
  auto decoded = PutReq::Decode(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->container_bits, req.container_bits);
  EXPECT_TRUE(decoded->is_queue);
  EXPECT_EQ(decoded->mode, ConnMode::kInputOutput);
  EXPECT_EQ(decoded->slot, 99u);
  EXPECT_EQ(decoded->ts, -5);
  EXPECT_EQ(decoded->deadline_ms, 1234);
  EXPECT_EQ(decoded->payload, req.payload);
}

TEST(WireTest, GetReqRoundTrip) {
  GetReq req;
  req.container_bits = 42;
  req.mode = ConnMode::kInput;
  req.slot = 3;
  req.spec = GetSpec::NextAfter(17);
  req.deadline_ms = kDeadlineInfinite;
  marshal::XdrEncoder enc;
  req.Encode(enc);
  marshal::XdrDecoder dec(enc.buffer());
  auto decoded = GetReq::Decode(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->spec.kind, GetSpec::Kind::kNextAfter);
  EXPECT_EQ(decoded->spec.ts, 17);
  EXPECT_EQ(decoded->deadline_ms, kDeadlineInfinite);
}

TEST(WireTest, AttachReqRejectsBadMode) {
  marshal::XdrEncoder enc;
  enc.PutU64(1);
  enc.PutBool(false);
  enc.PutU32(99);  // invalid ConnMode
  enc.PutString("x");
  marshal::XdrDecoder dec(enc.buffer());
  EXPECT_FALSE(AttachReq::Decode(dec).ok());
}

TEST(WireTest, SetFilterReqRoundTrip) {
  SetFilterReq req;
  req.container_bits = 5;
  req.slot = 2;
  req.filter.stride = 4;
  req.filter.phase = 1;
  req.filter.ts_min = -10;
  req.filter.ts_max = 10;
  req.filter.min_bytes = 16;
  req.filter.max_bytes = 1024;
  marshal::XdrEncoder enc;
  req.Encode(enc);
  marshal::XdrDecoder dec(enc.buffer());
  auto decoded = SetFilterReq::Decode(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->filter.stride, 4);
  EXPECT_EQ(decoded->filter.phase, 1);
  EXPECT_EQ(decoded->filter.ts_min, -10);
  EXPECT_EQ(decoded->filter.max_bytes, 1024u);
}

TEST(WireTest, DeadlineMapping) {
  EXPECT_EQ(EncodeDeadline(Deadline::Infinite()), kDeadlineInfinite);
  EXPECT_EQ(EncodeDeadline(Deadline::Poll()), 0);
  const std::int64_t ms = EncodeDeadline(Deadline::AfterMillis(5000));
  EXPECT_GT(ms, 4000);
  EXPECT_LE(ms, 5000);
  EXPECT_TRUE(DecodeDeadline(kDeadlineInfinite).infinite());
  EXPECT_TRUE(DecodeDeadline(INT64_MAX).infinite());
  EXPECT_TRUE(DecodeDeadline(0).expired());
  EXPECT_FALSE(DecodeDeadline(10000).expired());
}

TEST(WireTest, GcNoticeRoundTrip) {
  GcNotice notice{0xABCDEF, true, -42, 190 * 1024};
  marshal::XdrEncoder enc;
  EncodeGcNotice(enc, notice);
  marshal::XdrDecoder dec(enc.buffer());
  auto decoded = DecodeGcNotice(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->container_bits, notice.container_bits);
  EXPECT_TRUE(decoded->is_queue);
  EXPECT_EQ(decoded->timestamp, -42);
  EXPECT_EQ(decoded->payload_size, notice.payload_size);
}

// --- the decoded request ----------------------------------------------------

// One sample body per op. Every Op must appear: the round trip below
// is the codec's coverage of the whole op set.
std::vector<std::pair<Op, RequestBody>> SampleRequests() {
  SessionRecord session;
  session.session_id = 21;
  session.client_kind = 1;
  session.client_name = "camera";
  session.host_as = static_cast<AsId>(2);
  session.attachments = {{0xC0FFEE, true, 3, 7, "in"}};
  session.gc_interests = {{0xC0FFEE, true}};
  session.registered_names = {"cam/0", "cam/1"};
  session.reply_ticket = 39;
  ItemFilter filter;
  filter.stride = 3;
  filter.phase = 1;
  filter.ts_min = -8;
  filter.max_bytes = 4096;
  return {
      {Op::kCreateChannel, CreateReq{7, "frames"}},
      {Op::kCreateQueue, CreateReq{0, "jobs"}},
      {Op::kAttach, AttachReq{0x1234, true, ConnMode::kInputOutput, "lbl"}},
      {Op::kDetach, DetachReq{0x55, false, 9}},
      {Op::kPut, PutReq{0x66, true, ConnMode::kOutput, 3, -4, 250, {1, 2, 3}}},
      {Op::kGet, GetReq{0x77, false, ConnMode::kInput, 4,
                        GetSpec::NextAfter(17), kDeadlineInfinite}},
      {Op::kConsume, ConsumeReq{0x88, false, ConnMode::kInput, 5, 99, true}},
      {Op::kNsRegister, NsEntry{.name = "cam/0",
                                .kind = NsEntry::Kind::kQueue,
                                .id_bits = 0x99,
                                .meta = "frames",
                                .owner_as = static_cast<AsId>(2)}},
      {Op::kNsLookup, NsLookupReq{"cam/0", 1500}},
      {Op::kNsUnregister, NsLookupReq{"cam/1", 0}},
      {Op::kNsList, NsLookupReq{"cam/", 0}},
      {Op::kSetFilter, SetFilterReq{0xAA, 6, filter}},
      {Op::kSessionPut, session},
      {Op::kSessionGet, SessionIdReq{11}},
      {Op::kSessionDrop, SessionIdReq{12}},
      {Op::kSessionEnd, SessionIdReq{13}},
      {Op::kMetrics, MetricsReq{3}},
      {Op::kRepAppend, RepAppendReq{5, 1, 10, 9, {{1}, {2, 3}}}},
      {Op::kRepFetch, RepFetchReq{4}},
  };
}

TEST(WireTest, EveryOpRoundTripsThroughRequest) {
  const auto samples = SampleRequests();
  for (std::uint32_t op = 1; op <= static_cast<std::uint32_t>(Op::kRepFetch);
       ++op) {
    const bool covered =
        std::any_of(samples.begin(), samples.end(),
                    [op](const auto& s) { return s.first == Op(op); });
    EXPECT_TRUE(covered) << "no sample for op " << op;
  }
  std::uint64_t id = 100;
  for (const auto& [op, body] : samples) {
    marshal::XdrEncoder enc;
    EncodeRequestHeader(enc, op, ++id);
    EncodeRequestBody(enc, body);
    auto decoded = DecodeRequest(enc.buffer());
    ASSERT_TRUE(decoded.ok()) << "op " << static_cast<int>(op) << ": "
                              << decoded.status();
    EXPECT_EQ(decoded->header.op, op);
    EXPECT_EQ(decoded->header.request_id, id);
    EXPECT_TRUE(decoded->body == body) << "op " << static_cast<int>(op);
  }
}

TEST(WireTest, UnknownOpIsRejectedByTheDecoder) {
  for (std::uint32_t op : {0u, 20u, static_cast<std::uint32_t>(Op::kReply)}) {
    marshal::XdrEncoder enc;
    EncodeRequestHeader(enc, static_cast<Op>(op), 1);
    enc.PutU64(0);
    EXPECT_FALSE(DecodeRequest(enc.buffer()).ok()) << "op " << op;
  }
}

// A kPut frame whose header decodes but whose body stops after the
// container bits, and the status decoding that body yields.
std::pair<Buffer, Status> TruncatedPut(std::uint64_t request_id) {
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kPut, request_id);
  enc.PutU64(0x1234);
  Buffer frame = enc.Take();
  marshal::XdrDecoder body(std::span<const std::uint8_t>(frame).subspan(12));
  Status error = DecodeRequestBody(Op::kPut, body).status();
  return {std::move(frame), std::move(error)};
}

TEST(WireTest, UndecodableBodyIsAnsweredOverClf) {
  Runtime::Options opts;
  opts.num_address_spaces = 1;
  auto rt = Runtime::Create(opts);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto peer = clf::MakeInboxEndpoint();
  ASSERT_TRUE(peer.ok()) << peer.status();

  auto [frame, error] = TruncatedPut(42);
  ASSERT_FALSE(error.ok());
  ASSERT_TRUE((*peer)->Send((*rt)->as(0).clf_addr(), frame).ok());
  Buffer reply;
  transport::SockAddr from;
  ASSERT_TRUE(peer->Recv(reply, from, Deadline::AfterMillis(5000)).ok());
  EXPECT_EQ(reply, EncodeStatusReply(42, error));
  (*peer)->Shutdown();
}

TEST(WireTest, UndecodableBodyIsAnsweredBySurrogateWithoutParking) {
  Runtime::Options opts;
  opts.num_address_spaces = 1;
  auto rt = Runtime::Create(opts);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto listener = client::Listener::Start(**rt);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto conn = transport::TcpConnection::Connect((*listener)->addr());
  ASSERT_TRUE(conn.ok()) << conn.status();

  // Round trip: the reply header of whatever the surrogate answers.
  auto call = [&](const Buffer& frame) -> Result<ResponseHeader> {
    DS_RETURN_IF_ERROR(conn->SendFrame(frame));
    Buffer reply;
    DS_RETURN_IF_ERROR(conn->RecvFrame(reply, Deadline::AfterMillis(5000)));
    marshal::XdrDecoder dec(reply);
    return DecodeResponseHeader(dec);
  };
  marshal::XdrEncoder hello;
  EncodeRequestHeader(hello, static_cast<Op>(client::ClientOp::kHello), 1);
  client::HelloReq{}.Encode(hello);
  auto joined = call(hello.Take());
  ASSERT_TRUE(joined.ok()) << joined.status();
  ASSERT_TRUE(joined->status.ok()) << joined->status;

  auto [frame, error] = TruncatedPut(2);
  auto bad = call(frame);
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_EQ(bad->request_id, 2u);
  EXPECT_EQ(bad->status.code(), error.code());
  EXPECT_EQ(bad->status.message(), error.message());

  // The session carries on over the same connection.
  marshal::XdrEncoder list;
  EncodeRequestHeader(list, Op::kNsList, 3);
  NsLookupReq{"sys/"}.Encode(list);
  auto next = call(list.Take());
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->request_id, 3u);
  EXPECT_TRUE(next->status.ok()) << next->status;
  EXPECT_EQ((*listener)->surrogates_in(client::Surrogate::State::kParked), 0u);
  EXPECT_EQ((*listener)->surrogates_in(client::Surrogate::State::kActive), 1u);
  (*listener)->Shutdown();
}

// --- fuzzing the request decoder and executor ------------------------------
//
// Decode-then-Execute is the path every request an end device sends
// takes through its surrogate. Feed it truncations, bit flips and
// random bytes: the contract is "status reply or rejected decode",
// never a crash.

class WireFuzzTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WireFuzzTest, TruncatedAndCorruptedRequestsAreHandled) {
  std::mt19937_64 rng(GetParam());
  Runtime::Options opts;
  opts.num_address_spaces = 1;
  auto rt = Runtime::Create(opts);
  ASSERT_TRUE(rt.ok());
  AddressSpace& as = (*rt)->as(0);
  auto ch = as.CreateChannel();
  ASSERT_TRUE(ch.ok());

  // A valid put request to mutate.
  PutReq req;
  req.container_bits = ch->bits();
  req.mode = ConnMode::kOutput;
  req.ts = 1;
  req.deadline_ms = 0;
  req.payload = Buffer(64, 0x5A);
  marshal::XdrEncoder enc;
  EncodeRequestHeader(enc, Op::kPut, 1);
  req.Encode(enc);
  const Buffer valid = enc.Take();

  // Every frame is decoded. A mutated frame can legitimately decode
  // into a *blocking* op (a get or a blocking name lookup) with an
  // arbitrary deadline; those semantics are tested elsewhere, so the
  // fuzz executes everything else — it targets decode robustness,
  // which must never crash or mis-frame.
  auto execute_checked = [&](const Buffer& frame) {
    auto request = DecodeRequest(frame);
    if (!request.ok()) return;  // rejected decode
    if (request->header.op == Op::kGet || request->header.op == Op::kNsLookup) {
      return;
    }
    Buffer reply = as.Execute(*request);
    marshal::XdrDecoder dec(reply);
    auto hdr = DecodeResponseHeader(dec);
    ASSERT_TRUE(hdr.ok()) << hdr.status();
    EXPECT_EQ(hdr->request_id, request->header.request_id);
  };

  // Every truncation length.
  for (std::size_t len = 0; len <= valid.size(); ++len) {
    execute_checked(Buffer(valid.begin(), valid.begin() + static_cast<long>(len)));
  }
  // Random bit flips.
  for (int round = 0; round < 200; ++round) {
    Buffer mutated = valid;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    execute_checked(mutated);
  }
  // Pure noise.
  for (int round = 0; round < 100; ++round) {
    Buffer noise(rng() % 256);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
    execute_checked(noise);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Range(0u, 5u));

}  // namespace
}  // namespace dstampede::core

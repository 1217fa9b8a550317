#include "dstampede/client/surrogate.hpp"

#include <algorithm>
#include <variant>

#include "dstampede/common/logging.hpp"

namespace dstampede::client {

namespace {

// Rewrites the slot a device request addresses through the
// post-migration remap table. The device's handles keep the slots its
// original surrogate issued; only ops that carry a slot are affected.
void RemapSlot(const std::vector<SlotRemap>& remaps, core::RequestBody& body) {
  if (remaps.empty()) return;
  std::visit(
      [&remaps](auto& req) {
        if constexpr (requires { req.slot; }) {
          bool is_queue = false;  // SetFilterReq: channels only
          if constexpr (requires { req.is_queue; }) is_queue = req.is_queue;
          for (const SlotRemap& r : remaps) {
            if (r.container_bits == req.container_bits &&
                r.is_queue == is_queue && r.old_slot == req.slot) {
              req.slot = r.new_slot;
              return;
            }
          }
        }
      },
      body);
}

using core::Share;

}  // namespace

Surrogate::Surrogate(std::uint64_t session_id, core::AddressSpace& host,
                     transport::TcpConnection conn,
                     clf::FaultInjector* edge_faults)
    : session_id_(session_id),
      host_(host),
      conn_(std::move(conn)),
      edge_faults_(edge_faults) {
  m_calls_ = &host_.metrics_registry().GetCounter("surrogate.calls");
  gc_sink_token_ = host_.gc().AddSink(
      [this](const std::vector<core::GcNotice>& batch) {
        ds::MutexLock lock(gc_mu_);
        for (const auto& notice : batch) {
          if (gc_interest_.count(notice.container_bits) == 0) continue;
          if (gc_pending_.size() >= kMaxPendingNotices) gc_pending_.pop_front();
          gc_pending_.push_back(notice);
        }
      });
}

Surrogate::~Surrogate() { host_.gc().RemoveSink(gc_sink_token_); }

Buffer Surrogate::TakeNoticeTrailer() {
  std::vector<core::GcNotice> drained;
  {
    ds::MutexLock lock(gc_mu_);
    drained.assign(gc_pending_.begin(), gc_pending_.end());
    gc_pending_.clear();
  }
  marshal::XdrEncoder enc;
  EncodeNoticeTrailer(enc, drained);
  notices_forwarded_.fetch_add(drained.size(), std::memory_order_relaxed);
  return enc.Take();
}

Buffer Surrogate::HandleHello(std::uint64_t request_id,
                              marshal::XdrDecoder& body) {
  auto req = HelloReq::Decode(body);
  if (!req.ok()) return core::EncodeStatusReply(request_id, req.status());
  client_name_ = req->name;
  client_kind_ = req->client_kind;
  marshal::XdrEncoder enc;
  core::EncodeResponseHeader(enc, request_id, OkStatus());
  enc.PutU32(AsIndex(host_.id()));
  enc.PutU64(session_id_);
  return enc.Take();
}

Buffer Surrogate::ResumeReply(std::uint64_t request_id) {
  marshal::XdrEncoder enc;
  core::EncodeResponseHeader(enc, request_id, OkStatus());
  ResumeResp resp;
  resp.host_as = AsIndex(host_.id());
  resp.session_id = session_id_;
  {
    ds::MutexLock lock(session_mu_);
    resp.remaps = slot_remaps_;
  }
  EncodeResumeResp(enc, resp);
  return enc.Take();
}

Surrogate::SharedReply Surrogate::HandleFrame(
    std::span<const std::uint8_t> frame, bool& bye, bool& kill_conn) {
  marshal::XdrDecoder dec(frame);
  auto hdr = core::DecodeRequestHeader(dec);
  if (!hdr.ok()) return nullptr;
  const std::uint64_t ticket = hdr->request_id;

  switch (static_cast<ClientOp>(hdr->op)) {
    case ClientOp::kHello:
      return Share(HandleHello(ticket, dec));
    case ClientOp::kBye:
      bye = true;
      return Share(core::EncodeStatusReply(ticket, OkStatus()));
    case ClientOp::kSetGcInterest: {
      // Idempotent, so a replay simply runs it again.
      auto req = SetGcInterestReq::Decode(dec);
      if (!req.ok()) {
        return Share(core::EncodeStatusReply(ticket, req.status()));
      }
      {
        ds::MutexLock lock(gc_mu_);
        if (req->enable) {
          gc_interest_[req->container_bits] = req->is_queue;
        } else {
          gc_interest_.erase(req->container_bits);
        }
      }
      MirrorSession();
      return Share(core::EncodeStatusReply(ticket, OkStatus()));
    }
    case ClientOp::kResume:
      // A Resume mid-stream (the listener normally services it during
      // the handshake): answer it in place.
      return Share(ResumeReply(ticket));
    default:
      break;
  }

  // An STM op, carried out against the cluster on the device's behalf.
  // Its body is decoded here, once; everything below reads the struct.
  // An undecodable body is answered with the decode error, like any
  // other failed op, and has no effect.
  auto body = core::DecodeRequestBody(hdr->op, dec);
  if (!body.ok()) return Share(core::EncodeStatusReply(ticket, body.status()));
  core::Request request{*hdr, std::move(*body)};
  {
    ds::MutexLock lock(session_mu_);
    RemapSlot(slot_remaps_, request.body);
  }
  // A call the device re-sends after a dropped connection must not run
  // twice: a tracked call carries the session's tag to wherever its
  // effect applies, and that space answers a replay from its slot.
  request.header.session =
      ticket != 0 ? core::SessionTag{session_id_, ticket} : core::SessionTag{};
  m_calls_->Add();

  if (edge_faults_ && edge_faults_->TakeConnectionKill(
                          clf::FaultInjector::KillPoint::kBeforeExecute)) {
    kill_conn = true;  // drop the link before the op runs
    return nullptr;
  }

  // Tracing: adopt the device's wire span as "client.call" (the client
  // call as observed cluster-side) and execute under a child
  // "surrogate.dispatch" span. Both install themselves as the thread's
  // current context, so every RPC the execution fans out carries the
  // context onward. No-ops when the frame carried no sampled context.
  trace::ScopedSpan client_call(&host_.span_sink(), "client.call", hdr->trace,
                                /*adopt_span_id=*/true);
  SharedReply reply;
  {
    trace::ScopedSpan dispatch(&host_.span_sink(), "surrogate.dispatch");
    reply = host_.ExecuteShared(request);
  }
  marshal::XdrDecoder reply_dec(*reply);
  auto reply_hdr = core::DecodeResponseHeader(reply_dec);
  const bool executed = reply_hdr.ok() && reply_hdr->status.ok();

  // A stopping host answers everything kCancelled; park instead so the
  // device sees a dead link and fails over to a live address space.
  // Exception: if the op demonstrably executed (an OK reply raced the
  // shutdown), deliver the ack — discarding it would make the device
  // replay an op whose remote effect is already durable.
  if (host_.stopped() && !executed) {
    kill_conn = true;
    return nullptr;
  }

  // The full record is mirrored when the session state changed.
  bool record_changed = false;
  if (executed) {
    ds::MutexLock lock(session_mu_);
    record_changed = TrackSessionStateLocked(request, reply_dec);
  }
  if (record_changed) MirrorSession();

  if (edge_faults_ && edge_faults_->TakeConnectionKill(
                          clf::FaultInjector::KillPoint::kAfterExecute)) {
    kill_conn = true;  // executed, but the reply never reaches the device
    return nullptr;
  }
  return reply;
}

bool Surrogate::TrackSessionStateLocked(const core::Request& request,
                                        marshal::XdrDecoder reply_body) {
  switch (request.header.op) {
    case core::Op::kAttach: {
      const auto& req = std::get<core::AttachReq>(request.body);
      auto slot = reply_body.GetU32();
      if (!slot.ok()) return false;
      // A replay answered from the owner's slot returns the attachment
      // this session already holds.
      for (const Attachment& a : attachments_) {
        if (a.container_bits == req.container_bits &&
            a.is_queue == req.is_queue && a.device_slot == *slot) {
          return false;
        }
      }
      attachments_.push_back(Attachment{req.container_bits, req.is_queue,
                                        *slot, *slot,
                                        static_cast<std::uint8_t>(req.mode),
                                        req.label});
      return true;
    }
    case core::Op::kDetach: {
      const auto& req = std::get<core::DetachReq>(request.body);
      std::erase_if(attachments_, [&](const Attachment& a) {
        return a.container_bits == req.container_bits &&
               a.is_queue == req.is_queue && a.slot == req.slot;
      });
      return true;
    }
    case core::Op::kNsRegister: {
      const std::string& name = std::get<core::NsEntry>(request.body).name;
      std::erase(registered_names_, name);  // a replay adds no second copy
      registered_names_.push_back(name);
      return true;
    }
    case core::Op::kNsUnregister:
      std::erase(registered_names_,
                 std::get<core::NsLookupReq>(request.body).name);
      return true;
    default:
      return false;  // no session state to track
  }
}

core::SessionRecord Surrogate::SnapshotRecord() {
  core::SessionRecord record;
  record.session_id = session_id_;
  record.client_kind = client_kind_;
  record.client_name = client_name_;
  record.host_as = host_.id();
  {
    ds::MutexLock lock(session_mu_);
    record.attachments.reserve(attachments_.size());
    for (const Attachment& a : attachments_) {
      record.attachments.push_back(core::SessionAttachment{
          a.container_bits, a.is_queue, a.mode, a.device_slot, a.label});
    }
    record.registered_names = registered_names_;
  }
  {
    ds::MutexLock lock(gc_mu_);
    record.gc_interests.reserve(gc_interest_.size());
    for (const auto& [bits, is_queue] : gc_interest_) {
      record.gc_interests.push_back(core::SessionGcInterest{bits, is_queue});
    }
  }
  return record;
}

void Surrogate::MirrorSession() {
  if (host_.stopped()) return;
  Status s = host_.SessionPut(SnapshotRecord());
  if (!s.ok()) {
    DS_LOG(kWarn) << "surrogate " << session_id_
                  << ": session mirror failed: " << s;
  }
}

Status Surrogate::Adopt(transport::TcpConnection conn) {
  State expected = State::kParked;
  if (!state_.compare_exchange_strong(expected, State::kActive)) {
    return FailedPreconditionError("only parked surrogates can adopt");
  }
  stopping_.store(false);
  conn_ = std::move(conn);
  return OkStatus();
}

Status Surrogate::Rehydrate(const core::SessionRecord& record) {
  client_name_ = record.client_name;
  client_kind_ = record.client_kind;
  {
    ds::MutexLock lock(gc_mu_);
    for (const auto& g : record.gc_interests) {
      gc_interest_[g.container_bits] = g.is_queue;
    }
  }

  std::vector<Attachment> restored;
  std::vector<SlotRemap> remaps;
  for (const auto& a : record.attachments) {
    const auto mode = a.mode >= 1 && a.mode <= 3
                          ? static_cast<core::ConnMode>(a.mode)
                          : core::ConnMode::kInputOutput;
    Result<core::Connection> conn =
        a.is_queue
            ? host_.Connect(QueueId::FromBits(a.container_bits), mode, a.label)
            : host_.Connect(ChannelId::FromBits(a.container_bits), mode,
                            a.label);
    SlotRemap remap;
    remap.container_bits = a.container_bits;
    remap.is_queue = a.is_queue;
    remap.old_slot = a.slot;
    if (conn.ok()) {
      remap.new_slot = conn->slot();
      // a.slot is the device-visible slot (what the record mirrors);
      // keep it so a further migration still remaps the device's frames.
      restored.push_back(Attachment{a.container_bits, a.is_queue, conn->slot(),
                                    a.slot, a.mode, a.label});
    } else {
      // Container gone (owned by the dead address space, or already
      // reclaimed): the device's handle is now dangling; calls on it
      // will fail with the owner's error.
      remap.new_slot = 0;
      DS_LOG(kWarn) << "surrogate " << session_id_
                    << ": could not restore attachment to container "
                    << a.container_bits << ": " << conn.status();
    }
    remaps.push_back(remap);
  }

  {
    ds::MutexLock lock(session_mu_);
    attachments_ = std::move(restored);
    registered_names_ = record.registered_names;
    slot_remaps_ = std::move(remaps);
  }
  // The record now lives on this host: update host_as and slots.
  MirrorSession();
  return OkStatus();
}

Status Surrogate::ServiceResume(std::span<const std::uint8_t> frame) {
  marshal::XdrDecoder dec(frame);
  auto hdr = core::DecodeRequestHeader(dec);
  if (!hdr.ok()) return InternalError("bad resume frame");
  Buffer reply = ResumeReply(hdr->request_id);
  calls_serviced_.fetch_add(1, std::memory_order_relaxed);
  return conn_.SendFrame(reply, TakeNoticeTrailer());
}

void Surrogate::MarkSuperseded() {
  Stop();
  State s = state_.load();
  while (s != State::kReaped && s != State::kLeft &&
         !state_.compare_exchange_weak(s, State::kReaped)) {
  }
  // conn_ is left to the Run thread (if still active, Stop() makes it
  // exit and close within its receive timeout).
}

Status Surrogate::Reap() {
  State expected = State::kParked;
  if (!state_.compare_exchange_strong(expected, State::kReaped)) {
    return FailedPreconditionError("only parked surrogates can be reaped");
  }
  std::vector<Attachment> attachments;
  std::vector<std::string> names;
  {
    ds::MutexLock lock(session_mu_);
    attachments.swap(attachments_);
    names.swap(registered_names_);
  }
  // A reap on a dead host releases nothing (the host's containers died
  // with it) and must keep the registry record so the session can still
  // be migrated; a reap on a live host is terminal.
  if (host_.stopped()) return OkStatus();
  for (const Attachment& a : attachments) {
    const core::Connection conn(
        a.container_bits, a.is_queue, core::ConnMode::kInputOutput,
        ChannelId::FromBits(a.container_bits).owner(), a.slot);
    Status s = host_.Disconnect(conn);
    if (!s.ok()) {
      DS_LOG(kWarn) << "reap: detach failed: " << s;
    }
  }
  for (const std::string& name : names) {
    (void)host_.NsUnregister(name);
  }
  (void)host_.EndSession(session_id_);
  return OkStatus();
}

std::size_t Surrogate::tracked_attachments() const {
  ds::MutexLock lock(session_mu_);
  return attachments_.size();
}

void Surrogate::Park() {
  // Close before publishing kParked: once the state is visible, the
  // listener may Adopt() a fresh connection into conn_, and this (the
  // old Run thread) must no longer touch it.
  conn_.Close();
  parked_since_ = Now();
  State expected = State::kActive;
  state_.compare_exchange_strong(expected, State::kParked);
}

Status Surrogate::ServiceHello(std::span<const std::uint8_t> frame) {
  marshal::XdrDecoder dec(frame);
  auto hdr = core::DecodeRequestHeader(dec);
  if (!hdr.ok()) return InternalError("bad hello frame");
  Buffer reply = HandleHello(hdr->request_id, dec);
  calls_serviced_.fetch_add(1, std::memory_order_relaxed);
  MirrorSession();
  return conn_.SendFrame(reply, TakeNoticeTrailer());
}

void Surrogate::Run() {
  SetThreadLogContext("sur/" + std::to_string(session_id_));
  Buffer frame;
  bool bye = false;
  while (!stopping_.load() && !bye) {
    if (host_.stopped()) {
      // The host AS is going down: close the link so the device fails
      // over to a surrogate on a live address space.
      DS_LOG(kInfo) << "surrogate " << session_id_
                    << " parked: host address space stopping";
      Park();
      return;
    }
    Status s = conn_.RecvFrame(frame, Deadline::AfterMillis(100));
    if (!s.ok()) {
      if (s.code() == StatusCode::kTimeout) continue;
      // Device vanished without a clean leave: park (paper §3.3).
      DS_LOG(kInfo) << "surrogate " << session_id_ << " parked: " << s;
      Park();
      return;
    }
    bool kill_conn = false;
    SharedReply reply = HandleFrame(frame, bye, kill_conn);
    if (kill_conn || reply == nullptr) {
      Park();
      return;
    }
    calls_serviced_.fetch_add(1, std::memory_order_relaxed);
    if (!conn_.SendFrame(*reply, TakeNoticeTrailer()).ok()) {
      Park();
      return;
    }
  }
  if (bye) {
    state_.store(State::kLeft);
    conn_.Close();
    if (!host_.stopped()) (void)host_.EndSession(session_id_);
  } else {
    Park();
  }
}

}  // namespace dstampede::client

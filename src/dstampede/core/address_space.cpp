#include "dstampede/core/address_space.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <span>
#include <type_traits>
#include <utility>

#include "dstampede/common/logging.hpp"

namespace dstampede::core {

namespace {

// "0123456789abcdef" for sampled contexts, "-" otherwise; used when a
// request is dropped so the warn line still names its trace.
std::string TraceTag(const trace::TraceContext& ctx) {
  if (!ctx.sampled()) return "-";
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, ctx.trace_id);
  return buf;
}

// A recorded reply answering a replay: a peer's replay arrives under a
// new request id, which only then costs a copy of the frame.
SharedReply Restamp(SharedReply reply, std::uint64_t request_id) {
  marshal::XdrDecoder dec(*reply);
  (void)dec.GetU32();  // kReply
  if (dec.GetU64().value_or(request_id) == request_id) return reply;
  Buffer stamped = *reply;
  for (int i = 0; i < 8; ++i) {
    stamped[4 + i] = static_cast<std::uint8_t>(request_id >> (56 - 8 * i));
  }
  return Share(std::move(stamped));
}

}  // namespace

Result<std::unique_ptr<AddressSpace>> AddressSpace::Create(
    const Options& options) {
  auto as = std::unique_ptr<AddressSpace>(new AddressSpace(options));
  as->wheel_ = std::make_unique<TimerWheel>();
  // Everything a delivered message can reach (dispatcher, name server,
  // replication log) exists before the endpoint, whose first delivery
  // may come before Create returns.
  as->dispatcher_ = std::make_unique<ThreadPool>(
      options.dispatcher_threads,
      "AS" + std::to_string(AsIndex(options.id)));
  as->gc_ = std::make_unique<GcService>(options.gc_interval);
  const bool is_ns_replica =
      std::find(options.ns_replicas.begin(), options.ns_replicas.end(),
                options.id) != options.ns_replicas.end();
  if (options.host_name_server || is_ns_replica) {
    as->name_server_ = std::make_unique<NameServer>();
  }
  if (!options.ns_replicas.empty()) {
    as->ns_as_ = options.ns_replicas.front();
  } else if (options.host_name_server) {
    as->ns_as_ = options.id;
  }
  if (is_ns_replica && options.ns_replicas.size() > 1) {
    RepLog::Options ro;
    ro.self = options.id;
    ro.replicas = options.ns_replicas;
    std::sort(ro.replicas.begin(), ro.replicas.end());
    ro.lease = options.ns_lease;
    ro.heartbeat = options.ns_heartbeat;
    ro.rpc_deadline = std::max<Duration>(options.ns_heartbeat * 2, Millis(50));
    AddressSpace* raw = as.get();
    as->replog_ = std::make_unique<RepLog>(
        ro,
        /*apply=*/
        [raw](const Buffer& entry) {
          auto m = DecodeNsMutation(entry);
          if (!m.ok()) {
            DS_LOG(kWarn) << "undecodable replicated ns mutation: "
                          << m.status().message();
            return;
          }
          // Re-applied entries may report their usual app error
          // (duplicate register, tick of a dropped session); state
          // still converges, so only the appender cares.
          (void)raw->name_server_->Apply(*m);
        },
        /*send=*/
        [raw](AsId target, Op op, const RequestBody& body, Deadline deadline) {
          return raw->Exchange(target, op, body, deadline);
        },
        /*peer_dead=*/[raw](AsId peer) { return raw->IsPeerDown(peer); });
    as->replog_->set_on_became_leader([raw] { raw->OnBecameNsLeader(); });
  }
  clf::Endpoint::Options ep_opts;
  ep_opts.port = options.clf_port;
  ep_opts.enable_shm_fastpath = options.shm_fastpath;
  ep_opts.faults = options.faults;
  ep_opts.max_retransmits = options.clf_max_retransmits;
  ep_opts.keepalive_interval = options.peer_keepalive_interval;
  ep_opts.peer_timeout = options.peer_timeout;
  DS_ASSIGN_OR_RETURN(
      as->endpoint_,
      clf::Endpoint::Create(
          ep_opts, [raw = as.get()](const transport::SockAddr& from,
                                    Buffer message) {
            raw->OnMessage(from, std::move(message));
          }));
  as->endpoint_->set_peer_down_callback(
      [raw = as.get()](const transport::SockAddr& addr) {
        raw->OnPeerDown(addr);
      });
  as->endpoint_->set_peer_up_callback(
      [raw = as.get()](const transport::SockAddr& addr) {
        raw->OnPeerUp(addr);
      });
  as->InitObservability();
  as->gc_->Start();
  if (as->replog_) as->replog_->Start();
  return as;
}

void AddressSpace::InitObservability() {
  // Hot-path instruments, cached once: registry addresses are stable
  // for the registry's lifetime, so the fast paths hit only atomics.
  stm_metrics_.puts = &registry_.GetCounter("stm.puts");
  stm_metrics_.gets = &registry_.GetCounter("stm.gets");
  stm_metrics_.reclaimed = &registry_.GetCounter("stm.reclaimed_items");
  stm_metrics_.reclaim_lag_us = &registry_.GetHistogram("stm.reclaim_lag_us");
  endpoint_->set_metrics_registry(&registry_);  // per-peer RTT histograms

  // Pull providers, evaluated at snapshot time. They read atomics or
  // take only leaf locks (containers_mu_ -> container mu is the same
  // order Shutdown uses), and this object outlives the registry's
  // users, so the raw captures are safe.
  registry_.AddProvider("dispatcher.queue_depth",
                        [this] { return static_cast<std::int64_t>(
                                     dispatcher_->pending()); });
  registry_.AddProvider("stm.session_slots", [this] {
    ds::MutexLock lock(session_slots_mu_);
    return static_cast<std::int64_t>(session_slots_.size());
  });
  registry_.AddProvider("containers.channels", [this] {
    ds::MutexLock lock(containers_mu_);
    return static_cast<std::int64_t>(channels_.size());
  });
  registry_.AddProvider("containers.queues", [this] {
    ds::MutexLock lock(containers_mu_);
    return static_cast<std::int64_t>(queues_.size());
  });
  registry_.AddProvider("containers.parked_waiters", [this] {
    std::vector<std::shared_ptr<LocalChannel>> channels;
    std::vector<std::shared_ptr<LocalQueue>> queues;
    {
      ds::MutexLock lock(containers_mu_);
      for (auto& [slot, ch] : channels_) channels.push_back(ch);
      for (auto& [slot, q] : queues_) queues.push_back(q);
    }
    std::int64_t parked = 0;
    for (auto& ch : channels) {
      parked += static_cast<std::int64_t>(ch->parked_get_waiters() +
                                          ch->parked_put_waiters());
    }
    for (auto& q : queues) {
      parked += static_cast<std::int64_t>(q->parked_get_waiters() +
                                          q->parked_put_waiters());
    }
    return parked;
  });

  // CLF transport mirror: expose the endpoint's atomics through the
  // registry so one snapshot covers every layer.
  const clf::EndpointStats* clf_stats = &endpoint_->stats();
  registry_.AddProvider("clf.data_packets_sent", [clf_stats] {
    return static_cast<std::int64_t>(
        clf_stats->data_packets_sent.load(std::memory_order_relaxed));
  });
  registry_.AddProvider("clf.data_packets_received", [clf_stats] {
    return static_cast<std::int64_t>(
        clf_stats->data_packets_received.load(std::memory_order_relaxed));
  });
  registry_.AddProvider("clf.retransmissions", [clf_stats] {
    return static_cast<std::int64_t>(
        clf_stats->retransmissions.load(std::memory_order_relaxed));
  });
  registry_.AddProvider("clf.duplicates_discarded", [clf_stats] {
    return static_cast<std::int64_t>(
        clf_stats->duplicates_discarded.load(std::memory_order_relaxed));
  });
  registry_.AddProvider("clf.messages_delivered", [clf_stats] {
    return static_cast<std::int64_t>(
        clf_stats->messages_delivered.load(std::memory_order_relaxed));
  });
  registry_.AddProvider("clf.keepalive_probes_sent", [clf_stats] {
    return static_cast<std::int64_t>(
        clf_stats->keepalive_probes_sent.load(std::memory_order_relaxed));
  });
  registry_.AddProvider("clf.peers_declared_dead", [clf_stats] {
    return static_cast<std::int64_t>(
        clf_stats->peers_declared_dead.load(std::memory_order_relaxed));
  });

  // Fault-injector counters: zero in production, load-bearing in
  // simulation — a scenario that asserts on behaviour under loss wants
  // to see how much loss the modeled network actually injected.
  clf::FaultInjector* faults = &endpoint_->fault_injector();
  registry_.AddProvider("clf.fault.dropped", [faults] {
    return static_cast<std::int64_t>(faults->TotalCounters().dropped);
  });
  registry_.AddProvider("clf.fault.blackholed", [faults] {
    return static_cast<std::int64_t>(faults->TotalCounters().blackholed);
  });
  registry_.AddProvider("clf.fault.link_dropped", [faults] {
    return static_cast<std::int64_t>(faults->TotalCounters().link_dropped);
  });
  registry_.AddProvider("clf.fault.delayed", [faults] {
    return static_cast<std::int64_t>(faults->TotalCounters().delayed);
  });
  registry_.AddProvider("clf.fault.delivered", [faults] {
    return static_cast<std::int64_t>(faults->TotalCounters().delivered);
  });
  registry_.AddProvider("clf.fault.delayed_pending", [faults] {
    return static_cast<std::int64_t>(faults->delayed_pending());
  });

  if (name_server_) {
    NameServer* ns = name_server_.get();
    registry_.AddProvider("ns.entries", [ns] {
      return static_cast<std::int64_t>(ns->size());
    });
    registry_.AddProvider("ns.sessions", [ns] {
      return static_cast<std::int64_t>(ns->session_count());
    });
    registry_.AddProvider("ns.lookups", [ns] {
      return static_cast<std::int64_t>(ns->total_lookups());
    });
    registry_.AddProvider("ns.purged_entries", [ns] {
      return static_cast<std::int64_t>(ns->total_purged());
    });
  }
  if (replog_) {
    RepLog* rl = replog_.get();
    registry_.AddProvider("ns.leader_changes", [rl] {
      return static_cast<std::int64_t>(rl->leader_changes());
    });
    registry_.AddProvider("ns.log_appends", [rl] {
      return static_cast<std::int64_t>(rl->log_appends());
    });
    registry_.AddProvider("ns.replica_lag", [rl] {
      return static_cast<std::int64_t>(rl->replica_lag());
    });
    registry_.AddProvider("ns.replog.is_leader",
                          [rl] { return rl->IsLeader() ? 1 : 0; });
    registry_.AddProvider("ns.replog.term", [rl] {
      return static_cast<std::int64_t>(rl->term());
    });
  }
}

AddressSpace::AddressSpace(const Options& options) : options_(options) {}

AddressSpace::~AddressSpace() {
  Shutdown();
  JoinThreads();
}

void AddressSpace::Shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;

  // Complete every parked waiter (kCancelled) first, so suspended
  // remote requests flush their replies while the endpoint is still
  // up and local blocked callers unwind. Close runs outside
  // containers_mu_ because it fires completions, which send over CLF.
  std::vector<std::shared_ptr<LocalChannel>> channels;
  std::vector<std::shared_ptr<LocalQueue>> queues;
  {
    ds::MutexLock lock(containers_mu_);
    channels.reserve(channels_.size());
    for (auto& [slot, ch] : channels_) channels.push_back(ch);
    queues.reserve(queues_.size());
    for (auto& [slot, q] : queues_) queues.push_back(q);
  }
  for (auto& ch : channels) ch->Close();
  for (auto& q : queues) q->Close();
  // Join the timer wheel before tearing down what its callbacks touch
  // (containers, endpoint). New waiters cannot register: the containers
  // are closed.
  if (wheel_) wheel_->Shutdown();
  gc_->Stop();
  dispatcher_->Shutdown();
  if (endpoint_) endpoint_->Shutdown();  // null if Create failed

  // Fail calls still waiting for replies.
  std::vector<std::shared_ptr<PendingCall>> orphans;
  {
    ds::MutexLock lock(calls_mu_);
    for (auto& [id, call] : calls_) orphans.push_back(call);
    calls_.clear();
  }
  for (auto& call : orphans) {
    ds::MutexLock lock(call->mu);
    call->done = true;
    call->status = CancelledError("address space shut down");
    call->cv.NotifyAll();
  }
  // After the orphan sweep so a ticker blocked in Call wakes promptly
  // instead of riding out its RPC deadline.
  if (replog_) replog_->Stop();
}

// --- topology -------------------------------------------------------------

void AddressSpace::AddPeer(AsId peer, const transport::SockAddr& addr) {
  {
    ds::MutexLock lock(peers_mu_);
    peers_[AsIndex(peer)] = addr;
    peer_by_addr_[addr] = peer;
    dead_peers_.erase(AsIndex(peer));  // re-adding re-admits
  }
  // Start liveness monitoring before any traffic flows (no-op unless
  // failure detection is configured).
  endpoint_->WatchPeer(addr);
}

bool AddressSpace::IsPeerDown(AsId peer) const {
  ds::MutexLock lock(peers_mu_);
  return dead_peers_.count(AsIndex(peer)) != 0;
}

void AddressSpace::OnPeerDown(const transport::SockAddr& addr) {
  AsId dead = kInvalidAsId;
  {
    ds::MutexLock lock(peers_mu_);
    auto it = peer_by_addr_.find(addr);
    if (it == peer_by_addr_.end()) return;  // not a known peer AS
    dead = it->second;
    dead_peers_.insert(AsIndex(dead));
  }
  DS_LOG(kWarn) << "AS" << AsIndex(options_.id) << ": peer AS"
                << AsIndex(dead) << " (" << addr.ToString()
                << ") declared dead; running recovery";

  // 1. Fail calls already waiting on a reply from the dead peer — the
  // reply is never coming.
  std::vector<std::shared_ptr<PendingCall>> doomed;
  {
    ds::MutexLock lock(calls_mu_);
    for (auto it = calls_.begin(); it != calls_.end();) {
      if (it->second->target == dead) {
        doomed.push_back(it->second);
        it = calls_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& call : doomed) {
    ds::MutexLock lock(call->mu);
    call->done = true;
    call->status = UnavailableError("peer address space declared dead");
    call->cv.NotifyAll();
  }

  // 2. Complete the dead space's parked waiters with kUnavailable —
  // their replies are undeliverable, and the records would otherwise
  // pin payloads and timers until their deadlines expire (or forever,
  // for infinite-deadline waits).
  {
    std::vector<std::shared_ptr<LocalChannel>> channels;
    std::vector<std::shared_ptr<LocalQueue>> queues;
    {
      ds::MutexLock lock(containers_mu_);
      channels.reserve(channels_.size());
      for (auto& [slot, ch] : channels_) channels.push_back(ch);
      queues.reserve(queues_.size());
      for (auto& [slot, q] : queues_) queues.push_back(q);
    }
    const Status gone = UnavailableError("peer address space declared dead");
    std::size_t cancelled = 0;
    for (auto& ch : channels) cancelled += ch->CancelWaitersOf(AsIndex(dead), gone);
    for (auto& q : queues) cancelled += q->CancelWaitersOf(AsIndex(dead), gone);
    if (cancelled != 0) {
      DS_LOG(kInfo) << "completed " << cancelled
                    << " parked waiters of dead AS" << AsIndex(dead);
    }
  }

  // 3. Detach the dead space's connections to our containers so the
  // items it alone was holding become garbage (analogue of the
  // surrogate's Reap for a vanished end device, §3.2.4).
  std::vector<RemoteAttach> attachments;
  {
    ds::MutexLock lock(remote_attach_mu_);
    auto it = remote_attachments_.find(AsIndex(dead));
    if (it != remote_attachments_.end()) {
      attachments = std::move(it->second);
      remote_attachments_.erase(it);
    }
  }
  for (const auto& att : attachments) {
    Status detached = OkStatus();
    if (att.is_queue) {
      auto q = FindQueue(att.container_bits);
      if (q) detached = q->Detach(att.slot);
    } else {
      auto ch = FindChannel(att.container_bits);
      if (ch) detached = ch->Detach(att.slot);
    }
    if (!detached.ok()) {
      DS_LOG(kWarn) << "recovery detach failed: " << detached.message();
    }
  }

  // 4. If we host the name server, the dead space's names must not
  // satisfy later lookups. (Session records are NOT purged: a session
  // hosted on the dead space is exactly what a listener needs to
  // migrate that session to a live space.) Replicated deployments feed
  // the liveness signal to the replication log (election input) and
  // let the leader drive the purge through the log, so every replica
  // converges on the same post-recovery state; the purge runs on the
  // dispatcher pool because appending blocks on replica RPCs and this
  // callback runs on the CLF receiver thread.
  if (replog_) {
    replog_->OnPeerDown(dead);
    (void)dispatcher_->Submit([this, dead] {
      if (!replog_->IsLeader()) return;  // the leader's own signal purges
      NsMutation purge;
      purge.kind = NsMutation::Kind::kPurgeOwner;
      purge.owner = dead;
      Status s = replog_->Append(EncodeNsMutation(purge));
      if (!s.ok()) {
        DS_LOG(kWarn) << "replicated purge of AS" << AsIndex(dead)
                      << " names failed: " << s.message();
      }
    });
  } else if (name_server_) {
    const std::size_t purged = name_server_->PurgeOwner(dead);
    if (purged != 0) {
      DS_LOG(kInfo) << "purged " << purged << " name-server entries of AS"
                    << AsIndex(dead);
    }
  }

  // 5. Tell higher layers (listeners, federation) so they can react
  // without polling IsPeerDown.
  std::vector<std::function<void(AsId)>> observers;
  {
    ds::MutexLock lock(peer_observers_mu_);
    observers = peer_down_observers_;
  }
  for (auto& observer : observers) observer(dead);
}

void AddressSpace::AddPeerDownObserver(std::function<void(AsId)> observer) {
  ds::MutexLock lock(peer_observers_mu_);
  peer_down_observers_.push_back(std::move(observer));
}

void AddressSpace::AddPeerUpObserver(std::function<void(AsId)> observer) {
  ds::MutexLock lock(peer_observers_mu_);
  peer_up_observers_.push_back(std::move(observer));
}

void AddressSpace::OnPeerUp(const transport::SockAddr& addr) {
  AsId peer = kInvalidAsId;
  {
    ds::MutexLock lock(peers_mu_);
    auto it = peer_by_addr_.find(addr);
    if (it == peer_by_addr_.end()) return;
    peer = it->second;
    if (dead_peers_.erase(AsIndex(peer)) == 0) return;  // was never down
  }
  DS_LOG(kInfo) << "AS" << AsIndex(options_.id) << ": peer AS"
                << AsIndex(peer) << " resurrected with a new incarnation";
  std::vector<std::function<void(AsId)>> observers;
  {
    ds::MutexLock lock(peer_observers_mu_);
    observers = peer_up_observers_;
  }
  for (auto& observer : observers) observer(peer);
}

void AddressSpace::SetNameServerAs(AsId ns) { ns_as_ = ns; }

Result<transport::SockAddr> AddressSpace::PeerAddr(AsId peer) const {
  ds::MutexLock lock(peers_mu_);
  auto it = peers_.find(AsIndex(peer));
  if (it == peers_.end()) {
    return NotFoundError("unknown peer address space");
  }
  return it->second;
}

// --- RPC plumbing ----------------------------------------------------------

Result<Reply> AddressSpace::Exchange(AsId target, Op op, const RequestBody& body,
                                     Deadline deadline) {
  // A Call blocks on the CLF round-trip; entering it with any ds::Mutex
  // held is the invariant violation behind the PR 2 Resume-reply
  // deadlock, so fail loudly under the runtime detector.
  sync::AssertBlockingAllowed("AddressSpace::Call");
  if (stopping_.load()) return CancelledError("address space shut down");
  stats_.remote_calls.fetch_add(1, std::memory_order_relaxed);
  DS_ASSIGN_OR_RETURN(transport::SockAddr addr, PeerAddr(target));
  if (IsPeerDown(target)) {
    return UnavailableError("peer address space declared dead");
  }

  const std::uint64_t id = next_request_id_.fetch_add(1);
  const auto* put = std::get_if<PutReq>(&body);
  marshal::XdrEncoder enc(put != nullptr ? put->payload.size() + 96 : 0);
  EncodeRequestHeader(enc, op, id);
  EncodeRequestBody(enc, body);

  auto pending = std::make_shared<PendingCall>();
  pending->target = target;
  {
    ds::MutexLock lock(calls_mu_);
    calls_[id] = pending;
  }
  Status sent = endpoint_->Send(addr, enc.buffer());
  if (!sent.ok()) {
    ds::MutexLock lock(calls_mu_);
    calls_.erase(id);
    return sent;
  }

  // The callee may legitimately block right up to the wire deadline;
  // allow transport slack on top before declaring the call lost.
  Deadline wait = deadline.infinite()
                      ? deadline
                      : Deadline::After(deadline.remaining() + Millis(5000));
  ds::MutexLock lock(pending->mu);
  while (!pending->done) {
    if (!pending->cv.WaitUntil(pending->mu, wait) && !pending->done) {
      lock.Unlock();
      ds::MutexLock erase_lock(calls_mu_);
      calls_.erase(id);
      return TimeoutError("rpc call");
    }
  }
  if (!pending->status.ok()) return pending->status;
  return std::move(pending->reply);
}

Result<Reply> AddressSpace::Call(AsId target, Op op, const RequestBody& body,
                                 Deadline deadline) {
  DS_ASSIGN_OR_RETURN(Reply reply, Exchange(target, op, body, deadline));
  if (!reply.status.ok()) return reply.status;
  return reply;
}

void AddressSpace::OnMessage(const transport::SockAddr& from, Buffer message) {
  marshal::XdrDecoder dec(message);
  auto hdr = DecodeRequestHeader(dec);
  if (!hdr.ok()) {
    DS_LOG(kWarn) << "undecodable frame from " << from.ToString();
    return;
  }
  if (hdr->op != Op::kReply) {
    const std::size_t body_offset = message.size() - dec.remaining();
    DispatchRequest(from, *hdr, std::move(message), body_offset);
    return;
  }
  std::shared_ptr<PendingCall> call;
  {
    ds::MutexLock lock(calls_mu_);
    auto it = calls_.find(hdr->request_id);
    if (it == calls_.end()) return;  // the caller already gave up
    call = std::move(it->second);
    calls_.erase(it);
  }
  Reply reply;
  const Status decoded = DecodeReplyStatus(dec, reply.status);
  reply.body_offset = message.size() - dec.remaining();
  reply.frame = std::move(message);
  ds::MutexLock lock(call->mu);
  call->done = true;
  call->status = decoded;
  call->reply = std::move(reply);
  call->cv.NotifyAll();
}

void AddressSpace::DispatchRequest(const transport::SockAddr& from,
                                   const RequestHeader& hdr, Buffer message,
                                   std::size_t body_offset) {
  // Attribute the request to the sending address space (for attachment
  // bookkeeping); requests from unknown addresses stay anonymous.
  AsId origin = kInvalidAsId;
  {
    ds::MutexLock lock(peers_mu_);
    auto it = peer_by_addr_.find(from);
    if (it != peer_by_addr_.end()) origin = it->second;
  }
  m_dispatch_requests_->Add();
  auto task = [this, from, origin, hdr, body_offset,
               msg = std::move(message)]() {
    // The caller's context rides the whole execution of this request:
    // spans opened below parent onto it and every outgoing
    // EncodeRequestHeader re-emits it (trace propagation).
    trace::ScopedContext tracing(hdr.trace);
    if (stopping_.load()) {
      m_dropped_or_expired_->Add();
      DS_LOG(kWarn) << "dropping request " << hdr.request_id
                    << " (address space shutting down), trace="
                    << TraceTag(hdr.trace);
      (void)endpoint_->Send(
          from, EncodeStatusReply(
                    hdr.request_id,
                    UnavailableError("address space shutting down")));
      return;
    }
    stats_.requests_served.fetch_add(1, std::memory_order_relaxed);
    marshal::XdrDecoder dec(
        std::span<const std::uint8_t>(msg).subspan(body_offset));
    auto body = DecodeRequestBody(hdr.op, dec);
    if (!body.ok()) {
      (void)endpoint_->Send(from,
                            EncodeStatusReply(hdr.request_id, body.status()));
      return;
    }
    Request request{hdr, std::move(*body)};
    // A body decoded, so the op has a handler. A replay of a recorded
    // device call is answered from its session's slot. Blocking
    // container ops suspend into a waiter instead of parking this
    // worker; everything else is served synchronously.
    const OpHandler& handler = *HandlerFor(hdr.op);
    SharedReply reply = RecordedReply(SlotTag(request), hdr.request_id);
    if (reply == nullptr) {
      if (handler.suspend != nullptr &&
          handler.suspend(*this, request, origin, from)) {
        return;
      }
      reply = Serve(handler, request, origin);
    }
    (void)endpoint_->Send(from, *reply);
  };
  if (!dispatcher_->Submit(std::move(task))) {
    // Only during shutdown. The refusal is sent from the delivering
    // thread; Endpoint::Shutdown wakes it if the window is full.
    m_dropped_or_expired_->Add();
    DS_LOG(kWarn) << "dispatcher rejected request " << hdr.request_id
                  << " (shutting down), trace=" << TraceTag(hdr.trace);
    (void)endpoint_->Send(
        from,
        EncodeStatusReply(hdr.request_id,
                          UnavailableError("dispatcher shutting down")));
  }
}

Buffer AddressSpace::Execute(Request& request) {
  return *ExecuteShared(request);
}

SharedReply AddressSpace::ExecuteShared(Request& request) {
  stats_.requests_served.fetch_add(1, std::memory_order_relaxed);
  const OpHandler* handler = HandlerFor(request.header.op);
  if (handler == nullptr) {
    return Share(EncodeStatusReply(request.header.request_id,
                                   InternalError("unknown op")));
  }
  // Every request this call fans out to an owner carries its tag.
  SessionScope tagging(request.header.session);
  SharedReply recorded =
      RecordedReply(SlotTag(request), request.header.request_id);
  return recorded != nullptr ? recorded
                             : Serve(*handler, request, kInvalidAsId);
}

SharedReply AddressSpace::Serve(const OpHandler& handler, Request& request,
                                AsId origin) {
  SharedReply reply = Share(handler.serve(*this, request, origin));
  RecordReply(SlotTag(request), reply);
  return reply;
}

// --- exactly-once for end-device calls ----------------------------------

SessionTag AddressSpace::SlotTag(const Request& request) const {
  if (!request.header.session) return {};
  const bool effect_here = std::visit(
      [this](const auto& req) {
        if constexpr (requires { req.container_bits; }) {
          if constexpr (requires { req.spec; }) {  // a Get
            if (!req.is_queue) return false;
          }
          return ChannelId::FromBits(req.container_bits).owner() ==
                 options_.id;
        }
        return std::is_same_v<std::decay_t<decltype(req)>, CreateReq>;
      },
      request.body);
  return effect_here ? request.header.session : SessionTag{};
}

SharedReply AddressSpace::RecordedReply(SessionTag tag,
                                        std::uint64_t request_id) {
  if (!tag) return nullptr;
  SharedReply recorded;
  std::function<bool()> cancel_parked;
  {
    ds::MutexLock lock(session_slots_mu_);
    auto it = session_slots_.find(tag.session_id);
    if (it == session_slots_.end()) return nullptr;
    SessionSlot& slot = it->second;
    if (slot.ticket == tag.ticket) {
      recorded = slot.reply;
    } else if (slot.parked_ticket == tag.ticket) {
      slot.parked_ticket = 0;
      cancel_parked = std::move(slot.cancel_parked);
    } else {
      return nullptr;
    }
  }
  if (cancel_parked) {
    // The replay overtook its original, still parked here for a host
    // that died: cancel the original and run the replay in its place.
    if (cancel_parked()) return nullptr;
    // The original is completing: once recorded, its reply answers.
    for (int waited = 0; !recorded && waited < 1000; ++waited) {
      SleepFor(Millis(1));
      ds::MutexLock lock(session_slots_mu_);
      auto it = session_slots_.find(tag.session_id);
      if (it != session_slots_.end() && it->second.ticket == tag.ticket) {
        recorded = it->second.reply;
      }
    }
    if (!recorded) return nullptr;  // it failed: the replay runs
  }
  m_session_replays_->Add();
  return Restamp(std::move(recorded), request_id);
}

void AddressSpace::NoteParked(SessionTag tag, std::function<bool()> cancel) {
  if (!tag) return;
  ds::MutexLock lock(session_slots_mu_);
  SessionSlot& slot = session_slots_[tag.session_id];
  if (slot.ticket >= tag.ticket) return;  // it completed already
  slot.parked_ticket = tag.ticket;
  slot.cancel_parked = std::move(cancel);
}

void AddressSpace::RecordReply(SessionTag tag, const SharedReply& reply) {
  if (!tag) return;
  marshal::XdrDecoder dec(*reply);
  auto hdr = DecodeResponseHeader(dec);
  // Only a call that took effect is recorded: a failed one runs again.
  const bool took_effect = hdr.ok() && hdr->status.ok();
  ds::MutexLock lock(session_slots_mu_);
  if (!took_effect && session_slots_.count(tag.session_id) == 0) return;
  SessionSlot& slot = session_slots_[tag.session_id];
  if (slot.parked_ticket == tag.ticket) {  // the parked call completed
    slot.parked_ticket = 0;
    slot.cancel_parked = nullptr;
  }
  if (took_effect && tag.ticket >= slot.ticket) {
    slot.ticket = tag.ticket;
    slot.reply = reply;
  }
}

void AddressSpace::FreeSessionSlot(std::uint64_t session_id) {
  ds::MutexLock lock(session_slots_mu_);
  session_slots_.erase(session_id);
}

namespace {

// Container ids embed their owner AS (ids.hpp); channels and queues
// share the handle layout so either tag works for extraction.
AsId OwnerOf(std::uint64_t container_bits) {
  return ChannelId::FromBits(container_bits).owner();
}

// A successful reply whose result fields `put_fields` appends.
template <class PutFields>
Buffer OkReply(std::uint64_t id, PutFields&& put_fields) {
  marshal::XdrEncoder enc;
  EncodeResponseHeader(enc, id, OkStatus());
  put_fields(enc);
  return enc.Take();
}

// The reply to a create: the new container's id bits, or the error.
template <class Id>
Buffer CreatedReply(std::uint64_t id, const Result<Id>& created) {
  if (!created.ok()) return EncodeStatusReply(id, created.status());
  return OkReply(id, [&](auto& enc) { enc.PutU64(created->bits()); });
}

}  // namespace

// The op handlers. Each serves one decoded request through the same
// public, location-transparent API an application thread uses, so a
// surrogate's request for a container owned elsewhere is forwarded.
struct AddressSpace::Ops {
  static Buffer CreateChannel(AddressSpace& as, Request& r, AsId /*origin*/) {
    const auto& req = std::get<CreateReq>(r.body);
    return CreatedReply(r.header.request_id,
                        as.CreateChannel({req.capacity, req.debug_name}));
  }

  static Buffer CreateQueue(AddressSpace& as, Request& r, AsId /*origin*/) {
    const auto& req = std::get<CreateReq>(r.body);
    return CreatedReply(r.header.request_id,
                        as.CreateQueue({req.capacity, req.debug_name}));
  }

  static Buffer Attach(AddressSpace& as, Request& r, AsId origin) {
    const auto& req = std::get<AttachReq>(r.body);
    Result<Connection> conn =
        req.is_queue
            ? as.Connect(QueueId::FromBits(req.container_bits), req.mode,
                         req.label)
            : as.Connect(ChannelId::FromBits(req.container_bits), req.mode,
                         req.label);
    if (!conn.ok()) return EncodeStatusReply(r.header.request_id, conn.status());
    // Remember which peer holds the slot so its connections can be
    // detached (and its items reclaimed) if it dies.
    if (origin != kInvalidAsId && conn->owner() == as.options_.id) {
      ds::MutexLock lock(as.remote_attach_mu_);
      as.remote_attachments_[AsIndex(origin)].push_back(
          {req.container_bits, req.is_queue, conn->slot()});
    }
    return OkReply(r.header.request_id,
                   [&](auto& enc) { enc.PutU32(conn->slot()); });
  }

  static Buffer Detach(AddressSpace& as, Request& r, AsId origin) {
    const auto& req = std::get<DetachReq>(r.body);
    Status status = as.Disconnect({req.container_bits, req.is_queue,
                                   ConnMode::kInputOutput,
                                   OwnerOf(req.container_bits), req.slot});
    if (status.ok() && origin != kInvalidAsId) {
      ds::MutexLock lock(as.remote_attach_mu_);
      auto it = as.remote_attachments_.find(AsIndex(origin));
      if (it != as.remote_attachments_.end()) {
        auto& atts = it->second;
        for (auto att = atts.begin(); att != atts.end(); ++att) {
          if (att->container_bits == req.container_bits &&
              att->is_queue == req.is_queue && att->slot == req.slot) {
            atts.erase(att);
            break;
          }
        }
      }
    }
    return EncodeStatusReply(r.header.request_id, status);
  }

  static Buffer Put(AddressSpace& as, Request& r, AsId /*origin*/) {
    auto& req = std::get<PutReq>(r.body);
    // Rebuild the caller's connection and run through the public API.
    const Connection conn(req.container_bits, req.is_queue, req.mode,
                          OwnerOf(req.container_bits), req.slot);
    return EncodeStatusReply(
        r.header.request_id, as.Put(conn, req.ts, std::move(req.payload),
                                    DecodeDeadline(req.deadline_ms)));
  }

  static Buffer Get(AddressSpace& as, Request& r, AsId /*origin*/) {
    const auto& req = std::get<GetReq>(r.body);
    const Connection conn(req.container_bits, req.is_queue, req.mode,
                          OwnerOf(req.container_bits), req.slot);
    const Deadline deadline = DecodeDeadline(req.deadline_ms);
    Result<ItemView> item = req.is_queue ? as.Get(conn, deadline)
                                         : as.Get(conn, req.spec, deadline);
    if (!item.ok()) return EncodeStatusReply(r.header.request_id, item.status());
    return EncodeItemReply(r.header.request_id, *item);
  }

  static Buffer Consume(AddressSpace& as, Request& r, AsId /*origin*/) {
    const auto& req = std::get<ConsumeReq>(r.body);
    const Connection conn(req.container_bits, req.is_queue, req.mode,
                          OwnerOf(req.container_bits), req.slot);
    return EncodeStatusReply(r.header.request_id,
                             req.until ? as.ConsumeUntil(conn, req.ts)
                                       : as.Consume(conn, req.ts));
  }

  static Buffer SetFilter(AddressSpace& as, Request& r, AsId /*origin*/) {
    const auto& req = std::get<SetFilterReq>(r.body);
    const Connection conn(req.container_bits, /*is_queue=*/false,
                          ConnMode::kInput, OwnerOf(req.container_bits),
                          req.slot);
    return EncodeStatusReply(r.header.request_id,
                             as.SetFilter(conn, req.filter));
  }

  // Name-server mutations. One from a peer AS (origin known) was routed
  // here by that peer's failover wrapper, so a replica appends it or
  // answers with a "leader=<id>" redirect — never forwards it onward
  // (no replica-to-replica chains). One with no origin came from an
  // end device via a surrogate on this AS: the public path routes it,
  // retries and all.
  static Buffer Mutation(AddressSpace& as, const Request& r, AsId origin,
                         NsMutation m) {
    if (!as.replog_ || origin == kInvalidAsId) {
      return EncodeStatusReply(r.header.request_id, as.MutateNs(std::move(m)));
    }
    if (m.kind == NsMutation::Kind::kRegister &&
        m.entry.owner_as == kInvalidAsId) {
      m.entry.owner_as = as.options_.id;
    }
    return EncodeStatusReply(r.header.request_id,
                             as.replog_->Append(EncodeNsMutation(m)));
  }

  // A device's register/unregister carries its tag into the mutation.
  static Buffer NsRegister(AddressSpace& as, Request& r, AsId origin) {
    return Mutation(as, r, origin,
                    {.kind = NsMutation::Kind::kRegister,
                     .entry = std::get<NsEntry>(r.body),
                     .session_id = r.header.session.session_id,
                     .ticket = r.header.session.ticket});
  }

  static Buffer NsUnregister(AddressSpace& as, Request& r, AsId origin) {
    return Mutation(as, r, origin,
                    {.kind = NsMutation::Kind::kUnregister,
                     .name = std::get<NsLookupReq>(r.body).name,
                     .session_id = r.header.session.session_id,
                     .ticket = r.header.session.ticket});
  }

  static Buffer SessionPut(AddressSpace& as, Request& r, AsId origin) {
    return Mutation(as, r, origin,
                    {.kind = NsMutation::Kind::kPutSession,
                     .session = std::get<SessionRecord>(r.body)});
  }

  static Buffer SessionDrop(AddressSpace& as, Request& r, AsId origin) {
    return Mutation(as, r, origin,
                    {.kind = NsMutation::Kind::kDropSession,
                     .session_id = std::get<SessionIdReq>(r.body).session_id});
  }

  static Buffer SessionEnd(AddressSpace& as, Request& r, AsId /*origin*/) {
    as.FreeSessionSlot(std::get<SessionIdReq>(r.body).session_id);
    return EncodeStatusReply(r.header.request_id, OkStatus());
  }

  // Name-server reads: a replica whose lease view is stale refuses a
  // peer's read (the peer fails over) rather than answer it stale.
  static bool StaleForPeer(AddressSpace& as, AsId origin) {
    return as.replog_ && origin != kInvalidAsId && !as.replog_->LeaseFresh();
  }

  static Buffer NsLookup(AddressSpace& as, Request& r, AsId origin) {
    const std::uint64_t id = r.header.request_id;
    if (StaleForPeer(as, origin)) return EncodeStatusReply(id, as.StaleNsError());
    const auto& req = std::get<NsLookupReq>(r.body);
    auto entry = as.NsLookup(req.name, DecodeDeadline(req.deadline_ms));
    if (!entry.ok()) return EncodeStatusReply(id, entry.status());
    return OkReply(id, [&](auto& enc) { EncodeNsEntry(enc, *entry); });
  }

  static Buffer NsList(AddressSpace& as, Request& r, AsId origin) {
    const std::uint64_t id = r.header.request_id;
    if (StaleForPeer(as, origin)) return EncodeStatusReply(id, as.StaleNsError());
    auto entries = as.NsList(std::get<NsLookupReq>(r.body).name);
    if (!entries.ok()) return EncodeStatusReply(id, entries.status());
    return OkReply(id, [&](auto& enc) {
      enc.PutU32(static_cast<std::uint32_t>(entries->size()));
      for (const auto& entry : *entries) EncodeNsEntry(enc, entry);
    });
  }

  static Buffer SessionGet(AddressSpace& as, Request& r, AsId origin) {
    const std::uint64_t id = r.header.request_id;
    if (StaleForPeer(as, origin)) return EncodeStatusReply(id, as.StaleNsError());
    auto rec = as.SessionGet(std::get<SessionIdReq>(r.body).session_id);
    if (!rec.ok()) return EncodeStatusReply(id, rec.status());
    return OkReply(id, [&](auto& enc) { EncodeSessionRecord(enc, *rec); });
  }

  static Buffer Metrics(AddressSpace& as, Request& r, AsId /*origin*/) {
    // Serve locally or forward to the target space (same pattern as
    // the NS ops), so a surrogate can introspect any space for its
    // end device and dsctl can fan out from one peer.
    auto snapshot = as.MetricsSnapshot(
        static_cast<AsId>(std::get<MetricsReq>(r.body).target_as));
    if (!snapshot.ok()) {
      return EncodeStatusReply(r.header.request_id, snapshot.status());
    }
    return OkReply(r.header.request_id,
                   [&](auto& enc) { enc.PutString(*snapshot); });
  }

  // Control-plane replication (replica-internal; see core/replog.hpp).
  static Buffer RepAppend(AddressSpace& as, Request& r, AsId /*origin*/) {
    if (!as.replog_) {
      return EncodeStatusReply(r.header.request_id,
                               FailedPreconditionError("not an ns replica"));
    }
    RepAppendAck ack;
    const Status st =
        as.replog_->HandleAppend(std::get<RepAppendReq>(r.body), ack);
    // The ack body rides along even on rejection: it carries this
    // replica's term, which is how a deposed leader learns to step
    // down.
    marshal::XdrEncoder enc;
    EncodeResponseHeader(enc, r.header.request_id, st);
    ack.Encode(enc);
    return enc.Take();
  }

  static Buffer RepFetch(AddressSpace& as, Request& r, AsId /*origin*/) {
    if (!as.replog_) {
      return EncodeStatusReply(r.header.request_id,
                               FailedPreconditionError("not an ns replica"));
    }
    const RepFetchResp resp =
        as.replog_->HandleFetch(std::get<RepFetchReq>(r.body));
    return OkReply(r.header.request_id, [&](auto& enc) { resp.Encode(enc); });
  }

  // --- deferrable ops ----------------------------------------------------

  // The continuation of a suspended request. Tags the waiter with the
  // caller's AS index so OnPeerDown can cancel it; anonymous callers
  // share the no-origin sentinel and are completed only by deadline,
  // container close, or shutdown. `finish(status, reply)` ends the
  // "owner.parked" span (it may run on the producer's or the timer
  // wheel's thread), counts an expiry, and sends `reply` exactly once.
  struct Parked {
    std::uint32_t origin_tag;
    std::function<void(const Status&, Buffer)> finish;
    SessionTag tag;  // the call's slot tag (see SlotTag)
  };
  template <class Container>
  static void NoteParked(AddressSpace& as, const Parked& parked,
                         std::shared_ptr<Container> container,
                         std::uint64_t waiter) {
    if (waiter == 0) return;  // it completed inline
    as.NoteParked(parked.tag, [container = std::move(container), waiter] {
      return container->CancelWaiter(
          waiter, UnavailableError("superseded by the call's replay"));
    });
  }
  // A tagged call's reply is recorded in its session's slot as the
  // waiter completes, before it is sent.
  static Parked Park(AddressSpace& as, const Request& r, AsId origin,
                     const transport::SockAddr& from, const char* what) {
    const RequestHeader& hdr = r.header;
    auto reply = std::make_shared<DeferredReply>(
        hdr.request_id, [&as, from](std::span<const std::uint8_t> encoded) {
          if (!encoded.empty()) (void)as.endpoint_->Send(from, encoded);
        });
    auto span = std::make_shared<trace::PendingSpan>(&as.span_sink_,
                                                     "owner.parked", hdr.trace);
    as.m_dispatch_deferred_->Add();
    const SessionTag tag = as.SlotTag(r);
    return {origin == kInvalidAsId ? kNoWaiterOrigin : AsIndex(origin),
            [&as, hdr, what, reply, span, tag](const Status& st,
                                               Buffer encoded) {
              span->Finish();
              if (st.code() == StatusCode::kTimeout) {
                as.m_dropped_or_expired_->Add();
                DS_LOG(kWarn) << "parked " << what << " " << hdr.request_id
                              << " expired at deadline, trace="
                              << TraceTag(hdr.trace);
              }
              if (!tag) {
                (void)reply->Complete(encoded);
                return;
              }
              SharedReply shared = Share(std::move(encoded));
              as.RecordReply(tag, shared);
              (void)reply->Complete(*shared);
            },
            tag};
  }

  static bool SuspendGet(AddressSpace& as, Request& r, AsId origin,
                         const transport::SockAddr& from) {
    const auto& req = std::get<GetReq>(r.body);
    if (OwnerOf(req.container_bits) != as.options_.id) return false;
    as.stats_.gets.fetch_add(1, std::memory_order_relaxed);
    Parked parked = Park(as, r, origin, from, "get");
    auto q = req.is_queue ? as.FindQueue(req.container_bits) : nullptr;
    // A device's destructive read from a peer is consumed on delivery:
    // its recorded reply is now the item's only copy, so host-death
    // recovery (which requeues unconsumed items) must not requeue it.
    auto consume_from = r.header.session ? q : nullptr;
    auto done = [&as, id = r.header.request_id, finish = parked.finish,
                 consume_from, slot = req.slot](Result<ItemView> item) {
      if (!item.ok()) {
        finish(item.status(), EncodeStatusReply(id, item.status()));
        return;
      }
      if (consume_from) (void)consume_from->Consume(slot, item->timestamp);
      as.stats_.bytes_got.fetch_add(item->payload.size(),
                                    std::memory_order_relaxed);
      finish(OkStatus(), EncodeItemReply(id, *item));
    };
    const Deadline deadline = DecodeDeadline(req.deadline_ms);
    if (req.is_queue) {
      if (!q) {
        done(NotFoundError("queue"));
        return true;
      }
      NoteParked(as, parked, q,
                 q->GetAsync(req.slot, deadline, std::move(done),
                             parked.origin_tag));
    } else {
      auto ch = as.FindChannel(req.container_bits);
      if (!ch) {
        done(NotFoundError("channel"));
        return true;
      }
      ch->GetAsync(req.slot, req.spec, deadline, std::move(done),
                   parked.origin_tag);
    }
    return true;
  }

  static bool SuspendPut(AddressSpace& as, Request& r, AsId origin,
                         const transport::SockAddr& from) {
    auto& req = std::get<PutReq>(r.body);
    if (OwnerOf(req.container_bits) != as.options_.id) return false;
    as.stats_.puts.fetch_add(1, std::memory_order_relaxed);
    as.stats_.bytes_put.fetch_add(req.payload.size(),
                                  std::memory_order_relaxed);
    Parked parked = Park(as, r, origin, from, "put");
    auto done = [id = r.header.request_id,
                 finish = parked.finish](Status st) {
      finish(st, EncodeStatusReply(id, st));
    };
    if (!CanOutput(req.mode)) {
      done(PermissionDeniedError("connection is input-only"));
      return true;
    }
    const Deadline deadline = DecodeDeadline(req.deadline_ms);
    SharedBuffer payload(std::move(req.payload));
    if (req.is_queue) {
      auto q = as.FindQueue(req.container_bits);
      if (!q) {
        done(NotFoundError("queue"));
        return true;
      }
      NoteParked(as, parked, q,
                 q->PutAsync(req.ts, std::move(payload), deadline,
                             std::move(done), parked.origin_tag));
    } else {
      auto ch = as.FindChannel(req.container_bits);
      if (!ch) {
        done(NotFoundError("channel"));
        return true;
      }
      NoteParked(as, parked, ch,
                 ch->PutAsync(req.ts, std::move(payload), deadline,
                              std::move(done), parked.origin_tag));
    }
    return true;
  }
};

const AddressSpace::OpHandler* AddressSpace::HandlerFor(Op op) {
  // Indexed by op - 1; the static_assert below keeps it that way.
  static constexpr OpHandler kTable[] = {
      {Op::kCreateChannel, &Ops::CreateChannel, nullptr},
      {Op::kCreateQueue, &Ops::CreateQueue, nullptr},
      {Op::kAttach, &Ops::Attach, nullptr},
      {Op::kDetach, &Ops::Detach, nullptr},
      {Op::kPut, &Ops::Put, &Ops::SuspendPut},
      {Op::kGet, &Ops::Get, &Ops::SuspendGet},
      {Op::kConsume, &Ops::Consume, nullptr},
      {Op::kNsRegister, &Ops::NsRegister, nullptr},
      {Op::kNsLookup, &Ops::NsLookup, nullptr},
      {Op::kNsUnregister, &Ops::NsUnregister, nullptr},
      {Op::kNsList, &Ops::NsList, nullptr},
      {Op::kSetFilter, &Ops::SetFilter, nullptr},
      {Op::kSessionPut, &Ops::SessionPut, nullptr},
      {Op::kSessionGet, &Ops::SessionGet, nullptr},
      {Op::kSessionDrop, &Ops::SessionDrop, nullptr},
      {Op::kSessionEnd, &Ops::SessionEnd, nullptr},
      {Op::kMetrics, &Ops::Metrics, nullptr},
      {Op::kRepAppend, &Ops::RepAppend, nullptr},
      {Op::kRepFetch, &Ops::RepFetch, nullptr},
  };
  static_assert(
      [] {
        for (std::size_t i = 0; i < std::size(kTable); ++i) {
          if (kTable[i].op != static_cast<Op>(i + 1)) return false;
        }
        return true;
      }(),
      "the op-handler table is indexed by op - 1");
  const std::size_t index = static_cast<std::size_t>(op) - 1;
  return index < std::size(kTable) ? &kTable[index] : nullptr;
}

// --- containers --------------------------------------------------------------

Result<ChannelId> AddressSpace::CreateChannel(const ChannelAttr& attr) {
  if (stopping_.load()) return CancelledError("address space shut down");
  std::uint32_t slot;
  std::shared_ptr<LocalChannel> ch;
  {
    ds::MutexLock lock(containers_mu_);
    slot = next_container_slot_++;
    ch = std::make_shared<LocalChannel>(attr, wheel_.get());
    ch->set_metrics(stm_metrics_);
    channels_[slot] = ch;
  }
  const ChannelId cid(options_.id, slot);
  gc_->RegisterChannel(cid.bits(), ch);
  return cid;
}

Result<QueueId> AddressSpace::CreateQueue(const QueueAttr& attr) {
  if (stopping_.load()) return CancelledError("address space shut down");
  std::uint32_t slot;
  std::shared_ptr<LocalQueue> q;
  {
    ds::MutexLock lock(containers_mu_);
    slot = next_container_slot_++;
    q = std::make_shared<LocalQueue>(attr, wheel_.get());
    q->set_metrics(stm_metrics_);
    queues_[slot] = q;
  }
  const QueueId qid(options_.id, slot);
  gc_->RegisterQueue(qid.bits(), q);
  return qid;
}

Result<ChannelId> AddressSpace::CreateChannelOn(AsId owner,
                                                const ChannelAttr& attr) {
  if (owner == options_.id) return CreateChannel(attr);
  DS_ASSIGN_OR_RETURN(Reply reply,
                      Call(owner, Op::kCreateChannel,
                           CreateReq{attr.capacity_items, attr.debug_name},
                           InternalDeadline()));
  marshal::XdrDecoder dec = reply.body();
  DS_ASSIGN_OR_RETURN(std::uint64_t bits, dec.GetU64());
  return ChannelId::FromBits(bits);
}

Result<QueueId> AddressSpace::CreateQueueOn(AsId owner, const QueueAttr& attr) {
  if (owner == options_.id) return CreateQueue(attr);
  DS_ASSIGN_OR_RETURN(Reply reply,
                      Call(owner, Op::kCreateQueue,
                           CreateReq{attr.capacity_items, attr.debug_name},
                           InternalDeadline()));
  marshal::XdrDecoder dec = reply.body();
  DS_ASSIGN_OR_RETURN(std::uint64_t bits, dec.GetU64());
  return QueueId::FromBits(bits);
}

std::shared_ptr<LocalChannel> AddressSpace::FindChannel(std::uint64_t bits) {
  const ChannelId cid = ChannelId::FromBits(bits);
  if (cid.owner() != options_.id) return nullptr;
  ds::MutexLock lock(containers_mu_);
  auto it = channels_.find(cid.slot());
  return it == channels_.end() ? nullptr : it->second;
}

std::shared_ptr<LocalQueue> AddressSpace::FindQueue(std::uint64_t bits) {
  const QueueId qid = QueueId::FromBits(bits);
  if (qid.owner() != options_.id) return nullptr;
  ds::MutexLock lock(containers_mu_);
  auto it = queues_.find(qid.slot());
  return it == queues_.end() ? nullptr : it->second;
}

// --- plumbing ----------------------------------------------------------------

Result<Connection> AddressSpace::Connect(ChannelId ch, ConnMode mode,
                                         std::string label) {
  stats_.attaches.fetch_add(1, std::memory_order_relaxed);
  if (label.empty()) label = "thread@AS" + std::to_string(AsIndex(options_.id));
  if (ch.owner() == options_.id) {
    auto channel = FindChannel(ch.bits());
    if (!channel) return NotFoundError("channel");
    return Connection(ch.bits(), false, mode, ch.owner(),
                      channel->Attach(mode, std::move(label)));
  }
  DS_ASSIGN_OR_RETURN(
      Reply reply,
      Call(ch.owner(), Op::kAttach,
           AttachReq{ch.bits(), /*is_queue=*/false, mode, std::move(label)},
           InternalDeadline()));
  marshal::XdrDecoder dec = reply.body();
  DS_ASSIGN_OR_RETURN(std::uint32_t slot, dec.GetU32());
  return Connection(ch.bits(), false, mode, ch.owner(), slot);
}

Result<Connection> AddressSpace::Connect(QueueId q, ConnMode mode,
                                         std::string label) {
  stats_.attaches.fetch_add(1, std::memory_order_relaxed);
  if (label.empty()) label = "thread@AS" + std::to_string(AsIndex(options_.id));
  if (q.owner() == options_.id) {
    auto queue = FindQueue(q.bits());
    if (!queue) return NotFoundError("queue");
    return Connection(q.bits(), true, mode, q.owner(),
                      queue->Attach(mode, std::move(label)));
  }
  DS_ASSIGN_OR_RETURN(
      Reply reply,
      Call(q.owner(), Op::kAttach,
           AttachReq{q.bits(), /*is_queue=*/true, mode, std::move(label)},
           InternalDeadline()));
  marshal::XdrDecoder dec = reply.body();
  DS_ASSIGN_OR_RETURN(std::uint32_t slot, dec.GetU32());
  return Connection(q.bits(), true, mode, q.owner(), slot);
}

Status AddressSpace::Disconnect(const Connection& conn) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  stats_.detaches.fetch_add(1, std::memory_order_relaxed);
  if (conn.owner() == options_.id) {
    if (conn.is_queue()) {
      auto q = FindQueue(conn.container_bits());
      return q ? q->Detach(conn.slot()) : NotFoundError("queue");
    }
    auto ch = FindChannel(conn.container_bits());
    return ch ? ch->Detach(conn.slot()) : NotFoundError("channel");
  }
  return Call(conn.owner(), Op::kDetach,
              DetachReq{conn.container_bits(), conn.is_queue(), conn.slot()},
              InternalDeadline())
      .status();
}

// --- I/O ------------------------------------------------------------------------

Status AddressSpace::Put(const Connection& conn, Timestamp ts, Buffer payload,
                         Deadline deadline) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_put.fetch_add(payload.size(), std::memory_order_relaxed);
  if (!CanOutput(conn.mode())) {
    return PermissionDeniedError("connection is input-only");
  }
  if (conn.owner() == options_.id) {
    // The owner serving the op is a span of its own; for a blocking
    // put (channel at capacity) its duration is the block time.
    // Inactive (a TLS read) when the calling context is unsampled.
    trace::ScopedSpan serve(&span_sink_, "owner.serve");
    SharedBuffer shared(std::move(payload));
    if (conn.is_queue()) {
      auto q = FindQueue(conn.container_bits());
      return q ? q->Put(ts, std::move(shared), deadline)
               : NotFoundError("queue");
    }
    auto ch = FindChannel(conn.container_bits());
    return ch ? ch->Put(ts, std::move(shared), deadline)
              : NotFoundError("channel");
  }
  return Call(conn.owner(), Op::kPut,
              PutReq{conn.container_bits(), conn.is_queue(), conn.mode(),
                     conn.slot(), ts, EncodeDeadline(deadline),
                     std::move(payload)},
              deadline)
      .status();
}

Result<ItemView> AddressSpace::Get(const Connection& conn, GetSpec spec,
                                   Deadline deadline) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  if (conn.owner() == options_.id) {
    // Owner-side serving span; for a blocking get the duration is the
    // time parked waiting for the producer.
    trace::ScopedSpan serve(&span_sink_, "owner.serve");
    Result<ItemView> item = InternalError("unset");
    if (conn.is_queue()) {
      auto q = FindQueue(conn.container_bits());
      if (!q) return NotFoundError("queue");
      item = q->Get(conn.slot(), deadline);
    } else {
      auto ch = FindChannel(conn.container_bits());
      if (!ch) return NotFoundError("channel");
      item = ch->Get(conn.slot(), spec, deadline);
    }
    if (item.ok()) {
      stats_.bytes_got.fetch_add(item->payload.size(),
                                 std::memory_order_relaxed);
    }
    return item;
  }
  DS_ASSIGN_OR_RETURN(
      Reply reply,
      Call(conn.owner(), Op::kGet,
           GetReq{conn.container_bits(), conn.is_queue(), conn.mode(),
                  conn.slot(), spec, EncodeDeadline(deadline)},
           deadline));
  marshal::XdrDecoder dec = reply.body();
  ItemView view;
  DS_ASSIGN_OR_RETURN(view.timestamp, dec.GetI64());
  DS_ASSIGN_OR_RETURN(Buffer payload, dec.GetOpaque());
  view.payload = SharedBuffer(std::move(payload));
  stats_.bytes_got.fetch_add(view.payload.size(), std::memory_order_relaxed);
  return view;
}

Result<ItemView> AddressSpace::Get(const Connection& conn, Deadline deadline) {
  return Get(conn, GetSpec::Oldest(), deadline);
}

Status AddressSpace::Consume(const Connection& conn, Timestamp ts) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  stats_.consumes.fetch_add(1, std::memory_order_relaxed);
  if (conn.owner() == options_.id) {
    if (conn.is_queue()) {
      auto q = FindQueue(conn.container_bits());
      return q ? q->Consume(conn.slot(), ts) : NotFoundError("queue");
    }
    auto ch = FindChannel(conn.container_bits());
    return ch ? ch->Consume(conn.slot(), ts) : NotFoundError("channel");
  }
  return Call(conn.owner(), Op::kConsume,
              ConsumeReq{conn.container_bits(), conn.is_queue(), conn.mode(),
                         conn.slot(), ts, /*until=*/false},
              InternalDeadline())
      .status();
}

Status AddressSpace::ConsumeUntil(const Connection& conn, Timestamp ts) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  stats_.consumes.fetch_add(1, std::memory_order_relaxed);
  if (conn.is_queue()) {
    return InvalidArgumentError("consume-until is channel-only");
  }
  if (conn.owner() == options_.id) {
    auto ch = FindChannel(conn.container_bits());
    return ch ? ch->ConsumeUntil(conn.slot(), ts) : NotFoundError("channel");
  }
  return Call(conn.owner(), Op::kConsume,
              ConsumeReq{conn.container_bits(), /*is_queue=*/false,
                         conn.mode(), conn.slot(), ts, /*until=*/true},
              InternalDeadline())
      .status();
}

Status AddressSpace::SetFilter(const Connection& conn,
                               const ItemFilter& filter) {
  if (!conn.valid()) return InvalidArgumentError("invalid connection");
  if (conn.is_queue()) {
    return InvalidArgumentError("filters apply to channels");
  }
  if (conn.owner() == options_.id) {
    auto ch = FindChannel(conn.container_bits());
    return ch ? ch->SetFilter(conn.slot(), filter) : NotFoundError("channel");
  }
  return Call(conn.owner(), Op::kSetFilter,
              SetFilterReq{conn.container_bits(), conn.slot(), filter},
              InternalDeadline())
      .status();
}

// --- handler functions -----------------------------------------------------------

Status AddressSpace::SetChannelGcHandler(ChannelId ch, GcHandler handler) {
  auto channel = FindChannel(ch.bits());
  if (!channel) {
    return FailedPreconditionError(
        "GC handlers install at the owner address space");
  }
  channel->set_gc_handler(std::move(handler));
  return OkStatus();
}

Status AddressSpace::SetQueueGcHandler(QueueId q, GcHandler handler) {
  auto queue = FindQueue(q.bits());
  if (!queue) {
    return FailedPreconditionError(
        "GC handlers install at the owner address space");
  }
  queue->set_gc_handler(std::move(handler));
  return OkStatus();
}

// --- name server ------------------------------------------------------------------

namespace {

// A follower's routing redirect (as opposed to a definitive
// kUnavailable like "replication lost quorum", which must surface).
bool IsNsRedirect(const Status& s) {
  return s.code() == StatusCode::kUnavailable &&
         s.message().rfind("not leader", 0) == 0;
}

// The request that routes a mutation to the leader.
std::pair<Op, RequestBody> MutationRequest(const NsMutation& m) {
  switch (m.kind) {
    case NsMutation::Kind::kRegister:
      return {Op::kNsRegister, m.entry};
    case NsMutation::Kind::kUnregister:
      return {Op::kNsUnregister, NsLookupReq{m.name}};
    case NsMutation::Kind::kPutSession:
      return {Op::kSessionPut, m.session};
    case NsMutation::Kind::kDropSession:
      return {Op::kSessionDrop, SessionIdReq{m.session_id}};
    case NsMutation::Kind::kPurgeOwner:
      break;  // log-only, never routed
  }
  return {Op::kReply, std::monostate{}};
}

}  // namespace

std::vector<AsId> AddressSpace::NsTargets() const {
  if (!options_.ns_replicas.empty()) return options_.ns_replicas;
  if (ns_as_ != kInvalidAsId) return {ns_as_};
  return {};
}

void AddressSpace::NoteNsLeader(AsId leader) {
  ds::MutexLock lock(ns_route_mu_);
  ns_leader_hint_ = leader;
}

Status AddressSpace::StaleNsError() const {
  const AsId leader = replog_->leader();
  return UnavailableError(
      "ns lease stale; leader=" +
      (leader == kInvalidAsId ? std::string("none")
                              : std::to_string(AsIndex(leader))));
}

Result<Reply> AddressSpace::CallNsService(Op op, const RequestBody& body,
                                          Deadline deadline) {
  std::vector<AsId> targets = NsTargets();
  if (targets.empty()) {
    return FailedPreconditionError("no name-server address space set");
  }
  // The last replica that answered definitively (usually the leader)
  // goes first; the rest keep replica order for deterministic rotation.
  {
    ds::MutexLock lock(ns_route_mu_);
    auto it = std::find(targets.begin(), targets.end(), ns_leader_hint_);
    if (it != targets.end()) std::rotate(targets.begin(), it, it + 1);
  }
  Status last = UnavailableError("name service unavailable");
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (AsId target : targets) {
      if (target == options_.id) continue;  // local paths already failed
      if (IsPeerDown(target)) {
        last = UnavailableError("ns replica declared dead");
        continue;
      }
      auto reply = Exchange(target, op, body, deadline);
      if (!reply.ok()) {
        last = reply.status();
        continue;  // transport failure: rotate
      }
      if (reply->status.code() == StatusCode::kUnavailable) {
        // Redirect ("not leader"), stale lease, or lost quorum: note
        // any leader hint for future calls and keep rotating.
        last = reply->status;
        const AsId hint =
            RepLog::LeaderHintFromMessage(reply->status.message());
        if (hint != kInvalidAsId) NoteNsLeader(hint);
        continue;
      }
      // Definitive answer — ok or an application error (kNotFound,
      // kAlreadyExists, ...) that retrying elsewhere would not change.
      NoteNsLeader(target);
      return reply;
    }
    if (!deadline.infinite() && deadline.expired()) break;
    if (round + 1 < kRounds) SleepFor(Millis(100));  // let an election settle
  }
  return last;
}

Status AddressSpace::MutateNs(NsMutation m) {
  stats_.ns_ops.fetch_add(1, std::memory_order_relaxed);
  // Stamp ownership before the entry crosses the wire: recovery purges
  // a dead space's names by this field. Entries arriving with ownership
  // already set (forwarded registrations) keep it; entries from end
  // devices get their host AS, since the host is what can die.
  if (m.kind == NsMutation::Kind::kRegister &&
      m.entry.owner_as == kInvalidAsId) {
    m.entry.owner_as = options_.id;
  }
  if (replog_) {
    Status s = replog_->Append(EncodeNsMutation(m));
    if (!IsNsRedirect(s)) return s;
    // This replica is a follower: fall through and route to the leader.
  } else if (name_server_) {
    return name_server_->Apply(m);
  }
  const auto [op, body] = MutationRequest(m);
  auto reply = CallNsService(op, body, InternalDeadline());
  return reply.ok() ? reply->status : reply.status();
}

Status AddressSpace::NsRegister(const NsEntry& entry) {
  return MutateNs({.kind = NsMutation::Kind::kRegister, .entry = entry});
}

Status AddressSpace::NsUnregister(const std::string& name) {
  return MutateNs({.kind = NsMutation::Kind::kUnregister, .name = name});
}

Result<NsEntry> AddressSpace::NsLookup(const std::string& name,
                                       Deadline deadline) {
  stats_.ns_ops.fetch_add(1, std::memory_order_relaxed);
  // Reads are served from the local replica while its lease view is
  // fresh — this is the payoff of replication: lookups keep working on
  // any survivor without a round trip.
  if (name_server_ && (!replog_ || replog_->LeaseFresh())) {
    return name_server_->Lookup(name, deadline);
  }
  auto reply = CallNsService(
      Op::kNsLookup, NsLookupReq{name, EncodeDeadline(deadline)}, deadline);
  if (!reply.ok()) {
    if (name_server_) {
      // Degraded read: every peer replica is unreachable (we may be
      // the only survivor). A possibly-stale local answer beats total
      // refusal; docs/FAILURES.md spells out the trade.
      DS_LOG(kWarn) << "AS" << AsIndex(options_.id) << ": ns failover lost ("
                    << reply.status().message()
                    << "); serving stale local replica";
      return name_server_->Lookup(name, deadline);
    }
    return reply.status();
  }
  if (!reply->status.ok()) return reply->status;
  marshal::XdrDecoder dec = reply->body();
  return DecodeNsEntry(dec);
}

Result<std::vector<NsEntry>> AddressSpace::NsList(const std::string& prefix) {
  stats_.ns_ops.fetch_add(1, std::memory_order_relaxed);
  if (name_server_ && (!replog_ || replog_->LeaseFresh())) {
    return name_server_->List(prefix);
  }
  auto reply =
      CallNsService(Op::kNsList, NsLookupReq{prefix}, InternalDeadline());
  if (!reply.ok()) {
    if (name_server_) return name_server_->List(prefix);  // degraded read
    return reply.status();
  }
  if (!reply->status.ok()) return reply->status;
  marshal::XdrDecoder dec = reply->body();
  DS_ASSIGN_OR_RETURN(std::uint32_t count, dec.GetU32());
  std::vector<NsEntry> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    DS_ASSIGN_OR_RETURN(NsEntry entry, DecodeNsEntry(dec));
    out.push_back(std::move(entry));
  }
  return out;
}

void AddressSpace::OnBecameNsLeader() {
  std::vector<AsId> dead;
  {
    ds::MutexLock lock(peers_mu_);
    dead.reserve(dead_peers_.size());
    for (std::uint32_t idx : dead_peers_) dead.push_back(static_cast<AsId>(idx));
  }
  for (AsId peer : dead) {
    NsMutation purge;
    purge.kind = NsMutation::Kind::kPurgeOwner;
    purge.owner = peer;
    Status s = replog_->Append(EncodeNsMutation(purge));
    if (!s.ok()) {
      DS_LOG(kWarn) << "post-election purge of AS" << AsIndex(peer)
                    << " names failed: " << s.message();
    }
  }
}

// --- end-device session registry -----------------------------------------------

Status AddressSpace::SessionPut(const SessionRecord& record) {
  return MutateNs({.kind = NsMutation::Kind::kPutSession, .session = record});
}

Result<SessionRecord> AddressSpace::SessionGet(std::uint64_t session_id) {
  stats_.ns_ops.fetch_add(1, std::memory_order_relaxed);
  if (name_server_ && (!replog_ || replog_->LeaseFresh())) {
    return name_server_->GetSession(session_id);
  }
  auto reply = CallNsService(Op::kSessionGet, SessionIdReq{session_id},
                             InternalDeadline());
  if (!reply.ok()) {
    if (name_server_) return name_server_->GetSession(session_id);  // degraded
    return reply.status();
  }
  if (!reply->status.ok()) return reply->status;
  marshal::XdrDecoder dec = reply->body();
  return DecodeSessionRecord(dec);
}

Status AddressSpace::SessionDrop(std::uint64_t session_id) {
  return MutateNs(
      {.kind = NsMutation::Kind::kDropSession, .session_id = session_id});
}

Status AddressSpace::EndSession(std::uint64_t session_id) {
  // The record goes first, so the session can no longer be resumed.
  const Status dropped = SessionDrop(session_id);
  std::vector<std::uint32_t> peers;
  {
    ds::MutexLock lock(peers_mu_);
    for (const auto& [index, addr] : peers_) peers.push_back(index);
  }
  for (std::uint32_t peer : peers) {  // a dead one fails fast
    (void)Exchange(static_cast<AsId>(peer), Op::kSessionEnd,
                   SessionIdReq{session_id}, InternalDeadline());
  }
  FreeSessionSlot(session_id);
  return dropped;
}

// --- observability ---------------------------------------------------------------

namespace {

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string AddressSpace::MetricsJson() {
  // Snapshot container pointers under containers_mu_, then query each
  // container outside it (each query takes only the container's own
  // leaf lock).
  std::vector<std::pair<std::uint32_t, std::shared_ptr<LocalChannel>>> channels;
  std::vector<std::pair<std::uint32_t, std::shared_ptr<LocalQueue>>> queues;
  {
    ds::MutexLock lock(containers_mu_);
    channels.assign(channels_.begin(), channels_.end());
    queues.assign(queues_.begin(), queues_.end());
  }

  std::string out;
  out += "{\"as\":" + std::to_string(AsIndex(options_.id));
  out += ",\"registry\":";
  registry_.WriteJson(out);
  out += ",\"spans\":";
  span_sink_.WriteJson(out);
  out += ",\"channels\":[";
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const auto& [slot, ch] = channels[i];
    if (i != 0) out += ',';
    out += "{\"id\":" + std::to_string(ChannelId(options_.id, slot).bits());
    out += ",\"name\":";
    AppendJsonString(out, ch->attr().debug_name);
    out += ",\"live_items\":" + std::to_string(ch->live_items());
    const Timestamp frontier = ch->timestamp_frontier();
    out += ",\"frontier\":" +
           std::to_string(frontier == kInvalidTimestamp ? -1 : frontier);
    out += ",\"parked_gets\":" + std::to_string(ch->parked_get_waiters());
    out += ",\"parked_puts\":" + std::to_string(ch->parked_put_waiters());
    out += ",\"total_puts\":" + std::to_string(ch->total_puts());
    out += ",\"reclaimed\":" + std::to_string(ch->total_reclaimed());
    out += '}';
  }
  out += "],\"queues\":[";
  for (std::size_t i = 0; i < queues.size(); ++i) {
    const auto& [slot, q] = queues[i];
    if (i != 0) out += ',';
    out += "{\"id\":" + std::to_string(QueueId(options_.id, slot).bits());
    out += ",\"name\":";
    AppendJsonString(out, q->attr().debug_name);
    out += ",\"queued_items\":" + std::to_string(q->queued_items());
    out += ",\"in_flight\":" + std::to_string(q->in_flight_items());
    out += ",\"parked_gets\":" + std::to_string(q->parked_get_waiters());
    out += ",\"parked_puts\":" + std::to_string(q->parked_put_waiters());
    out += ",\"total_puts\":" + std::to_string(q->total_puts());
    out += ",\"reclaimed\":" + std::to_string(q->total_consumed());
    out += '}';
  }
  out += "]}";
  return out;
}

Result<std::string> AddressSpace::MetricsSnapshot(AsId target) {
  if (target == options_.id) return MetricsJson();
  DS_ASSIGN_OR_RETURN(Reply reply,
                      Call(target, Op::kMetrics, MetricsReq{AsIndex(target)},
                           InternalDeadline()));
  marshal::XdrDecoder dec = reply.body();
  return dec.GetString();
}

Status AddressSpace::AdvertiseMetrics() {
  NsEntry entry;
  entry.name = "sys/metrics/" + std::to_string(AsIndex(options_.id));
  entry.kind = NsEntry::Kind::kOther;
  entry.id_bits = AsIndex(options_.id);
  entry.meta = "sys/metrics snapshot endpoint; clf=" +
               endpoint_->addr().ToString();
  entry.owner_as = options_.id;
  return NsRegister(entry);
}

Status AddressSpace::AdvertiseNsReplica() {
  if (!name_server_) return OkStatus();
  NsEntry entry;
  entry.name = "sys/ns/" + std::to_string(AsIndex(options_.id));
  entry.kind = NsEntry::Kind::kOther;
  entry.id_bits = AsIndex(options_.id);
  entry.meta = "name-server replica; clf=" + endpoint_->addr().ToString();
  entry.owner_as = options_.id;
  return NsRegister(entry);
}

// --- threads -----------------------------------------------------------------------

ThreadId AddressSpace::Spawn(std::string name, std::function<void()> body) {
  ds::MutexLock lock(threads_mu_);
  const std::uint32_t slot = next_thread_slot_++;
  // The advisory name becomes the thread's log prefix; "" inherits
  // this address space's context.
  threads_.emplace_back(Thread(std::move(name), std::move(body)));
  return ThreadId(options_.id, slot);
}

void AddressSpace::JoinThreads() {
  for (;;) {
    std::vector<Thread> batch;
    {
      ds::MutexLock lock(threads_mu_);
      if (threads_.empty()) return;
      batch.swap(threads_);
    }
    for (auto& t : batch) {
      if (t.joinable()) t.join();
    }
  }
}

std::size_t AddressSpace::live_threads() const {
  ds::MutexLock lock(threads_mu_);
  return threads_.size();
}

}  // namespace dstampede::core

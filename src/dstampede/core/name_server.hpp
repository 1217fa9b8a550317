// Name server (paper §3.1): application threads register channels,
// queues and their intended use under string names; any thread that
// starts up anywhere in the Octopus can look them up to join the
// computation. This is the local registry object; it lives in one
// address space and is reached remotely through the STM wire protocol
// (and through the client protocol from end devices).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dstampede/common/clock.hpp"
#include "dstampede/common/status.hpp"
#include "dstampede/common/sync.hpp"
#include "dstampede/core/item.hpp"
#include "dstampede/core/wire.hpp"

namespace dstampede::core {

class NameServer {
 public:
  // Registers name -> entry. A duplicate name is an error: names are
  // the application's rendezvous points.
  Status Register(const NsEntry& entry);

  Status Unregister(const std::string& name);

  // Blocking lookup: waits until the name appears (dynamic start/stop —
  // a display thread can wait for the mixer's output channel to be
  // registered) or the deadline expires.
  Result<NsEntry> Lookup(const std::string& name,
                         Deadline deadline = Deadline::Poll());

  // Snapshot of all entries whose name begins with `prefix`.
  std::vector<NsEntry> List(const std::string& prefix = "") const;

  // Drops every entry registered by `owner` (failure recovery: a dead
  // address space's names must not satisfy later lookups). Returns how
  // many entries were removed.
  std::size_t PurgeOwner(AsId owner);

  std::size_t size() const;

  // --- End-device session registry (client resilience layer) ---
  //
  // Sessions live in a registry separate from named entries on
  // purpose: PurgeOwner destroys a dead space's *names*, but a
  // session record hosted on a dead space is exactly what a listener
  // needs to migrate the session to a live space. Records are
  // upserted (surrogates mirror after every state change); an upsert
  // never lowers the record's reply_ticket.
  Status PutSession(const SessionRecord& record);
  Result<SessionRecord> GetSession(std::uint64_t session_id) const;
  Status DropSession(std::uint64_t session_id);
  std::size_t session_count() const;

  // --- replication (core/replog.hpp) -----------------------------------
  //
  // Applies one replicated mutation. Every replica — leader included —
  // routes log entries through here, so the local and replicated write
  // paths share one state machine. Every Apply is deterministic and
  // commutes into the same final state on every replica that applies
  // the same log prefix; mutations that target missing state
  // (re-applied Unregister, drop of a dropped session) return their
  // usual error to the *caller* but leave all replicas identical. A
  // register or unregister tagged with a device session takes effect
  // once: a replay of the ticket in the session's reply_ticket is
  // answered OK without running, and one that takes effect sets it.
  Status Apply(const NsMutation& m);

  // --- observability ---------------------------------------------------
  std::uint64_t total_lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_purged() const {
    return purged_.load(std::memory_order_relaxed);
  }

 private:
  mutable ds::Mutex mu_{"name_server.mu"};
  ds::CondVar cv_;  // signalled on Register (Lookup blocks on it)
  std::map<std::string, NsEntry> entries_ DS_GUARDED_BY(mu_);
  std::map<std::uint64_t, SessionRecord> sessions_ DS_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> purged_{0};  // entries dropped by PurgeOwner

  // Whether `m` is a replay of its session's recorded mutation; after
  // `applied`, records its ticket. Untagged mutations are never replays.
  bool IsReplay(const NsMutation& m) const;
  void RecordTicket(const NsMutation& m, const Status& applied);
};

}  // namespace dstampede::core

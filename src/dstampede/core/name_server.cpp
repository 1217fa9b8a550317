#include "dstampede/core/name_server.hpp"

#include <algorithm>

namespace dstampede::core {

Status NameServer::Register(const NsEntry& entry) {
  {
    ds::MutexLock lock(mu_);
    if (entry.name.empty()) return InvalidArgumentError("empty name");
    auto [it, inserted] = entries_.emplace(entry.name, entry);
    (void)it;
    if (!inserted) return AlreadyExistsError("name registered: " + entry.name);
  }
  cv_.NotifyAll();
  return OkStatus();
}

Status NameServer::Unregister(const std::string& name) {
  ds::MutexLock lock(mu_);
  if (entries_.erase(name) == 0) return NotFoundError("name: " + name);
  return OkStatus();
}

Result<NsEntry> NameServer::Lookup(const std::string& name,
                                   Deadline deadline) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  ds::MutexLock lock(mu_);
  for (;;) {
    auto it = entries_.find(name);
    if (it != entries_.end()) return it->second;
    if (!deadline.infinite() && deadline.expired()) {
      return NotFoundError("name: " + name);
    }
    cv_.WaitUntil(mu_, deadline);
  }
}

std::vector<NsEntry> NameServer::List(const std::string& prefix) const {
  ds::MutexLock lock(mu_);
  std::vector<NsEntry> out;
  for (const auto& [name, entry] : entries_) {
    if (name.compare(0, prefix.size(), prefix) == 0) out.push_back(entry);
  }
  return out;
}

std::size_t NameServer::PurgeOwner(AsId owner) {
  ds::MutexLock lock(mu_);
  std::size_t purged = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.owner_as == owner) {
      it = entries_.erase(it);
      ++purged;
    } else {
      ++it;
    }
  }
  purged_.fetch_add(purged, std::memory_order_relaxed);
  return purged;
}

std::size_t NameServer::size() const {
  ds::MutexLock lock(mu_);
  return entries_.size();
}

Status NameServer::PutSession(const SessionRecord& record) {
  if (record.session_id == 0) return InvalidArgumentError("session id 0");
  ds::MutexLock lock(mu_);
  SessionRecord& stored = sessions_[record.session_id];
  const std::uint64_t ticket = std::max(stored.reply_ticket, record.reply_ticket);
  stored = record;
  stored.reply_ticket = ticket;
  return OkStatus();
}

Result<SessionRecord> NameServer::GetSession(std::uint64_t session_id) const {
  ds::MutexLock lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end())
    return NotFoundError("session: " + std::to_string(session_id));
  return it->second;
}

Status NameServer::DropSession(std::uint64_t session_id) {
  ds::MutexLock lock(mu_);
  if (sessions_.erase(session_id) == 0)
    return NotFoundError("session: " + std::to_string(session_id));
  return OkStatus();
}

std::size_t NameServer::session_count() const {
  ds::MutexLock lock(mu_);
  return sessions_.size();
}

bool NameServer::IsReplay(const NsMutation& m) const {
  if (m.session_id == 0) return false;
  ds::MutexLock lock(mu_);
  auto it = sessions_.find(m.session_id);
  return it != sessions_.end() && it->second.reply_ticket == m.ticket;
}

void NameServer::RecordTicket(const NsMutation& m, const Status& applied) {
  if (m.session_id == 0 || !applied.ok()) return;
  ds::MutexLock lock(mu_);
  auto it = sessions_.find(m.session_id);
  if (it != sessions_.end()) {
    it->second.reply_ticket = std::max(it->second.reply_ticket, m.ticket);
  }
}

Status NameServer::Apply(const NsMutation& m) {
  switch (m.kind) {
    case NsMutation::Kind::kRegister:
    case NsMutation::Kind::kUnregister: {
      if (IsReplay(m)) return OkStatus();
      Status applied = m.kind == NsMutation::Kind::kRegister
                           ? Register(m.entry)
                           : Unregister(m.name);
      RecordTicket(m, applied);
      return applied;
    }
    case NsMutation::Kind::kPurgeOwner:
      PurgeOwner(m.owner);
      return OkStatus();
    case NsMutation::Kind::kPutSession:
      return PutSession(m.session);
    case NsMutation::Kind::kDropSession:
      return DropSession(m.session_id);
  }
  return InternalError("bad NsMutation kind");
}

}  // namespace dstampede::core

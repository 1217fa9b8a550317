// Test-side inbox for CLF endpoints.
//
// clf::Endpoint delivers each message to a handler on its receiver
// thread. Tests that want to pull messages one at a time (with a
// deadline) create their endpoint through MakeInboxEndpoint, whose
// handler queues into an Inbox.
#pragma once

#include <deque>
#include <memory>
#include <utility>

#include "dstampede/clf/endpoint.hpp"

namespace dstampede::clf {

class Inbox {
 public:
  void Push(const transport::SockAddr& from, Buffer message) {
    {
      ds::MutexLock lock(mu_);
      queue_.emplace_back(from, std::move(message));
    }
    cv_.NotifyOne();
  }

  // Next delivered message, in delivery order; kTimeout at `deadline`.
  Status Recv(Buffer& out, transport::SockAddr& from,
              Deadline deadline = Deadline::Infinite()) {
    ds::MutexLock lock(mu_);
    while (queue_.empty()) {
      if (!cv_.WaitUntil(mu_, deadline) && queue_.empty()) {
        return TimeoutError("clf inbox recv");
      }
    }
    from = queue_.front().first;
    out = std::move(queue_.front().second);
    queue_.pop_front();
    return OkStatus();
  }

 private:
  ds::Mutex mu_{"test.clf_inbox.mu"};
  ds::CondVar cv_;
  std::deque<std::pair<transport::SockAddr, Buffer>> queue_
      DS_GUARDED_BY(mu_);
};

// An endpoint and the inbox its handler fills. `->` reaches the
// endpoint; Recv reads the inbox. The handler shares ownership of the
// inbox, so destruction order does not matter.
struct InboxEndpoint {
  std::shared_ptr<Inbox> inbox;
  std::unique_ptr<Endpoint> ep;

  Endpoint* operator->() const { return ep.get(); }
  Status Recv(Buffer& out, transport::SockAddr& from,
              Deadline deadline = Deadline::Infinite()) {
    return inbox->Recv(out, from, deadline);
  }
};

inline Result<InboxEndpoint> MakeInboxEndpoint(
    const Endpoint::Options& options = {}) {
  auto inbox = std::make_shared<Inbox>();
  auto ep = Endpoint::Create(
      options, [inbox](const transport::SockAddr& from, Buffer message) {
        inbox->Push(from, std::move(message));
      });
  if (!ep.ok()) return ep.status();
  return InboxEndpoint{std::move(inbox), std::move(ep).value()};
}

}  // namespace dstampede::clf

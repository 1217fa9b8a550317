#include "dstampede/common/clock.hpp"

#include <cassert>
#include <thread>

namespace dstampede {

namespace clock_internal {

std::atomic<VirtualClock*> g_virtual{nullptr};

void WallSleep(Duration d) {
  // Reaching a wall-clock sleep while a VirtualClock is installed
  // means a call site bypassed the seam (or cached a decision across
  // an Install): the simulated run would silently wait in real time.
  assert(InstalledVirtualClock() == nullptr &&
         "wall-clock sleep while a VirtualClock is installed");
  std::this_thread::sleep_for(d);
}

void WallSleepUntil(TimePoint until) {
  assert(InstalledVirtualClock() == nullptr &&
         "wall-clock sleep while a VirtualClock is installed");
  std::this_thread::sleep_until(until);
}

}  // namespace clock_internal

VirtualClock::VirtualClock(TimePoint start)
    : now_ticks_(start.time_since_epoch().count()) {}

VirtualClock::~VirtualClock() {
  if (installed()) Uninstall();
}

void VirtualClock::Install() {
  VirtualClock* expected = nullptr;
  const bool won = clock_internal::g_virtual.compare_exchange_strong(
      expected, this, std::memory_order_acq_rel);
  assert(won && "another VirtualClock is already installed");
  (void)won;
  installed_.store(true, std::memory_order_release);
}

void VirtualClock::Uninstall() {
  VirtualClock* expected = this;
  clock_internal::g_virtual.compare_exchange_strong(
      expected, nullptr, std::memory_order_acq_rel);
  installed_.store(false, std::memory_order_release);
  // Wake every virtual sleeper and timed wait: with the clock gone
  // they fall back to real-time behaviour instead of waiting for an
  // Advance that will never come.
  {
    // Notified under mu_: a waiter unregisters, and may then destroy its
    // condition variable, only under mu_.
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, cv] : timed_waits_) cv->notify_all();
  }
  sleep_cv_.notify_all();
}

void VirtualClock::AdvanceTo(TimePoint t) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::int64_t ticks = now_ticks_.load(std::memory_order_relaxed);
    const std::int64_t target = t.time_since_epoch().count();
    if (target > ticks) {
      now_ticks_.store(target, std::memory_order_release);
      ticks = target;
    }
    // Every due timed wait gets (re-)notified — including entries that
    // were already due, so a waiter whose notify raced its own sleep
    // is rescued by the controller's next step. Notified under mu_, as
    // in Uninstall.
    const TimePoint now{Duration(ticks)};
    for (const auto& [key, cv] : timed_waits_) {
      if (key.first > now) break;
      cv->notify_all();
    }
  }
  sleep_cv_.notify_all();
}

void VirtualClock::SleepUntil(TimePoint until) {
  std::unique_lock<std::mutex> lock(mu_);
  while (installed_.load(std::memory_order_acquire) && Now() < until) {
    auto it = sleep_targets_.insert(until);
    sleep_cv_.wait(lock);
    sleep_targets_.erase(it);
  }
}

VirtualClock::WaitToken VirtualClock::RegisterTimedWait(
    TimePoint when, std::condition_variable* cv) {
  std::lock_guard<std::mutex> lock(mu_);
  const WaitToken token = next_token_++;
  timed_waits_.emplace(std::make_pair(when, token), cv);
  return token;
}

void VirtualClock::UnregisterTimedWait(WaitToken token) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = timed_waits_.begin(); it != timed_waits_.end(); ++it) {
    if (it->first.second == token) {
      timed_waits_.erase(it);
      return;
    }
  }
}

std::optional<TimePoint> VirtualClock::NextEventTime() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<TimePoint> next;
  if (!timed_waits_.empty()) next = timed_waits_.begin()->first.first;
  if (!sleep_targets_.empty()) {
    const TimePoint s = *sleep_targets_.begin();
    if (!next || s < *next) next = s;
  }
  return next;
}

std::size_t VirtualClock::pending_waits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timed_waits_.size() + sleep_targets_.size();
}

Duration VirtualClock::AdvanceUntilQuiescent(
    Duration horizon, const std::function<bool()>& done, Duration max_step,
    Duration real_grace, Duration min_step) {
  const TimePoint start = Now();
  const TimePoint limit = start + horizon;
  while (Now() < limit) {
    if (done && done()) break;
    const std::optional<TimePoint> next = NextEventTime();
    TimePoint target;
    if (next.has_value()) {
      // Clamp into (now, now+max_step] so one huge timer far beyond
      // the horizon doesn't swallow the whole budget in one leap, and
      // already-due entries re-notify without moving time. min_step
      // (when nonzero) widens each step to cover a window of dense
      // deadlines under a single grace period.
      target = std::min({std::max(*next, Now() + min_step), Now() + max_step,
                         limit});
    } else if (done) {
      // Nothing registered but the caller still waits on progress that
      // real threads (socket receivers, dispatchers) must make: tick
      // time forward in quanta so their virtual deadlines keep
      // maturing.
      target = std::min(Now() + max_step, limit);
    } else {
      break;  // nothing pending, nothing awaited: quiescent
    }
    AdvanceTo(target);
    // Let the woken threads run far enough to act (send, complete,
    // register their next wait) before picking the next step.
    std::this_thread::sleep_for(real_grace);
  }
  return Now() - start;
}

}  // namespace dstampede

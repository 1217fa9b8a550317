// The benchmark's workloads. Each closed-loop workload builds its
// cluster in Setup (timed as set-up), then runs one exchange at a time;
// `videoconf` runs whole conferences through app::VideoConfApp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dstampede/client/listener.hpp"
#include "dstampede/common/ids.hpp"
#include "dstampede/core/runtime.hpp"

namespace perfbench {

// Per-call timings of one trial, by layer-call name ("as.put_us").
struct CallTimes {
  std::map<std::string, std::vector<double>> us;
  // (trace id, client-measured µs) of every traced client call, to pair
  // with the cluster-side "client.call" span of the same trace.
  std::vector<std::pair<std::uint64_t, double>> traced_client_calls;
};

// Counters a device client keeps on its own side of the link.
struct ClientCounters {
  double calls = 0.0;
  double reconnects = 0.0;
  double replays = 0.0;
};

class ClosedLoop {
 public:
  virtual ~ClosedLoop() = default;

  // Builds runtime, listener, device sessions and container
  // connections. Throws on failure.
  virtual void Setup(bool traced) = 0;
  // One exchange at timestamp `ts`: put, get (checked byte for byte
  // against the seeded pattern), consume. On success returns true and
  // sets `latency_us` (put-call start -> Get returns); on failure
  // returns false and sets `error`.
  virtual bool Exchange(dstampede::Timestamp ts, CallTimes& calls,
                        double& latency_us, std::string& error) = 0;
  // Output checks once the loop stopped (the queue workload checks
  // exactly-once delivery here). Returns "" when they pass.
  virtual std::string Check() { return ""; }
  virtual ClientCounters ReadClientCounters() const { return {}; }
  // Leaves, stops the listener and the runtime.
  virtual void Teardown() = 0;

  virtual dstampede::core::Runtime& runtime() = 0;
  // Payload bytes per exchange.
  virtual std::size_t payload_bytes() const = 0;
};

// Names accepted by MakeClosedLoop.
bool IsClosedLoop(const std::string& name);
std::unique_ptr<ClosedLoop> MakeClosedLoop(const std::string& name,
                                           std::uint64_t seed);

// --- videoconf ------------------------------------------------------------

struct Conference {
  double min_display_fps = 0.0;
  double total_display_fps = 0.0;
  std::int64_t frames = 0;  // composite frames delivered to each display
  std::string error;        // "" when the run and its checks passed
};

constexpr std::size_t kVideoConfImageBytes = 110 * 1024;

class VideoConf {
 public:
  void Setup();
  Conference RunOne();
  void Teardown();
  dstampede::core::Runtime& runtime() { return *runtime_; }

 private:
  std::unique_ptr<dstampede::core::Runtime> runtime_;
  std::unique_ptr<dstampede::client::Listener> listener_;
};

}  // namespace perfbench

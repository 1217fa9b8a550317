// Outside-in probes for the benchmark: sample statistics, process
// counters (getrusage, /proc/self/status), the counters every layer of
// the runtime already publishes, and the raw UDP/TCP/XDR baselines.
// Nothing here reaches into runtime internals: every read goes through
// a public accessor (AsStats, clf::EndpointStats, metrics::Registry,
// trace::SpanSink, CClient counters).
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "dstampede/common/bytes.hpp"
#include "dstampede/common/clock.hpp"
#include "dstampede/core/runtime.hpp"

namespace perfbench {

using dstampede::Buffer;
using dstampede::Duration;
using dstampede::TimePoint;

inline double Us(Duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double Secs(Duration d) {
  return std::chrono::duration<double>(d).count();
}

// Linear-interpolated quantile (q in [0,1]) of raw samples; 0 when
// empty. Exact samples, not histogram buckets, so a reported time
// carries all its digits.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// --- whole process --------------------------------------------------------

struct ProcSample {
  double cpu_s = 0.0;            // user + sys
  double minor_faults = 0.0;
  double ctx_switches = 0.0;     // voluntary + involuntary

  static ProcSample Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcSample s;
    s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                  1e6;
    s.minor_faults = static_cast<double>(ru.ru_minflt);
    s.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    return s;
  }
};

// Whole-host CPU time from /proc/stat, in clock ticks: all states, and
// the share the hypervisor ran other guests on this guest's CPUs
// (steal). A noise sentinel: steal during a window means the runtime's
// threads were not running when they were ready to.
struct HostCpu {
  double total = 0.0;
  double steal = 0.0;

  static HostCpu Now() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    double v[8] = {};
    in >> cpu;
    for (double& x : v) in >> x;
    HostCpu h;
    for (double x : v) h.total += x;
    h.steal = v[7];
    return h;
  }
  // Steal share of [before, this], in percent.
  double StealPctSince(const HostCpu& before) const {
    const double dt = total - before.total;
    return dt > 0 ? (steal - before.steal) * 100.0 / dt : 0.0;
  }
};

// A numeric field of /proc/self/status ("VmHWM", "Threads"); 0 when
// the file or field is missing.
inline double ProcStatusField(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr);
    }
  }
  return 0.0;
}

// --- the runtime's published counters -------------------------------------

// Sums, over every address space of a runtime, the counters the layers
// publish. Taken before and after a measured window; the difference
// divided by the ops completed gives exact per-op counts.
struct ClusterCounters {
  std::map<std::string, double> v;

  static ClusterCounters Read(dstampede::core::Runtime& rt) {
    ClusterCounters c;
    for (std::size_t i = 0; i < rt.size(); ++i) {
      dstampede::core::AddressSpace& as = rt.as(i);
      const auto& s = as.stats();
      c.v["core.remote_calls"] += static_cast<double>(s.remote_calls.load());
      c.v["core.requests_served"] +=
          static_cast<double>(s.requests_served.load());
      const auto& e = as.transport_stats();
      // First transmissions only; retransmits are counted on their own.
      c.v["clf.packets"] += static_cast<double>(e.data_packets_sent.load());
      c.v["clf.acks"] += static_cast<double>(e.acks_sent.load());
      c.v["clf.retransmits"] += static_cast<double>(e.retransmissions.load());
      c.v["clf.duplicates"] +=
          static_cast<double>(e.duplicates_discarded.load());
      auto& reg = as.metrics_registry();
      for (const char* name :
           {"dispatch.deferred",
            "dispatch.dropped_or_expired", "stm.puts", "stm.reclaimed_items",
            "surrogate.calls", "surrogate.redo_journaled",
            "surrogate.replay_cache_hits"}) {
        c.v[name] += static_cast<double>(reg.GetCounter(name).Value());
      }
      // Name-service mutations. A replicated control plane counts them
      // as replication-log appends; the paper's single name server
      // applies each one directly, and every such call ends in one
      // name-service op on the hosting space (callers elsewhere count
      // the same call again, so only the host is read).
      if (as.replication() != nullptr) {
        c.v["ns.log_appends"] +=
            static_cast<double>(as.replication()->log_appends());
      } else if (as.local_name_server() != nullptr) {
        c.v["ns.log_appends"] += static_cast<double>(s.ns_ops.load());
      }
    }
    return c;
  }

  double Delta(const ClusterCounters& before, const std::string& key) const {
    auto a = v.find(key);
    auto b = before.v.find(key);
    return (a == v.end() ? 0.0 : a->second) -
           (b == before.v.end() ? 0.0 : b->second);
  }
};

// Reads one pull-style provider gauge ("dispatcher.queue_depth") from a
// registry's JSON snapshot; providers are only visible there.
inline double ProviderValue(const std::string& registry_json,
                            const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = registry_json.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(registry_json.c_str() + at + key.size(), nullptr);
}

// --- raw baselines (the paper's comparison series) -------------------------

// Half a non-overlapping TCP ping-pong cycle at `size` bytes, median
// over `cycles` cycles, in microseconds.
double TcpHalfRttUs(std::size_t size, int cycles);
// Same over UDP; a leg larger than one datagram is sent as equal
// datagrams of at most 60000 bytes.
double UdpHalfRttUs(std::size_t size, int cycles);
// XDR opaque encode / decode of a `size`-byte payload, median of `reps`.
double XdrEncodeUs(std::size_t size, int reps);
double XdrDecodeUs(std::size_t size, int reps);

}  // namespace perfbench

// dsperf: the repository benchmark's measuring program.
//
//   dsperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for `seconds` measured seconds, split over several
// trials; every trial builds a fresh cluster (its set-up time is one
// setup_s sample), warms up, measures, checks its outputs and tears the
// cluster down. With --trace 0 every trial is untraced and the
// end-to-end metrics are reported; with --trace 1 untraced and traced
// trials alternate, the per-layer metrics come from the traced ones, and
// the untraced ones give the tracing overhead. Of the trials run, the
// ones during which the hypervisor stole the most CPU from this guest
// are dropped. Prints one JSON line.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dstampede/common/trace.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace ds = dstampede;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Trials run, untraced only (--trace 0) or alternating untraced and
// traced (--trace 1), and how many of them are reported: the ones with
// the least host steal over their window, as many of each kind.
constexpr int kTrialsRun = 24;
constexpr int kTrialsKept = 12;
// Untimed exchanges after set-up, before the window opens.
constexpr double kWarmupSeconds = 0.2;

// Layer counters whose per-op value the current code fixes exactly;
// every trial must read the same value.
const char* const kExactCounts[] = {
    "core.remote_calls_per_op", "clf.packets_per_op",
    "surrogate.calls_per_op", "surrogate.redo_journaled_per_op",
    "ns.log_appends_per_op"};

struct Trial {
  bool traced = false;
  double setup_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
  double ops = 0.0;
  std::vector<double> latency_us;
  double ops_s = 0.0;
  double display_fps = 0.0;
  double cpu_us_per_op = 0.0;
  double steal_pct = 0.0;  // host steal over the measured window
  std::map<std::string, double> layer;
};

// --- layer reads common to both kinds of workload --------------------------

// Reads dispatcher queue depth and parked waiters every 10 ms while a
// traced trial measures; both are pull gauges that only a snapshot
// evaluates.
class GaugeSampler {
 public:
  explicit GaugeSampler(ds::core::Runtime& rt) : rt_(rt) {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        double parked = 0.0;
        for (std::size_t i = 0; i < rt_.size(); ++i) {
          std::string json;
          rt_.as(i).metrics_registry().WriteJson(json);
          queue_depth_max_ = std::max(
              queue_depth_max_, ProviderValue(json, "dispatcher.queue_depth"));
          parked += ProviderValue(json, "containers.parked_waiters");
        }
        parked_max_ = std::max(parked_max_, parked);
        ds::SleepFor(ds::Millis(10));
      }
    });
  }
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;
  ~GaugeSampler() { Stop(); }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  double queue_depth_max() const { return queue_depth_max_; }
  double parked_max() const { return parked_max_; }

 private:
  ds::core::Runtime& rt_;
  std::atomic<bool> stop_{false};
  double queue_depth_max_ = 0.0;  // written by thread_, read after Stop
  double parked_max_ = 0.0;
  std::thread thread_;
};

// The histogram with the most samples among `names` on every space, as
// (p50, p90); zeros when none has any.
std::pair<double, double> BusiestHistogram(ds::core::Runtime& rt,
                                           const std::vector<std::string>& names) {
  const ds::metrics::Histogram* best = nullptr;
  for (std::size_t i = 0; i < rt.size(); ++i) {
    for (const std::string& name : names) {
      const auto& h = rt.as(i).metrics_registry().GetHistogram(name);
      if (best == nullptr || h.Count() > best->Count()) best = &h;
    }
  }
  if (best == nullptr || best->Count() == 0) return {0.0, 0.0};
  return {static_cast<double>(best->Percentile(50)),
          static_cast<double>(best->Percentile(90))};
}

void ReadHistograms(ds::core::Runtime& rt, Trial& t) {
  std::vector<std::string> rtt_names;
  for (std::size_t j = 0; j < rt.size(); ++j) {
    rtt_names.push_back("clf.rtt_us." + rt.as(j).clf_addr().ToString());
  }
  t.layer["clf.rtt_us_p50"] = BusiestHistogram(rt, rtt_names).first;
  const auto lag = BusiestHistogram(rt, {"stm.reclaim_lag_us"});
  t.layer["stm.reclaim_lag_us_p50"] = lag.first;
  t.layer["stm.reclaim_lag_us_p90"] = lag.second;
}

// Per-op layer counts over a measured window of `ops` operations.
void ReadCounts(const ClusterCounters& before, const ClusterCounters& after,
                double ops, Trial& t) {
  auto per_op = [&](const char* key) { return after.Delta(before, key) / ops; };
  t.layer["core.remote_calls_per_op"] = per_op("core.remote_calls");
  t.layer["core.requests_served_per_op"] = per_op("core.requests_served");
  t.layer["clf.packets_per_op"] = per_op("clf.packets");
  t.layer["clf.acks_per_op"] = per_op("clf.acks");
  t.layer["clf.retransmits_per_op"] = per_op("clf.retransmits");
  t.layer["clf.duplicates_per_op"] = per_op("clf.duplicates");
  t.layer["dispatch.deferred_per_op"] = per_op("dispatch.deferred");
  t.layer["surrogate.calls_per_op"] = per_op("surrogate.calls");
  t.layer["surrogate.redo_journaled_per_op"] = per_op("surrogate.redo_journaled");
  t.layer["ns.log_appends_per_op"] = per_op("ns.log_appends");
  const double puts = after.Delta(before, "stm.puts");
  t.layer["stm.reclaimed_per_put"] =
      puts > 0 ? after.Delta(before, "stm.reclaimed_items") / puts : 0.0;
  // Whole-trial totals: any of these is an event worth seeing.
  t.layer["dispatch.dropped_or_expired"] = after.v.at("dispatch.dropped_or_expired");
  t.layer["surrogate.replay_cache_hits"] = after.v.at("surrogate.replay_cache_hits");
}

void ReadProcess(const ProcSample& before, const ProcSample& after, double ops,
                 Trial& t) {
  t.cpu_us_per_op = (after.cpu_s - before.cpu_s) * 1e6 / ops;
  t.layer["proc.ctx_switches_per_op"] =
      (after.ctx_switches - before.ctx_switches) / ops;
  t.layer["proc.minor_faults_per_op"] =
      (after.minor_faults - before.minor_faults) / ops;
  t.layer["proc.threads"] = ProcStatusField("Threads");
}

// Span durations by name, self times and drops, from every space's
// span sink. `client_calls` pairs client-measured call times with the
// cluster-side client.call span of the same trace.
void ReadSpans(ds::core::Runtime& rt,
               const std::vector<std::pair<std::uint64_t, double>>& client_calls,
               Trial& t) {
  std::vector<ds::trace::Span> spans;
  double dropped = 0.0;
  for (std::size_t i = 0; i < rt.size(); ++i) {
    auto& sink = rt.as(i).span_sink();
    auto snap = sink.Snapshot();
    spans.insert(spans.end(), snap.begin(), snap.end());
    dropped += static_cast<double>(sink.dropped());
  }
  std::map<std::string, std::vector<double>> by_name;
  std::unordered_map<std::uint64_t, double> child_us;  // parent span -> sum
  std::unordered_map<std::uint64_t, double> client_span_us;  // trace -> µs
  for (const auto& s : spans) {
    const double us = Us(s.duration);
    by_name[s.name].push_back(us);
    child_us[s.parent_span_id] += us;
    if (s.name == "client.call") client_span_us[s.trace_id] = us;
  }
  std::vector<double> surrogate_self;
  for (const auto& s : spans) {
    if (s.name != "surrogate.dispatch") continue;
    auto c = child_us.find(s.span_id);
    surrogate_self.push_back(Us(s.duration) -
                             (c == child_us.end() ? 0.0 : c->second));
  }
  std::vector<double> link_self;
  for (const auto& [trace_id, us] : client_calls) {
    auto s = client_span_us.find(trace_id);
    if (s != client_span_us.end()) link_self.push_back(us - s->second);
  }
  t.layer["span.client_call_us"] = Median(by_name["client.call"]);
  t.layer["span.surrogate_dispatch_us"] = Median(by_name["surrogate.dispatch"]);
  t.layer["span.owner_serve_us"] = Median(by_name["owner.serve"]);
  t.layer["span.owner_parked_us"] = Median(by_name["owner.parked"]);
  t.layer["self.surrogate_us"] = Median(surrogate_self);
  t.layer["self.device_link_us"] = Median(link_self);
  t.layer["trace.spans_dropped"] = dropped;
}

// Brackets one measured window: layer counters and process counters
// at both ends, and the gauge sampler while a traced trial measures.
class Window {
 public:
  Window(ds::core::Runtime& rt, bool traced, double seconds)
      : rt_(rt),
        sampler_(traced ? std::make_unique<GaugeSampler>(rt) : nullptr),
        counters0_(ClusterCounters::Read(rt)),
        proc0_(ProcSample::Now()),
        host0_(HostCpu::Now()),
        start_(ds::Now()),
        end_(start_ + ds::Micros(static_cast<std::int64_t>(seconds * 1e6))) {}

  bool open() const { return ds::Now() < end_; }

  // Closes the window over `ops` completed operations and records its
  // per-op counts, process counters, histograms and gauges into `t`.
  // Returns the window's length in seconds.
  double Close(double ops, Trial& t) {
    const double elapsed = Secs(ds::Now() - start_);
    t.steal_pct = HostCpu::Now().StealPctSince(host0_);
    const ProcSample proc1 = ProcSample::Now();
    const ClusterCounters counters1 = ClusterCounters::Read(rt_);
    if (sampler_) {
      sampler_->Stop();
      t.layer["dispatcher.queue_depth_max"] = sampler_->queue_depth_max();
      t.layer["containers.parked_waiters_max"] = sampler_->parked_max();
    }
    if (ops > 0) {
      ReadCounts(counters0_, counters1, ops, t);
      ReadProcess(proc0_, proc1, ops, t);
      ReadHistograms(rt_, t);
    }
    return elapsed;
  }

 private:
  ds::core::Runtime& rt_;
  std::unique_ptr<GaugeSampler> sampler_;
  const ClusterCounters counters0_;
  const ProcSample proc0_;
  const HostCpu host0_;
  const TimePoint start_;
  const TimePoint end_;
};

// --- closed-loop trial ------------------------------------------------------

Trial RunClosedTrial(ClosedLoop& w, bool traced, double measure_s) {
  Trial t;
  t.traced = traced;
  const TimePoint s0 = ds::Now();
  w.Setup(traced);
  t.setup_s = Secs(ds::Now() - s0);

  CallTimes calls;
  ds::Timestamp ts = 0;
  double latency = 0.0;
  auto exchange = [&](bool record) {
    ++t.attempted;
    if (!w.Exchange(ts++, calls, latency, t.error)) {
      ++t.failed;
      return false;
    }
    if (record) t.latency_us.push_back(latency);
    return true;
  };

  bool ok = true;
  const TimePoint warm_end = ds::Now() + ds::Micros(static_cast<std::int64_t>(
                                             kWarmupSeconds * 1e6));
  while (ok && ds::Now() < warm_end) ok = exchange(false);
  calls = CallTimes{};

  const ClientCounters client0 = w.ReadClientCounters();
  Window window(w.runtime(), traced, measure_s);
  while (ok && (window.open() || t.latency_us.empty())) ok = exchange(true);
  t.ops = static_cast<double>(t.latency_us.size());
  const double elapsed = window.Close(t.ops, t);
  const ClientCounters client1 = w.ReadClientCounters();

  if (ok) {
    const std::string check = w.Check();
    if (!check.empty()) {
      t.error = check;
      ++t.failed;
    }
  }
  if (t.ops > 0) {
    t.ops_s = t.ops / elapsed;
    t.display_fps = t.ops_s;
    t.layer["client.calls_per_op"] = (client1.calls - client0.calls) / t.ops;
    t.layer["client.reconnects"] = client1.reconnects;
    t.layer["client.replays"] = client1.replays;
    for (const char* name : {"as.put_us", "as.get_us", "as.consume_us",
                             "client.put_us", "client.get_us",
                             "client.consume_us"}) {
      t.layer[name] = Median(calls.us[name]);
    }
  }
  if (traced) ReadSpans(w.runtime(), calls.traced_client_calls, t);
  w.Teardown();
  return t;
}

// --- videoconf trial ----------------------------------------------------------

Trial RunVideoConfTrial(bool traced, double measure_s) {
  Trial t;
  t.traced = traced;
  VideoConf vc;
  const TimePoint s0 = ds::Now();
  vc.Setup();
  t.setup_s = Secs(ds::Now() - s0);

  // One untimed conference warms the cluster.
  ++t.attempted;
  Conference warm = vc.RunOne();
  if (!warm.error.empty()) {
    ++t.failed;
    t.error = warm.error;
    vc.Teardown();
    return t;
  }

  Window window(vc.runtime(), traced, measure_s);
  std::vector<double> min_fps;
  std::vector<double> total_fps;
  while (window.open() || min_fps.empty()) {
    ++t.attempted;
    Conference c = vc.RunOne();
    if (!c.error.empty()) {
      ++t.failed;
      t.error = c.error;
      break;
    }
    t.ops += static_cast<double>(c.frames);
    min_fps.push_back(c.min_display_fps);
    total_fps.push_back(c.total_display_fps);
    // A conference's frame period at its slowest display.
    t.latency_us.push_back(1e6 / c.min_display_fps);
  }
  window.Close(t.ops, t);
  if (t.ops > 0) {
    t.display_fps = Median(min_fps);
    t.ops_s = Median(total_fps);
  }
  if (traced) ReadSpans(vc.runtime(), {}, t);
  vc.Teardown();
  return t;
}

// --- reporting ----------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},         {"latency_p50_us", "us"},
    {"latency_p90_us", "us"}, {"ops_s", "1/s"},
    {"display_fps", "1/s"},   {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},
};

const Metric kPerLayer[] = {
    {"transport.udp_half_rtt_us", "us"},
    {"transport.tcp_half_rtt_us", "us"},
    {"marshal.xdr_encode_us", "us"},
    {"marshal.xdr_decode_us", "us"},
    {"clf.rtt_us_p50", "us"},
    {"clf.packets_per_op", "count"},
    {"clf.acks_per_op", "count"},
    {"clf.retransmits_per_op", "count"},
    {"clf.duplicates_per_op", "count"},
    {"as.put_us", "us"},
    {"as.get_us", "us"},
    {"as.consume_us", "us"},
    {"core.remote_calls_per_op", "count"},
    {"core.requests_served_per_op", "count"},
    {"dispatch.deferred_per_op", "count"},
    {"dispatcher.queue_depth_max", "count"},
    {"dispatch.dropped_or_expired", "count"},
    {"containers.parked_waiters_max", "count"},
    {"stm.reclaim_lag_us_p50", "us"},
    {"stm.reclaim_lag_us_p90", "us"},
    {"stm.reclaimed_per_put", "ratio"},
    {"ns.log_appends_per_op", "count"},
    {"client.put_us", "us"},
    {"client.get_us", "us"},
    {"client.consume_us", "us"},
    {"client.calls_per_op", "count"},
    {"client.reconnects", "count"},
    {"client.replays", "count"},
    {"surrogate.calls_per_op", "count"},
    {"surrogate.redo_journaled_per_op", "count"},
    {"surrogate.replay_cache_hits", "count"},
    {"proc.ctx_switches_per_op", "count"},
    {"proc.minor_faults_per_op", "count"},
    {"proc.threads", "count"},
    {"span.client_call_us", "us"},
    {"span.surrogate_dispatch_us", "us"},
    {"span.owner_serve_us", "us"},
    {"span.owner_parked_us", "us"},
    {"self.device_link_us", "us"},
    {"self.surrogate_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans_dropped", "count"},
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// Appends `item` to a comma-separated JSON list body.
void Append(std::string& list, const std::string& item) {
  if (!list.empty()) list += ',';
  list += item;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

template <typename Pick>
double MedianOf(const std::vector<Trial>& trials, bool traced, Pick pick) {
  std::vector<double> v;
  for (const Trial& t : trials) {
    if (t.traced == traced) v.push_back(pick(t));
  }
  return Median(std::move(v));
}

int Run(const Args& args) {
  const bool closed = IsClosedLoop(args.workload);
  if (!closed && args.workload != "videoconf") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::unique_ptr<ClosedLoop> loop =
      closed ? MakeClosedLoop(args.workload, args.seed) : nullptr;
  const std::size_t bytes = closed ? loop->payload_bytes() : kVideoConfImageBytes;

  // Raw baselines in this process, before the runtime's threads exist.
  std::map<std::string, double> baselines;
  baselines["transport.udp_half_rtt_us"] = UdpHalfRttUs(bytes, 1000);
  baselines["transport.tcp_half_rtt_us"] = TcpHalfRttUs(bytes, 1000);
  baselines["marshal.xdr_encode_us"] = XdrEncodeUs(bytes, 2000);
  baselines["marshal.xdr_decode_us"] = XdrDecodeUs(bytes, 2000);

  const double measure_s = args.seconds / kTrialsRun;
  std::vector<Trial> run;
  std::uint64_t attempted = 0;
  for (int i = 0; i < kTrialsRun; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    run.push_back(closed ? RunClosedTrial(*loop, traced, measure_s)
                         : RunVideoConfTrial(traced, measure_s));
    const Trial& t = run.back();
    attempted += t.attempted;
    std::fprintf(stderr,
                 "dsperf: trial %d%s setup %.6f s, %.0f ops, p50 %.3f us, "
                 "%.1f cpu us/op, steal %.2f%%\n",
                 i, traced ? " (traced)" : "", t.setup_s, t.ops,
                 Quantile(t.latency_us, 0.5), t.cpu_us_per_op, t.steal_pct);
    if (t.failed != 0) break;  // the run is wrong; stop
  }
  // Keep the least-stolen trials of each kind. Only the host's steal
  // decides, never a trial's own results; a failed run keeps them all.
  std::vector<Trial> trials;
  if (run.back().failed != 0) {
    trials = run;
  } else {
    std::stable_sort(run.begin(), run.end(), [](const Trial& a, const Trial& b) {
      return a.steal_pct < b.steal_pct;
    });
    const int per_kind = args.trace ? kTrialsKept / 2 : kTrialsKept;
    int kept[2] = {0, 0};
    for (const Trial& t : run) {
      if (kept[t.traced]++ < per_kind) trials.push_back(t);
    }
  }

  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  for (const Trial& t : trials) {
    failed += t.failed;
    if (!t.error.empty()) errors.push_back(t.error);
  }

  // Exact per-op counts must read the same in every trial run.
  bool counts_repeat = true;
  std::string counts_json;
  if (closed && failed == 0) {
    for (const char* key : kExactCounts) {
      const double first = run.front().layer.at(key);
      for (const Trial& t : run) {
        if (t.layer.at(key) != first) {
          counts_repeat = false;
          errors.push_back(std::string(key) + " varied between trials: " +
                           Num(first) + " vs " + Num(t.layer.at(key)));
        }
      }
      Append(counts_json, Quote(key) + ":" + Num(first));
    }
  }
  const bool correct = failed == 0 && counts_repeat;

  std::map<std::string, double> values;
  if (!args.trace) {
    values["setup_s"] = MedianOf(trials, false, [](const Trial& t) { return t.setup_s; });
    values["latency_p50_us"] = MedianOf(
        trials, false, [](const Trial& t) { return Quantile(t.latency_us, 0.5); });
    values["latency_p90_us"] = MedianOf(
        trials, false, [](const Trial& t) { return Quantile(t.latency_us, 0.9); });
    values["ops_s"] = MedianOf(trials, false, [](const Trial& t) { return t.ops_s; });
    values["display_fps"] =
        MedianOf(trials, false, [](const Trial& t) { return t.display_fps; });
    values["cpu_us_per_op"] =
        MedianOf(trials, false, [](const Trial& t) { return t.cpu_us_per_op; });
    values["peak_rss_mb"] = ProcStatusField("VmHWM") / 1024.0;
  } else {
    values = baselines;
    for (const Metric& m : kPerLayer) {
      if (values.count(m.name) != 0) continue;
      values[m.name] = MedianOf(trials, true, [&](const Trial& t) {
        auto it = t.layer.find(m.name);
        return it == t.layer.end() ? 0.0 : it->second;
      });
    }
    const double untraced_p50 = MedianOf(
        trials, false, [](const Trial& t) { return Quantile(t.latency_us, 0.5); });
    const double traced_p50 = MedianOf(
        trials, true, [](const Trial& t) { return Quantile(t.latency_us, 0.5); });
    values["trace.overhead_pct"] =
        untraced_p50 > 0 ? (traced_p50 - untraced_p50) * 100.0 / untraced_p50 : 0.0;
  }

  std::string metrics;
  for (const Metric& m : args.trace ? std::vector<Metric>(std::begin(kPerLayer),
                                                          std::end(kPerLayer))
                                    : std::vector<Metric>(std::begin(kEndToEnd),
                                                          std::end(kEndToEnd))) {
    Append(metrics, Quote(m.name) + ":{\"value\":" + Num(values[m.name]) +
                        ",\"unit\":" + Quote(m.unit) + "}");
  }
  std::string baseline_json;
  for (const auto& [name, v] : baselines) {
    Append(baseline_json, Quote(name) + ":" + Num(v));
  }
  // Per-trial noise sentinel and headline latency, for reading a row.
  std::string steal_json;
  std::string p50_json;
  for (const Trial& t : trials) {
    Append(steal_json, Num(t.steal_pct));
    Append(p50_json, Num(Quantile(t.latency_us, 0.5)));
  }
  std::string errors_json;
  for (std::size_t i = 0; i < errors.size() && i < 8; ++i) {
    Append(errors_json, Quote(errors[i]));
  }
  std::string out = "{\"workload\":" + Quote(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"seconds\":" + Num(args.seconds) +
                    ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ",\"payload_bytes\":" + std::to_string(bytes) +
                    ",\"trials_run\":" + std::to_string(run.size()) +
                    ",\"trials_kept\":" + std::to_string(trials.size()) +
                    ",\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"error_rate\":" +
                    Num(attempted ? static_cast<double>(failed) / attempted : 0.0) +
                    ",\"errors\":[" + errors_json + "]" +
                    ",\"exact_counts\":{" + counts_json + "}" +
                    ",\"baselines\":{" + baseline_json + "}" +
                    ",\"trial_steal_pct\":[" + steal_json + "]" +
                    ",\"trial_p50_us\":[" + p50_json + "]" +
                    ",\"metrics\":{" + metrics + "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: dsperf --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsperf: %s\n", e.what());
    return 1;
  }
}

#include "workloads.hpp"

#include <cstring>
#include <optional>
#include <stdexcept>

#include "dstampede/app/videoconf.hpp"
#include "dstampede/client/client.hpp"
#include "dstampede/common/trace.hpp"
#include "probes.hpp"

namespace perfbench {

namespace ds = dstampede;
using ds::Timestamp;
using ds::core::ConnMode;
using ds::core::GetSpec;

namespace {

template <typename T>
T Must(ds::Result<T> r, const char* what) {
  if (!r.ok()) {
    throw std::runtime_error(std::string(what) + ": " + r.status().ToString());
  }
  return std::move(r).value();
}

// Generous per-op deadline: a closed loop never waits on a peer that
// is alive, so hitting it means the exchange failed.
ds::Deadline OpDeadline() { return ds::Deadline::AfterMillis(10000); }

// The seeded payload of every timestamp: one of 16 seed-derived
// pattern blocks, with the timestamp mixed into the first 8 bytes so
// each item is unique to its timestamp. Precomputed, so building an
// item costs one copy outside the timed window.
class PatternBook {
 public:
  PatternBook(std::uint64_t seed, std::size_t bytes) : seed_(seed) {
    for (std::uint64_t i = 0; i < kBlocks; ++i) {
      Buffer block(bytes);
      ds::FillPattern(block, seed * 0x9E3779B97F4A7C15ull + i);
      blocks_.push_back(std::move(block));
    }
  }

  Buffer For(Timestamp ts) const {
    Buffer out = blocks_[static_cast<std::size_t>(ts) % kBlocks];
    const std::uint64_t tag = static_cast<std::uint64_t>(ts) ^ seed_;
    std::memcpy(out.data(), &tag, std::min(sizeof(tag), out.size()));
    return out;
  }

  std::size_t bytes() const { return blocks_.front().size(); }

 private:
  static constexpr std::uint64_t kBlocks = 16;
  std::uint64_t seed_;
  std::vector<Buffer> blocks_;
};

bool SameBytes(const ds::SharedBuffer& got, const Buffer& want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), want.size()) == 0;
}

// Times one layer call into `calls.us[name]`.
template <typename Fn>
auto Timed(CallTimes& calls, const char* name, Fn&& fn) {
  const TimePoint t0 = ds::Now();
  auto result = fn();
  calls.us[name].push_back(Us(ds::Now() - t0));
  return result;
}

// Same, for a device-client call: when the session stamps traces, the
// call's trace id is kept to pair it with its cluster-side span.
template <typename Fn>
auto TimedClient(CallTimes& calls, const char* name,
                 ds::client::CClient& client, bool traced, Fn&& fn) {
  const TimePoint t0 = ds::Now();
  auto result = fn();
  const double us = Us(ds::Now() - t0);
  calls.us[name].push_back(us);
  if (traced) calls.traced_client_calls.emplace_back(client.last_trace_id(), us);
  return result;
}

std::unique_ptr<ds::client::CClient> JoinDevice(
    const ds::client::Listener& listener, const char* name, int host_as,
    bool traced) {
  ds::client::CClient::Options opts;
  opts.server = listener.addr();
  opts.name = name;
  opts.preferred_as = host_as;
  opts.trace_calls = traced;
  auto client = Must(ds::client::CClient::Join(opts), "device join");
  if (client->host_as() != static_cast<ds::AsId>(host_as)) {
    throw std::runtime_error(std::string(name) + " landed on the wrong space");
  }
  return client;
}

// Shared plumbing: the runtime (and listener, for device workloads), the
// seeded payloads and the exchange's two connections.
class ClusterBase : public ClosedLoop {
 public:
  ClusterBase(std::uint64_t seed, std::size_t bytes) : book_(seed, bytes) {}

  ds::core::Runtime& runtime() override { return *runtime_; }
  std::size_t payload_bytes() const override { return book_.bytes(); }

 protected:
  void StartRuntime(std::size_t spaces, bool with_listener) {
    ds::core::Runtime::Options opts;
    opts.num_address_spaces = spaces;
    runtime_ = Must(ds::core::Runtime::Create(opts), "runtime");
    if (with_listener) {
      listener_ = Must(ds::client::Listener::Start(*runtime_), "listener");
    }
  }

  void StopRuntime() {
    if (listener_) listener_->Shutdown();
    if (runtime_) runtime_->Shutdown();
    listener_.reset();
    runtime_.reset();
  }

  static bool Fail(std::string& error, const char* what, const ds::Status& s) {
    error = std::string(what) + ": " + s.ToString();
    return false;
  }

  PatternBook book_;
  bool traced_ = false;
  std::unique_ptr<ds::core::Runtime> runtime_;
  std::unique_ptr<ds::client::Listener> listener_;
  ds::core::Connection out_;
  ds::core::Connection in_;
};

// cluster_exchange: AS0 puts into a channel owned by AS1; AS1 gets and
// consumes it (the paper's Experiment 1).
class ClusterExchange final : public ClusterBase {
 public:
  explicit ClusterExchange(std::uint64_t seed) : ClusterBase(seed, 1000) {}

  void Setup(bool traced) override {
    traced_ = traced;
    StartRuntime(2, /*with_listener=*/false);
    auto& producer = runtime_->as(0);
    auto& consumer = runtime_->as(1);
    const ds::ChannelId ch = Must(consumer.CreateChannel(), "channel");
    out_ = Must(producer.Connect(ch, ConnMode::kOutput), "connect out");
    in_ = Must(consumer.Connect(ch, ConnMode::kInput), "connect in");
  }

  bool Exchange(Timestamp ts, CallTimes& calls, double& latency_us,
                std::string& error) override {
    // A sampled context on the driver thread makes the runtime record
    // owner.serve spans for this exchange, on both spaces.
    std::optional<ds::trace::ScopedContext> ctx;
    if (traced_) {
      ctx.emplace(ds::trace::TraceContext{ds::trace::NewId(),
                                          ds::trace::NewId(),
                                          ds::trace::TraceContext::kSampled});
    }
    auto& producer = runtime_->as(0);
    auto& consumer = runtime_->as(1);
    const Buffer want = book_.For(ts);
    Buffer payload = want;
    const TimePoint t0 = ds::Now();
    ds::Status put = Timed(calls, "as.put_us", [&] {
      return producer.Put(out_, ts, std::move(payload), OpDeadline());
    });
    if (!put.ok()) return Fail(error, "put", put);
    auto item = Timed(calls, "as.get_us", [&] {
      return consumer.Get(in_, GetSpec::Exact(ts), OpDeadline());
    });
    latency_us = Us(ds::Now() - t0);
    if (!item.ok()) return Fail(error, "get", item.status());
    if (item->timestamp != ts || !SameBytes(item->payload, want)) {
      error = "get returned the wrong item at ts " + std::to_string(ts);
      return false;
    }
    ds::Status consume =
        Timed(calls, "as.consume_us", [&] { return consumer.Consume(in_, ts); });
    if (!consume.ok()) return Fail(error, "consume", consume);
    return true;
  }

  void Teardown() override { StopRuntime(); }
};

// Device workloads: a producer and a consumer CClient.
class DeviceBase : public ClusterBase {
 public:
  using ClusterBase::ClusterBase;

  ClientCounters ReadClientCounters() const override {
    ClientCounters c;
    for (const auto* client : {producer_.get(), consumer_.get()}) {
      if (client == nullptr) continue;
      c.calls += static_cast<double>(client->calls_made());
      c.reconnects += static_cast<double>(client->reconnects());
      c.replays += static_cast<double>(client->replays());
    }
    return c;
  }

  void Teardown() override {
    for (auto* client : {producer_.get(), consumer_.get()}) {
      if (client != nullptr) (void)client->Leave();
    }
    producer_.reset();
    consumer_.reset();
    StopRuntime();
  }

 protected:
  std::unique_ptr<ds::client::CClient> producer_;
  std::unique_ptr<ds::client::CClient> consumer_;
};

// device_stream: Experiment 2 configuration 3 at 55 KB. The producer
// device, hosted on AS0, puts into its channel on AS0; the consumer
// device, hosted on AS1, gets and consumes.
class DeviceStream final : public DeviceBase {
 public:
  explicit DeviceStream(std::uint64_t seed) : DeviceBase(seed, 55000) {}

  void Setup(bool traced) override {
    traced_ = traced;
    StartRuntime(2, /*with_listener=*/true);
    producer_ = JoinDevice(*listener_, "producer", 0, traced);
    consumer_ = JoinDevice(*listener_, "consumer", 1, traced);
    const ds::ChannelId ch = Must(producer_->CreateChannel(), "channel");
    out_ = Must(producer_->Connect(ch, ConnMode::kOutput), "connect out");
    in_ = Must(consumer_->Connect(ch, ConnMode::kInput), "connect in");
  }

  bool Exchange(Timestamp ts, CallTimes& calls, double& latency_us,
                std::string& error) override {
    const Buffer want = book_.For(ts);
    Buffer payload = want;
    const TimePoint t0 = ds::Now();
    ds::Status put = TimedClient(calls, "client.put_us", *producer_, traced_, [&] {
      return producer_->Put(out_, ts, std::move(payload), OpDeadline());
    });
    if (!put.ok()) return Fail(error, "put", put);
    auto item = TimedClient(calls, "client.get_us", *consumer_, traced_, [&] {
      return consumer_->Get(in_, GetSpec::Exact(ts), OpDeadline());
    });
    latency_us = Us(ds::Now() - t0);
    if (!item.ok()) return Fail(error, "get", item.status());
    if (item->timestamp != ts || !SameBytes(item->payload, want)) {
      error = "get returned the wrong item at ts " + std::to_string(ts);
      return false;
    }
    ds::Status consume =
        TimedClient(calls, "client.consume_us", *consumer_, traced_,
                    [&] { return consumer_->Consume(in_, ts); });
    if (!consume.ok()) return Fail(error, "consume", consume);
    return true;
  }
};

// device_queue: destructive reads from a queue owned by AS1. Producer
// and consumer devices are both hosted on AS0, so every Get is a
// remote destructive read and takes the exactly-once path.
class DeviceQueue final : public DeviceBase {
 public:
  explicit DeviceQueue(std::uint64_t seed) : DeviceBase(seed, 1000) {}

  void Setup(bool traced) override {
    traced_ = traced;
    put_ = 0;
    delivered_.clear();
    duplicates_ = 0;
    StartRuntime(2, /*with_listener=*/true);
    const ds::QueueId q = Must(runtime_->as(1).CreateQueue(), "queue");
    producer_ = JoinDevice(*listener_, "producer", 0, traced);
    consumer_ = JoinDevice(*listener_, "consumer", 0, traced);
    out_ = Must(producer_->Connect(q, ConnMode::kOutput), "connect out");
    in_ = Must(consumer_->Connect(q, ConnMode::kInput), "connect in");
  }

  bool Exchange(Timestamp ts, CallTimes& calls, double& latency_us,
                std::string& error) override {
    const Buffer want = book_.For(ts);
    Buffer payload = want;
    const TimePoint t0 = ds::Now();
    ds::Status put = TimedClient(calls, "client.put_us", *producer_, traced_, [&] {
      return producer_->Put(out_, ts, std::move(payload), OpDeadline());
    });
    if (!put.ok()) return Fail(error, "put", put);
    ++put_;
    auto item = TimedClient(calls, "client.get_us", *consumer_, traced_,
                            [&] { return consumer_->Get(in_, OpDeadline()); });
    latency_us = Us(ds::Now() - t0);
    if (!item.ok()) return Fail(error, "get", item.status());
    if (!Deliver(item->timestamp)) {
      error = "item " + std::to_string(item->timestamp) + " delivered twice";
      return false;
    }
    // Closed loop: the only item in the queue is the one just put.
    if (item->timestamp != ts || !SameBytes(item->payload, want)) {
      error = "get returned the wrong item at ts " + std::to_string(ts);
      return false;
    }
    // A journaled read is consumed on delivery, so the explicit Consume
    // may answer kNotFound (docs/FAILURES.md); any other error fails.
    ds::Status consume =
        TimedClient(calls, "client.consume_us", *consumer_, traced_,
                    [&] { return consumer_->Consume(in_, item->timestamp); });
    if (!consume.ok() && consume.code() != ds::StatusCode::kNotFound) {
      return Fail(error, "consume", consume);
    }
    return true;
  }

  // Every put item was delivered exactly once and the queue is empty.
  std::string Check() override {
    std::uint64_t delivered = 0;
    for (bool d : delivered_) delivered += d ? 1 : 0;
    if (duplicates_ != 0) return "queue delivered an item twice";
    if (delivered != put_) {
      return "queue lost items: put " + std::to_string(put_) + ", delivered " +
             std::to_string(delivered);
    }
    auto extra = consumer_->Get(in_, ds::Deadline::AfterMillis(50));
    if (extra.ok()) {
      return "queue still held item " + std::to_string(extra->timestamp);
    }
    return "";
  }

 private:
  bool Deliver(Timestamp ts) {
    if (ts < 0) return false;
    const auto i = static_cast<std::size_t>(ts);
    if (i >= delivered_.size()) delivered_.resize(i + 1, false);
    if (delivered_[i]) {
      ++duplicates_;
      return false;
    }
    delivered_[i] = true;
    return true;
  }

  std::uint64_t put_ = 0;
  std::vector<bool> delivered_;
  std::uint64_t duplicates_ = 0;
};

}  // namespace

bool IsClosedLoop(const std::string& name) {
  return name == "cluster_exchange" || name == "device_stream" ||
         name == "device_queue";
}

std::unique_ptr<ClosedLoop> MakeClosedLoop(const std::string& name,
                                           std::uint64_t seed) {
  if (name == "cluster_exchange") return std::make_unique<ClusterExchange>(seed);
  if (name == "device_stream") return std::make_unique<DeviceStream>(seed);
  if (name == "device_queue") return std::make_unique<DeviceQueue>(seed);
  return nullptr;
}

// --- videoconf -------------------------------------------------------------

namespace {
// Frames per conference, and the leading frames left out of its rate.
constexpr Timestamp kConferenceFrames = 80;
constexpr Timestamp kConferenceWarmup = 16;
}  // namespace

void VideoConf::Setup() {
  // The Figure 14 configuration: three spaces, the mixer on AS2.
  ds::core::Runtime::Options opts;
  opts.num_address_spaces = 3;
  opts.dispatcher_threads = 16;
  opts.gc_interval = ds::Millis(10);
  runtime_ = Must(ds::core::Runtime::Create(opts), "runtime");
  listener_ = Must(ds::client::Listener::Start(*runtime_), "listener");
}

Conference VideoConf::RunOne() {
  ds::app::VideoConfConfig config;
  config.num_clients = 2;
  config.image_bytes = kVideoConfImageBytes;
  config.multithreaded_mixer = false;
  config.mixer_as = 2;
  config.channel_capacity = 16;
  config.num_frames = kConferenceFrames;
  config.warmup_frames = kConferenceWarmup;
  config.producer_fps = 0.0;  // cameras free-run
  config.validate_frames = true;
  Conference c;
  auto report = ds::app::VideoConfApp::Run(*runtime_, *listener_, config);
  if (!report.ok()) {
    c.error = "conference: " + report.status().ToString();
    return c;
  }
  c.frames = report->frames_completed;
  c.min_display_fps = report->min_display_fps;
  for (double fps : report->display_fps) c.total_display_fps += fps;
  if (report->frames_completed != kConferenceFrames) {
    c.error = "conference completed " +
              std::to_string(report->frames_completed) + " of " +
              std::to_string(kConferenceFrames) + " frames";
  } else if (report->display_fps.size() != config.num_clients) {
    c.error = "conference reported " +
              std::to_string(report->display_fps.size()) + " displays";
  } else {
    for (double fps : report->display_fps) {
      if (!(fps > 0.0)) c.error = "a display received no frames";
    }
  }
  return c;
}

void VideoConf::Teardown() {
  if (listener_) listener_->Shutdown();
  if (runtime_) runtime_->Shutdown();
  listener_.reset();
  runtime_.reset();
}

}  // namespace perfbench

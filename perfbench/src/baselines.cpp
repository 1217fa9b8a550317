// Raw transport and marshalling baselines, run in the same process as
// each workload: the paper's reference series (raw UDP and TCP
// exchanges, §5.1) and a noise sentinel for the run — no runtime change
// should move them, so when they move the host was perturbed.
#include <stdexcept>

#include "dstampede/marshal/xdr.hpp"
#include "dstampede/transport/tcp.hpp"
#include "dstampede/transport/udp.hpp"
#include "probes.hpp"

namespace perfbench {

namespace ds = dstampede;

namespace {

template <typename T>
T Must(ds::Result<T> r, const char* what) {
  if (!r.ok()) throw std::runtime_error(std::string(what) + ": " +
                                        r.status().ToString());
  return std::move(r).value();
}

void Must(const ds::Status& s, const char* what) {
  if (!s.ok()) throw std::runtime_error(std::string(what) + ": " + s.ToString());
}

constexpr std::size_t kMaxDatagram = 60000;

}  // namespace

double TcpHalfRttUs(std::size_t size, int cycles) {
  Buffer out(size);
  ds::FillPattern(out, size);
  Buffer in(size);
  auto listener = Must(ds::transport::TcpListener::Bind(0), "tcp bind");
  auto a = Must(ds::transport::TcpConnection::Connect(listener.bound_addr()),
                "tcp connect");
  auto b = Must(listener.Accept(ds::Deadline::AfterMillis(5000)), "tcp accept");
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(cycles));
  for (int i = -cycles / 10; i < cycles; ++i) {  // first tenth warms up
    const TimePoint t0 = ds::Now();
    Must(a.SendAll(out), "tcp send");
    Must(b.RecvExact(in, ds::Deadline::AfterMillis(5000)), "tcp recv");
    Must(b.SendAll(out), "tcp reply");
    Must(a.RecvExact(in, ds::Deadline::AfterMillis(5000)), "tcp reply recv");
    if (i >= 0) samples.push_back(Us(ds::Now() - t0) / 2.0);
  }
  return Median(std::move(samples));
}

double UdpHalfRttUs(std::size_t size, int cycles) {
  const std::size_t pieces = (size + kMaxDatagram - 1) / kMaxDatagram;
  const std::size_t piece = (size + pieces - 1) / pieces;
  Buffer out(piece);
  ds::FillPattern(out, size);
  Buffer in;
  auto a = Must(ds::transport::UdpSocket::Bind(0), "udp bind");
  auto b = Must(ds::transport::UdpSocket::Bind(0), "udp bind");
  ds::transport::SockAddr from;
  // One leg: every datagram out, every datagram in. A loopback drop
  // (rare) fails the leg; the caller re-runs the cycle untimed.
  auto leg = [&](ds::transport::UdpSocket& src,
                 ds::transport::UdpSocket& dst) {
    for (std::size_t p = 0; p < pieces; ++p) {
      Must(src.SendTo(dst.bound_addr(), out), "udp send");
    }
    for (std::size_t p = 0; p < pieces; ++p) {
      if (!dst.RecvFrom(in, from, ds::Deadline::AfterMillis(200)).ok()) {
        return false;
      }
    }
    return true;
  };
  auto drain = [&](ds::transport::UdpSocket& s) {
    while (s.RecvFrom(in, from, ds::Deadline::AfterMillis(20)).ok()) {
    }
  };
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(cycles));
  int drops = 0;
  for (int i = -cycles / 10; i < cycles; ++i) {
    const TimePoint t0 = ds::Now();
    if (!leg(a, b) || !leg(b, a)) {
      if (++drops > 50) throw std::runtime_error("udp baseline keeps dropping");
      drain(a);
      drain(b);
      --i;
      continue;
    }
    if (i >= 0) samples.push_back(Us(ds::Now() - t0) / 2.0);
  }
  return Median(std::move(samples));
}

double XdrEncodeUs(std::size_t size, int reps) {
  Buffer payload(size);
  ds::FillPattern(payload, size);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  std::size_t sink = 0;
  for (int i = 0; i < reps; ++i) {
    const TimePoint t0 = ds::Now();
    ds::marshal::XdrEncoder enc(size + 16);
    enc.PutOpaque(payload);
    Buffer frame = enc.Take();
    samples.push_back(Us(ds::Now() - t0));
    sink += frame.size();
  }
  if (sink == 0) throw std::runtime_error("xdr encode produced nothing");
  return Median(std::move(samples));
}

double XdrDecodeUs(std::size_t size, int reps) {
  Buffer payload(size);
  ds::FillPattern(payload, size);
  ds::marshal::XdrEncoder enc(size + 16);
  enc.PutOpaque(payload);
  const Buffer frame = enc.Take();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const TimePoint t0 = ds::Now();
    ds::marshal::XdrDecoder dec(frame);
    Buffer got = Must(dec.GetOpaque(), "xdr decode");
    samples.push_back(Us(ds::Now() - t0));
    if (got.size() != size) throw std::runtime_error("xdr decode size");
  }
  return Median(std::move(samples));
}

}  // namespace perfbench

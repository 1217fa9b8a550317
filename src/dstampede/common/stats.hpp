// Sustained-rate meters for the applications and examples (the
// frames/sec metric of §5.2). Latency distributions live in
// metrics::Histogram.
#pragma once

#include <cstdint>

#include "dstampede/common/clock.hpp"

namespace dstampede {

// Measures a sustained event rate over a wall-clock window, e.g. the
// frames/sec seen by a display thread.
class RateMeter {
 public:
  void Start() { start_ = Now(); events_ = 0; }
  void Tick() { ++events_; }
  void TickN(std::uint64_t n) { events_ += n; }
  std::uint64_t events() const { return events_; }
  double ElapsedSeconds() const;
  // Events per second since Start(); zero if no time elapsed.
  double Rate() const;

 private:
  TimePoint start_ = Now();
  std::uint64_t events_ = 0;
};

}  // namespace dstampede

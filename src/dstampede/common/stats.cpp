#include "dstampede/common/stats.hpp"

#include <chrono>

namespace dstampede {

double RateMeter::ElapsedSeconds() const {
  return std::chrono::duration<double>(Now() - start_).count();
}

double RateMeter::Rate() const {
  const double secs = ElapsedSeconds();
  return secs > 0 ? static_cast<double>(events_) / secs : 0.0;
}

}  // namespace dstampede

// Core value types of space-time memory: items, get specifications,
// connection modes, container attributes, name-server entries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dstampede/common/bytes.hpp"
#include "dstampede/common/ids.hpp"
#include "dstampede/common/metrics.hpp"

namespace dstampede::core {

// Registry instruments an address space hands to every container it
// creates (set_metrics). All pointers are stable for the container's
// lifetime; null pointers (standalone containers in tests/benches)
// skip instrumentation entirely — including the clock read that feeds
// the reclaim-lag histogram, so uninstrumented hot paths pay nothing.
struct StmMetrics {
  metrics::Counter* puts = nullptr;
  metrics::Counter* gets = nullptr;
  metrics::Counter* reclaimed = nullptr;
  metrics::Histogram* reclaim_lag_us = nullptr;  // put -> reclaim, microseconds
};

// What a get() returns: the timestamp the item was put with and a
// shared, immutable view of its payload.
struct ItemView {
  Timestamp timestamp = kInvalidTimestamp;
  SharedBuffer payload;
};

// A thread connects to a channel/queue for input and/or output
// (paper §3.1). The mode is checked on every operation.
enum class ConnMode : std::uint8_t {
  kInput = 1,
  kOutput = 2,
  kInputOutput = 3,
};
inline bool CanInput(ConnMode m) {
  return m == ConnMode::kInput || m == ConnMode::kInputOutput;
}
inline bool CanOutput(ConnMode m) {
  return m == ConnMode::kOutput || m == ConnMode::kInputOutput;
}

// How a get() selects an item. Channels allow random access by
// timestamp; the extra selectors express the common stream idioms.
struct GetSpec {
  enum class Kind : std::uint8_t {
    kExact = 0,     // the item with exactly this timestamp (waits for it)
    kOldest = 1,    // lowest-timestamp item this connection hasn't consumed
    kNewest = 2,    // highest-timestamp item this connection hasn't consumed
    kNextAfter = 3, // lowest timestamp strictly greater than ts
  };
  Kind kind = Kind::kExact;
  Timestamp ts = 0;

  static GetSpec Exact(Timestamp t) { return {Kind::kExact, t}; }
  static GetSpec Oldest() { return {Kind::kOldest, 0}; }
  static GetSpec Newest() { return {Kind::kNewest, 0}; }
  static GetSpec NextAfter(Timestamp t) { return {Kind::kNextAfter, t}; }

  bool operator==(const GetSpec&) const = default;
};

// User-defined filtering on an input connection — the "selective
// attention" extension the paper lists as future work (§6). A filtered
// connection only sees items matching the filter; everything else is
// invisible to its gets AND carries no GC claim from this connection
// (an item the connection can never see must not be kept alive for it).
//
// The filter is declarative so it can cross the wire to a container's
// owner address space (code cannot).
struct ItemFilter {
  // Timestamp must satisfy ts % stride == phase (stride >= 1).
  Timestamp stride = 1;
  Timestamp phase = 0;
  // Inclusive timestamp window.
  Timestamp ts_min = INT64_MIN;
  Timestamp ts_max = INT64_MAX;
  // Payload size bounds (bytes, inclusive).
  std::uint64_t min_bytes = 0;
  std::uint64_t max_bytes = UINT64_MAX;

  // Timestamp-only predicate: decidable before an item exists, used to
  // reject exact gets for timestamps the filter can never show.
  bool MatchesTs(Timestamp ts) const {
    if (stride > 1) {
      Timestamp mod = ts % stride;
      if (mod < 0) mod += stride;
      if (mod != phase) return false;
    }
    return ts >= ts_min && ts <= ts_max;
  }

  bool Matches(Timestamp ts, std::size_t payload_bytes) const {
    return MatchesTs(ts) && payload_bytes >= min_bytes &&
           payload_bytes <= max_bytes;
  }

  bool operator==(const ItemFilter&) const = default;

  bool IsPassAll() const {
    return stride <= 1 && ts_min == INT64_MIN && ts_max == INT64_MAX &&
           min_bytes == 0 && max_bytes == UINT64_MAX;
  }
};

struct ChannelAttr {
  // 0 = unbounded. Otherwise puts block while the channel holds this
  // many live (unreclaimed) items — back-pressure for pipelines.
  std::size_t capacity_items = 0;
  std::string debug_name;
};

struct QueueAttr {
  std::size_t capacity_items = 0;  // 0 = unbounded
  std::string debug_name;
};

// What the name server stores (paper §3.1: "names of channels and
// queues, as well as their intended use").
struct NsEntry {
  enum class Kind : std::uint8_t { kChannel = 0, kQueue = 1, kOther = 2 };
  std::string name;
  Kind kind = Kind::kOther;
  std::uint64_t id_bits = 0;  // ChannelId/QueueId bits
  std::string meta;           // free-form "intended use" description
  // Which address space registered the entry. Stamped by the runtime on
  // registration when the caller leaves it invalid (clients do); the
  // failure-recovery path purges every entry owned by a dead space.
  AsId owner_as = kInvalidAsId;
  bool operator==(const NsEntry&) const = default;
};

// Durable, replayable record of an end-device session, mirrored by the
// surrogate into the name server's session registry so that *any*
// listener in the cluster can rehydrate the session after a dropped
// connection or the death of the surrogate's host address space
// (paper §3.2: tentacles "are naturally mobile and may need dynamic
// reconfiguration").
struct SessionAttachment {
  std::uint64_t container_bits = 0;  // channel or queue id bits
  bool is_queue = false;
  std::uint8_t mode = 0;   // ConnMode bits as sent on the wire
  std::uint32_t slot = 0;  // surrogate-local slot the client holds
  std::string label;       // debug aid
  bool operator==(const SessionAttachment&) const = default;
};

struct SessionGcInterest {
  std::uint64_t container_bits = 0;
  bool is_queue = false;
  bool operator==(const SessionGcInterest&) const = default;
};

struct SessionRecord {
  std::uint64_t session_id = 0;
  std::uint32_t client_kind = 0;  // ClientKind bits from the Hello
  std::string client_name;
  AsId host_as = kInvalidAsId;  // AS currently hosting the surrogate
  std::vector<SessionAttachment> attachments;
  std::vector<SessionGcInterest> gc_interests;
  std::vector<std::string> registered_names;
  // The session's reply slot for name-service mutations: the ticket
  // (client request id) of the device's last NsRegister/NsUnregister
  // that took effect, written by the same log entry as the mutation.
  // A replay of that ticket is answered OK instead of running again.
  // It never decreases. Ticket 0 = empty slot.
  std::uint64_t reply_ticket = 0;
  bool operator==(const SessionRecord&) const = default;
};

// Reclamation notice produced by the garbage collector and delivered
// to GC handlers (and forwarded to end devices by their surrogates).
struct GcNotice {
  std::uint64_t container_bits = 0;  // channel or queue id bits
  bool is_queue = false;
  Timestamp timestamp = kInvalidTimestamp;
  std::size_t payload_size = 0;
};

}  // namespace dstampede::core

// NameServer: registration lifecycle, blocking lookups (dynamic
// start/stop rendezvous), prefix listing.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dstampede/core/name_server.hpp"
#include "dstampede/core/wire.hpp"

namespace dstampede::core {
namespace {

NsEntry Entry(const std::string& name, std::uint64_t bits = 1,
              NsEntry::Kind kind = NsEntry::Kind::kChannel) {
  return NsEntry{name, kind, bits, "test"};
}

TEST(NameServerTest, RegisterAndLookup) {
  NameServer ns;
  ASSERT_TRUE(ns.Register(Entry("video/in/0", 42)).ok());
  auto found = ns.Lookup("video/in/0");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->id_bits, 42u);
  EXPECT_EQ(found->kind, NsEntry::Kind::kChannel);
  EXPECT_EQ(found->meta, "test");
}

TEST(NameServerTest, DuplicateNameRejected) {
  NameServer ns;
  ASSERT_TRUE(ns.Register(Entry("x")).ok());
  EXPECT_EQ(ns.Register(Entry("x")).code(), StatusCode::kAlreadyExists);
}

TEST(NameServerTest, EmptyNameRejected) {
  NameServer ns;
  EXPECT_EQ(ns.Register(Entry("")).code(), StatusCode::kInvalidArgument);
}

TEST(NameServerTest, MissingNameNotFound) {
  NameServer ns;
  EXPECT_EQ(ns.Lookup("ghost").status().code(), StatusCode::kNotFound);
}

TEST(NameServerTest, UnregisterRemoves) {
  NameServer ns;
  ASSERT_TRUE(ns.Register(Entry("x")).ok());
  ASSERT_TRUE(ns.Unregister("x").ok());
  EXPECT_EQ(ns.Lookup("x").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ns.Unregister("x").code(), StatusCode::kNotFound);
}

TEST(NameServerTest, ReRegisterAfterUnregister) {
  NameServer ns;
  ASSERT_TRUE(ns.Register(Entry("x", 1)).ok());
  ASSERT_TRUE(ns.Unregister("x").ok());
  ASSERT_TRUE(ns.Register(Entry("x", 2)).ok());
  EXPECT_EQ(ns.Lookup("x")->id_bits, 2u);
}

TEST(NameServerTest, BlockingLookupWaitsForRegistration) {
  // The dynamic start/stop rendezvous: a consumer waits for a producer
  // that has not registered yet.
  NameServer ns;
  std::thread registrar([&] {
    std::this_thread::sleep_for(Millis(30));
    ASSERT_TRUE(ns.Register(Entry("late", 77)).ok());
  });
  auto found = ns.Lookup("late", Deadline::AfterMillis(5000));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->id_bits, 77u);
  registrar.join();
}

TEST(NameServerTest, BlockingLookupTimesOut) {
  NameServer ns;
  auto found = ns.Lookup("never", Deadline::AfterMillis(50));
  EXPECT_EQ(found.status().code(), StatusCode::kNotFound);
}

TEST(NameServerTest, ListByPrefix) {
  NameServer ns;
  ASSERT_TRUE(ns.Register(Entry("video/in/0")).ok());
  ASSERT_TRUE(ns.Register(Entry("video/in/1")).ok());
  ASSERT_TRUE(ns.Register(Entry("video/out")).ok());
  ASSERT_TRUE(ns.Register(Entry("audio/in/0")).ok());
  EXPECT_EQ(ns.List("video/in/").size(), 2u);
  EXPECT_EQ(ns.List("video/").size(), 3u);
  EXPECT_EQ(ns.List("").size(), 4u);
  EXPECT_EQ(ns.List("nothing").size(), 0u);
  EXPECT_EQ(ns.size(), 4u);
}

TEST(NameServerTest, StoresIntendedUse) {
  NameServer ns;
  NsEntry entry{"mic/0", NsEntry::Kind::kQueue, 5,
                "raw audio samples, 16kHz mono"};
  ASSERT_TRUE(ns.Register(entry).ok());
  EXPECT_EQ(ns.Lookup("mic/0")->meta, "raw audio samples, 16kHz mono");
  EXPECT_EQ(ns.Lookup("mic/0")->kind, NsEntry::Kind::kQueue);
}

// --- session registry (end-device session resilience) -----------------

SessionRecord Session(std::uint64_t id, std::uint64_t ticket = 0) {
  SessionRecord record;
  record.session_id = id;
  record.client_name = "dev";
  record.host_as = static_cast<AsId>(1);
  record.reply_ticket = ticket;
  return record;
}

// A device's register of `name`, tagged with its session and ticket.
NsMutation TaggedRegister(const std::string& name, std::uint64_t session,
                          std::uint64_t ticket) {
  NsMutation m;
  m.kind = NsMutation::Kind::kRegister;
  m.entry = Entry(name);
  m.session_id = session;
  m.ticket = ticket;
  return m;
}

// Asserts the session's stored reply slot holds `ticket`.
void ExpectSlot(const NameServer& ns, std::uint64_t id,
                std::uint64_t ticket) {
  auto got = ns.GetSession(id);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->reply_ticket, ticket);
}

TEST(SessionRegistryTest, PutGetDropLifecycle) {
  NameServer ns;
  EXPECT_EQ(ns.GetSession(7).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(ns.PutSession(Session(7, 3)).ok());
  EXPECT_EQ(ns.session_count(), 1u);
  auto got = ns.GetSession(7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->reply_ticket, 3u);
  EXPECT_EQ(got->client_name, "dev");
  ASSERT_TRUE(ns.DropSession(7).ok());
  EXPECT_EQ(ns.GetSession(7).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ns.DropSession(7).code(), StatusCode::kNotFound);
}

TEST(SessionRegistryTest, StaleMirrorNeverRewindsTicket) {
  NameServer ns;
  ASSERT_TRUE(ns.PutSession(Session(7, 10)).ok());
  // A full-record mirror that raced an older snapshot updates the rest
  // of the record but must not move the reply slot backwards.
  SessionRecord stale = Session(7, 4);
  stale.client_name = "dev-moved";
  ASSERT_TRUE(ns.PutSession(stale).ok());
  ExpectSlot(ns, 7, 10);
  EXPECT_EQ(ns.GetSession(7)->client_name, "dev-moved");
  // A surrogate's mirror carries no ticket: the slot is kept.
  ASSERT_TRUE(ns.PutSession(Session(7)).ok());
  ExpectSlot(ns, 7, 10);
  // A tagged mutation that takes effect moves the slot forward; one
  // with a lower ticket still applies but leaves the slot alone.
  ASSERT_TRUE(ns.Apply(TaggedRegister("a", 7, 12)).ok());
  ExpectSlot(ns, 7, 12);
  ASSERT_TRUE(ns.Apply(TaggedRegister("b", 7, 11)).ok());
  ExpectSlot(ns, 7, 12);
  ASSERT_TRUE(ns.PutSession(Session(7, 12)).ok());  // same ticket: kept
  ExpectSlot(ns, 7, 12);
  // A tagged mutation of an unknown session applies and records nothing.
  ASSERT_TRUE(ns.Apply(TaggedRegister("c", 99, 1)).ok());
  EXPECT_EQ(ns.GetSession(99).status().code(), StatusCode::kNotFound);
}

TEST(SessionRegistryTest, TaggedMutationTakesEffectOnce) {
  NameServer ns;
  ASSERT_TRUE(ns.PutSession(Session(7)).ok());
  // A replayed register is answered OK, not kAlreadyExists.
  ASSERT_TRUE(ns.Apply(TaggedRegister("cam/0", 7, 3)).ok());
  EXPECT_TRUE(ns.Apply(TaggedRegister("cam/0", 7, 3)).ok());
  EXPECT_EQ(ns.List("cam/").size(), 1u);
  // A replayed unregister is answered OK, not kNotFound.
  NsMutation unregister;
  unregister.kind = NsMutation::Kind::kUnregister;
  unregister.name = "cam/0";
  unregister.session_id = 7;
  unregister.ticket = 4;
  ASSERT_TRUE(ns.Apply(unregister).ok());
  EXPECT_TRUE(ns.Apply(unregister).ok());
  EXPECT_EQ(ns.List("cam/").size(), 0u);
  ExpectSlot(ns, 7, 4);
  // A mutation that fails records nothing, so its replay runs again.
  ASSERT_TRUE(ns.Register(Entry("taken")).ok());
  EXPECT_EQ(ns.Apply(TaggedRegister("taken", 7, 5)).code(),
            StatusCode::kAlreadyExists);
  ExpectSlot(ns, 7, 4);
  EXPECT_EQ(ns.Apply(TaggedRegister("taken", 7, 5)).code(),
            StatusCode::kAlreadyExists);
  // Untagged mutations are never replays.
  ASSERT_TRUE(ns.Apply(TaggedRegister("plain", 0, 0)).ok());
  EXPECT_EQ(ns.Apply(TaggedRegister("plain", 0, 0)).code(),
            StatusCode::kAlreadyExists);
}

TEST(SessionRegistryTest, PurgeOwnerRacesSessionUpdate) {
  // Control-plane HA: when a peer dies, the (leader) replica appends a
  // PurgeOwner while surrogates keep mirroring session state. The two
  // interleave arbitrarily in the log; whatever the order, purges must
  // only ever touch names and reply slots must never rewind.
  NameServer ns;
  const AsId dead = static_cast<AsId>(2);
  constexpr std::uint64_t kRounds = 500;

  std::thread purger([&] {
    for (std::uint64_t i = 0; i < kRounds; ++i) {
      NsEntry entry = Entry("owned/" + std::to_string(i));
      entry.owner_as = dead;
      ASSERT_TRUE(ns.Register(entry).ok());
      ns.PurgeOwner(dead);
    }
  });
  std::thread mirrorer([&] {
    ASSERT_TRUE(ns.PutSession(Session(7, 1)).ok());
    for (std::uint64_t t = 2; t <= kRounds; ++t) {
      // Alternate full-record mirrors and tagged device registers, the
      // two write shapes a live session emits.
      if (t % 2 == 0) {
        ASSERT_TRUE(ns.PutSession(Session(7)).ok());
      } else {
        ASSERT_TRUE(
            ns.Apply(TaggedRegister("dev/" + std::to_string(t), 7, t)).ok());
      }
    }
  });
  purger.join();
  mirrorer.join();

  // Every purged round removed its name; the session survived them all
  // with the reply slot of the highest ticket that took effect.
  ns.PurgeOwner(dead);
  EXPECT_EQ(ns.List("owned/").size(), 0u);
  ExpectSlot(ns, 7, kRounds - 1);
}

TEST(SessionRegistryTest, TicketMonotoneAcrossLeaderChange) {
  // Two replicas driven by the same mutation log (encoded/decoded as
  // on the wire). The follower catches up *after* the leader dies —
  // and the client's first post-failover mirror may carry a snapshot
  // older than the last entry the old leader journaled. The reply slot
  // must never rewind on either replica.
  NameServer old_leader;
  NameServer new_leader;
  std::vector<Buffer> log;
  auto append = [&](const NsMutation& m) {
    log.push_back(EncodeNsMutation(m));
    auto decoded = DecodeNsMutation(log.back());
    ASSERT_TRUE(decoded.ok());
    (void)old_leader.Apply(*decoded);
  };

  NsMutation put;
  put.kind = NsMutation::Kind::kPutSession;
  put.session = Session(7, 5);
  append(put);
  append(TaggedRegister("a", 7, 9));
  append(TaggedRegister("b", 7, 12));
  ExpectSlot(old_leader, 7, 12);

  // Leader change: the new leader replays the full log.
  for (const Buffer& entry : log) {
    auto decoded = DecodeNsMutation(entry);
    ASSERT_TRUE(decoded.ok());
    (void)new_leader.Apply(*decoded);
  }
  ExpectSlot(new_leader, 7, 12);
  EXPECT_EQ(new_leader.List("").size(), 2u);

  // Stale post-failover writes: a re-delivered log entry and a client
  // mirror snapshotted before the crash. Both leave the slot alone, and
  // the re-delivered register is answered as a replay.
  EXPECT_TRUE(new_leader.Apply(TaggedRegister("b", 7, 12)).ok());
  NsMutation stale_put;
  stale_put.kind = NsMutation::Kind::kPutSession;
  stale_put.session = Session(7, 4);
  ASSERT_TRUE(new_leader.Apply(stale_put).ok());
  ExpectSlot(new_leader, 7, 12);
}

TEST(SessionRegistryTest, PurgeOwnerLeavesSessionsAlone) {
  // PR 1's peer-death purge removes the dead space's *name* entries;
  // session records must survive it — they are the failover state.
  NameServer ns;
  NsEntry entry = Entry("owned/x");
  entry.owner_as = static_cast<AsId>(2);
  ASSERT_TRUE(ns.Register(entry).ok());
  ASSERT_TRUE(ns.PutSession(Session(7)).ok());
  ns.PurgeOwner(static_cast<AsId>(2));
  EXPECT_EQ(ns.Lookup("owned/x").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(ns.GetSession(7).ok());
}

}  // namespace
}  // namespace dstampede::core

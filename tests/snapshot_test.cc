// Binary snapshot format: round-trip fidelity (graph, policy, checkpointed
// baselines), warm-start equivalence through attack::BaselineCache, and the
// corruption contract — a truncated file, flipped bit, wrong magic, or
// version skew yields a clean error string, never UB.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "attack/baseline_cache.h"
#include "attack/impact.h"
#include "bgp/propagation.h"
#include "data/snapshot.h"
#include "topology/generator.h"
#include "topology/serialization.h"
#include "util/crc32.h"

namespace asppi::data {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "asppi_snapshot_test_" + name;
}

topo::GeneratedTopology SmallTopology(std::uint64_t seed = 7) {
  topo::GeneratorParams params;
  params.seed = seed;
  params.num_tier1 = 4;
  params.num_tier2 = 15;
  params.num_tier3 = 40;
  params.num_stubs = 120;
  params.num_content = 3;
  return topo::GenerateInternetTopology(params);
}

bool SameGraph(const topo::AsGraph& a, const topo::AsGraph& b) {
  if (a.NumAses() != b.NumAses() || a.NumLinks() != b.NumLinks()) return false;
  for (topo::Asn asn : a.Ases()) {
    if (!b.HasAs(asn)) return false;
    for (const auto& neighbor : a.NeighborsOf(asn)) {
      const auto rel = b.RelationOf(asn, neighbor.asn);
      if (!rel.has_value() || *rel != neighbor.rel) return false;
    }
  }
  return true;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Snapshot, RoundTripsGraphAndPolicy) {
  const auto gen = SmallTopology();
  bgp::PrependPolicy policy;
  policy.SetDefault(gen.tier1[0], 4);
  policy.SetDefault(gen.stubs[0], 2);
  policy.SetForNeighbor(gen.stubs[0], gen.tier1[1], 6);

  const std::string path = TempPath("roundtrip.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, policy, {}, "snapshot_test"),
            "");

  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  EXPECT_TRUE(SameGraph(gen.graph, snapshot.Graph()));
  EXPECT_EQ(policy.KeyString(), snapshot.Policy().KeyString());
  EXPECT_EQ(snapshot.Info().version, kSnapshotVersion);
  EXPECT_EQ(snapshot.Info().creator, "snapshot_test");
  EXPECT_EQ(snapshot.Info().num_ases, gen.graph.NumAses());
  EXPECT_EQ(snapshot.Info().num_links, gen.graph.NumLinks());
  EXPECT_EQ(snapshot.Info().num_baselines, 0u);
  EXPECT_TRUE(snapshot.Baselines().empty());
  std::remove(path.c_str());
}

TEST(Snapshot, SniffFileRoutesFormats) {
  const auto gen = SmallTopology();
  const std::string snap_path = TempPath("sniff.snap");
  const std::string text_path = TempPath("sniff.topo");
  ASSERT_EQ(WriteSnapshotFile(snap_path, gen.graph, {}, {}, "t"), "");
  topo::WriteAsRelFile(gen.graph, text_path);
  EXPECT_TRUE(Snapshot::SniffFile(snap_path));
  EXPECT_FALSE(Snapshot::SniffFile(text_path));
  EXPECT_FALSE(Snapshot::SniffFile(TempPath("does_not_exist")));
  std::remove(snap_path.c_str());
  std::remove(text_path.c_str());
}

TEST(Snapshot, RoundTripsBaselinesExactly) {
  const auto gen = SmallTopology(11);
  const topo::Asn origin1 = gen.stubs[3];
  const topo::Asn origin2 = gen.tier1[0];

  bgp::PropagationSimulator engine(gen.graph);
  std::vector<std::shared_ptr<const bgp::PropagationResult>> baselines;
  for (topo::Asn origin : {origin1, origin2}) {
    bgp::Announcement announcement;
    announcement.origin = origin;
    announcement.prepends.SetDefault(origin, 4);
    baselines.push_back(std::make_shared<const bgp::PropagationResult>(
        engine.Run(announcement)));
  }

  const std::string path = TempPath("baselines.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, baselines, "t"), "");
  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  ASSERT_EQ(snapshot.Baselines().size(), 2u);

  for (std::size_t i = 0; i < baselines.size(); ++i) {
    const bgp::PropagationResult& original = *baselines[i];
    const bgp::PropagationResult& restored = *snapshot.Baselines()[i];
    EXPECT_EQ(original.GetAnnouncement().origin,
              restored.GetAnnouncement().origin);
    EXPECT_EQ(original.GetAnnouncement().prepends.KeyString(),
              restored.GetAnnouncement().prepends.KeyString());
    EXPECT_EQ(original.Rounds(), restored.Rounds());
    for (topo::Asn asn : gen.graph.Ases()) {
      const auto& want = original.BestAt(asn);
      const auto& got = restored.BestAt(asn);
      ASSERT_EQ(want.has_value(), got.has_value()) << "AS" << asn;
      if (want.has_value()) {
        EXPECT_EQ(want->path.Hops(), got->path.Hops()) << "AS" << asn;
        EXPECT_EQ(want->rel, got->rel) << "AS" << asn;
        EXPECT_EQ(want->effective, got->effective) << "AS" << asn;
      }
      EXPECT_EQ(original.FirstChangeRound(asn), restored.FirstChangeRound(asn))
          << "AS" << asn;
    }
  }
  std::remove(path.c_str());
}

TEST(Snapshot, WarmStartedAttackMatchesColdRun) {
  // The acceptance property behind --snapshot fast paths: an attack resumed
  // from a restored checkpoint is bit-identical to one whose baseline was
  // converged from scratch.
  const auto gen = SmallTopology(13);
  const topo::Asn victim = gen.stubs[5];
  const topo::Asn attacker = gen.tier2[1];
  constexpr int kLambda = 4;

  bgp::PropagationSimulator engine(gen.graph);
  bgp::Announcement announcement;
  announcement.origin = victim;
  announcement.prepends.SetDefault(victim, kLambda);
  auto baseline = std::make_shared<const bgp::PropagationResult>(
      engine.Run(announcement));

  const std::string path = TempPath("warm.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {baseline}, "t"), "");
  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  ASSERT_EQ(snapshot.Baselines().size(), 1u);

  // Warm: the restored checkpoint pre-seeds the cache over the *snapshot's*
  // graph; cold: a fresh convergence over the original graph.
  attack::BaselineCache warm_cache(snapshot.Graph());
  warm_cache.Put(snapshot.Baselines()[0]);
  attack::AttackSimulator warm(snapshot.Graph(), &warm_cache);
  attack::AttackSimulator cold(gen.graph);

  const auto warm_outcome =
      warm.RunAsppInterception(victim, attacker, kLambda);
  const auto cold_outcome =
      cold.RunAsppInterception(victim, attacker, kLambda);
  EXPECT_EQ(warm_outcome.fraction_before, cold_outcome.fraction_before);
  EXPECT_EQ(warm_outcome.fraction_after, cold_outcome.fraction_after);
  EXPECT_EQ(warm_outcome.newly_polluted, cold_outcome.newly_polluted);
  for (topo::Asn asn : gen.graph.Ases()) {
    const auto& want = cold_outcome.after.BestAt(asn);
    const auto& got = warm_outcome.after.BestAt(asn);
    ASSERT_EQ(want.has_value(), got.has_value()) << "AS" << asn;
    if (want.has_value()) {
      EXPECT_EQ(want->path.Hops(), got->path.Hops()) << "AS" << asn;
    }
  }
  std::remove(path.c_str());
}

// --- kDefense section --------------------------------------------------------

// Section-table entry for the first section of `type` (-1 if absent).
// Header: magic[8] version@8 section_count@12 file_size@16; entries of 24
// bytes each follow at offset 24 as { u32 type | u32 crc | u64 off | u64 size }.
struct TableEntry {
  std::size_t entry_offset = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

std::optional<TableEntry> FindSection(const std::string& bytes,
                                      std::uint32_t type) {
  std::uint32_t count = 0;
  for (int i = 0; i < 4; ++i) {
    count |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes[12 + i]))
             << (8 * i);
  }
  for (std::uint32_t s = 0; s < count; ++s) {
    const std::size_t at = 24 + s * 24;
    std::uint32_t entry_type = 0;
    for (int i = 0; i < 4; ++i) {
      entry_type |= static_cast<std::uint32_t>(
                        static_cast<unsigned char>(bytes[at + i]))
                    << (8 * i);
    }
    if (entry_type != type) continue;
    TableEntry entry;
    entry.entry_offset = at;
    for (int i = 0; i < 8; ++i) {
      entry.offset |= static_cast<std::uint64_t>(
                          static_cast<unsigned char>(bytes[at + 8 + i]))
                      << (8 * i);
      entry.size |= static_cast<std::uint64_t>(
                        static_cast<unsigned char>(bytes[at + 16 + i]))
                    << (8 * i);
    }
    return entry;
  }
  return std::nullopt;
}

constexpr std::uint32_t kDefenseSectionType = 6;

TEST(Snapshot, RoundTripsDefenseTags) {
  const auto gen = SmallTopology(29);
  // One tag byte per AsId; exercise every valid PolicyKind mask 0..7.
  std::vector<std::uint8_t> tags(gen.graph.NumAses());
  std::size_t deployed = 0;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    tags[i] = static_cast<std::uint8_t>(i % 8);
    if (tags[i] != 0) ++deployed;
  }

  const std::string path = TempPath("defense.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t", tags), "");
  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  EXPECT_EQ(snapshot.DefenseTags(), tags);
  EXPECT_EQ(snapshot.Info().num_defense_tagged, deployed);
  EXPECT_TRUE(FindSection(ReadFile(path), kDefenseSectionType).has_value());
  std::remove(path.c_str());
}

TEST(Snapshot, EmptyDeploymentOmitsTheDefenseSection) {
  // An undefended snapshot must carry NO kDefense section at all, so its
  // bytes stay identical to what pre-kDefense writers produced and old
  // loaders never see an unknown section.
  const auto gen = SmallTopology();
  const std::string path = TempPath("nodefense.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t",
                              std::vector<std::uint8_t>{}),
            "");
  EXPECT_FALSE(FindSection(ReadFile(path), kDefenseSectionType).has_value());
  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  EXPECT_TRUE(snapshot.DefenseTags().empty());
  EXPECT_EQ(snapshot.Info().num_defense_tagged, 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, WriterRejectsMalformedDefenseTags) {
  const auto gen = SmallTopology();
  const std::string path = TempPath("badtags.snap");
  // Wrong cardinality: must cover every AS exactly once.
  std::vector<std::uint8_t> short_tags(gen.graph.NumAses() - 1, 1);
  EXPECT_NE(WriteSnapshotFile(path, gen.graph, {}, {}, "t", short_tags), "");
  // A tag with bits above kAllPolicies is not a valid PolicyKind mask.
  std::vector<std::uint8_t> bad_tags(gen.graph.NumAses(), 0);
  bad_tags[3] = 8;
  EXPECT_NE(WriteSnapshotFile(path, gen.graph, {}, {}, "t", bad_tags), "");
}

TEST(Snapshot, LoadRejectsCraftedDefenseTagBehindTheCrc) {
  // Like the CSR structural check: an out-of-range tag byte whose section CRC
  // has been re-stamped passes the checksum but must still be rejected before
  // it can reach PolicySet rehydration.
  const auto gen = SmallTopology();
  std::vector<std::uint8_t> tags(gen.graph.NumAses(), 1);
  const std::string path = TempPath("craftedtag.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t", tags), "");
  std::string bytes = ReadFile(path);

  const auto entry = FindSection(bytes, kDefenseSectionType);
  ASSERT_TRUE(entry.has_value());
  // Payload is u64 count + tag bytes; poison the last tag and re-stamp.
  bytes[entry->offset + entry->size - 1] = static_cast<char>(0xFF);
  const std::uint32_t crc =
      util::Crc32(bytes.data() + entry->offset, entry->size);
  for (int i = 0; i < 4; ++i) {
    bytes[entry->entry_offset + 4 + i] = static_cast<char>(crc >> (8 * i));
  }
  WriteFile(path, bytes);

  Snapshot snapshot;
  const std::string err = Snapshot::Load(path, snapshot);
  EXPECT_NE(err.find("invalid tag byte"), std::string::npos) << err;
  std::remove(path.c_str());
}

// --- corruption contract -----------------------------------------------------

TEST(Snapshot, LoadRejectsMissingFile) {
  Snapshot snapshot;
  const std::string err = Snapshot::Load(TempPath("nope.snap"), snapshot);
  EXPECT_NE(err, "");
}

TEST(Snapshot, LoadRejectsBadMagic) {
  const auto gen = SmallTopology();
  const std::string path = TempPath("magic.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t"), "");
  std::string bytes = ReadFile(path);
  bytes[0] = 'X';
  WriteFile(path, bytes);
  Snapshot snapshot;
  const std::string err = Snapshot::Load(path, snapshot);
  EXPECT_NE(err.find("magic"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Snapshot, LoadRejectsVersionSkew) {
  const auto gen = SmallTopology();
  const std::string path = TempPath("version.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t"), "");
  std::string bytes = ReadFile(path);
  bytes[8] = static_cast<char>(kSnapshotVersion + 1);  // u32 LE version
  WriteFile(path, bytes);
  Snapshot snapshot;
  const std::string err = Snapshot::Load(path, snapshot);
  EXPECT_NE(err.find("version"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Snapshot, LoadRejectsEveryTruncation) {
  // Chopping the file anywhere — inside the header, the section table, or a
  // section payload — must produce a clean error, never UB. Sampled stride
  // keeps the test fast while covering all three regions.
  const auto gen = SmallTopology();
  const std::string path = TempPath("trunc.snap");
  bgp::PrependPolicy policy;
  policy.SetDefault(gen.tier1[0], 3);
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, policy, {}, "t"), "");
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 64u);

  const std::string cut_path = TempPath("trunc.cut.snap");
  for (std::size_t cut = 0; cut < bytes.size();
       cut += (cut < 128 ? 1 : 997)) {
    WriteFile(cut_path, bytes.substr(0, cut));
    Snapshot snapshot;
    const std::string err = Snapshot::Load(cut_path, snapshot);
    EXPECT_NE(err, "") << "truncated at " << cut << " of " << bytes.size();
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(Snapshot, LoadRejectsFlippedPayloadBits) {
  // A flipped bit anywhere in a section payload fails that section's CRC.
  const auto gen = SmallTopology();
  const std::string path = TempPath("crc.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t"), "");
  const std::string bytes = ReadFile(path);
  const std::string flip_path = TempPath("crc.flip.snap");
  // Skip the 24-byte header + table; flip bytes across the payload.
  for (std::size_t pos = bytes.size() / 2; pos < bytes.size(); pos += 1013) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x40);
    WriteFile(flip_path, corrupted);
    Snapshot snapshot;
    const std::string err = Snapshot::Load(flip_path, snapshot);
    EXPECT_NE(err, "") << "flipped byte at " << pos;
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

// --- v2 format: CSR section; v1 files rejected ------------------------------

TEST(Snapshot, V2LoadIsNotLegacy) {
  const auto gen = SmallTopology();
  const std::string path = TempPath("v2.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t"), "");
  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  EXPECT_EQ(snapshot.Info().version, 2u);
  std::remove(path.c_str());
}

TEST(Snapshot, GraphOutlivesTheSnapshotFile) {
  // The zero-copy graph holds the mapping alive; deleting the file after
  // Load must not invalidate it (POSIX keeps mapped pages of unlinked
  // files).
  const auto gen = SmallTopology();
  const std::string path = TempPath("unlink.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t"), "");
  Snapshot snapshot;
  ASSERT_EQ(Snapshot::Load(path, snapshot), "");
  std::remove(path.c_str());
  EXPECT_TRUE(SameGraph(gen.graph, snapshot.Graph()));
}

namespace v1 {

// Mini writer replicating the v1 format (byte-packed LE, kTopology section),
// so a well-formed v1 file can be shown to fail the version check now that
// the loader has no v1 rebuild path.
void U32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
void U64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::string BuildFile(const topo::AsGraph& graph, const std::string& creator) {
  std::string info;
  U32(info, static_cast<std::uint32_t>(creator.size()));
  info += creator;
  U64(info, graph.NumAses());
  U64(info, graph.NumLinks());
  U64(info, 0);  // baselines

  std::string topology;
  U64(topology, graph.NumAses());
  for (topo::Asn asn : graph.Ases()) U32(topology, asn);
  U64(topology, graph.NumLinks());
  // Each link once: customer links from the provider side, symmetric links
  // from the lower-ASN side — the v1 writer's emission rule.
  for (topo::Asn a : graph.Ases()) {
    for (const topo::AsGraph::Neighbor& n : graph.NeighborsOf(a)) {
      if (n.rel == topo::Relation::kProvider) continue;
      if (n.rel != topo::Relation::kCustomer && n.asn < a) continue;
      U32(topology, a);
      U32(topology, n.asn);
      topology.push_back(static_cast<char>(n.rel));
    }
  }

  const std::string* sections[] = {&info, &topology};
  const std::uint32_t types[] = {1, 2};  // kInfo, kTopology
  std::string header = "ASPPISNP";
  U32(header, 1);  // version 1
  U32(header, 2);  // section count
  std::string table;
  std::uint64_t offset = 24 + 2 * 24;
  std::uint64_t total = offset;
  for (int i = 0; i < 2; ++i) {
    U32(table, types[i]);
    U32(table, util::Crc32(sections[i]->data(), sections[i]->size()));
    U64(table, offset);
    U64(table, sections[i]->size());
    offset += sections[i]->size();
    total += sections[i]->size();
  }
  U64(header, total);
  return header + table + info + topology;
}

}  // namespace v1

TEST(Snapshot, V1FileIsRejectedByVersion) {
  const auto gen = SmallTopology(23);
  const std::string path = TempPath("v1.snap");
  WriteFile(path, v1::BuildFile(gen.graph, "legacy_tool"));

  Snapshot snapshot;
  const std::string err = Snapshot::Load(path, snapshot);
  EXPECT_NE(err.find("version skew: file has version 1"), std::string::npos)
      << err;
  EXPECT_NE(err.find("asppi_snapshot"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Snapshot, CsrStructuralValidationBehindTheCrc) {
  // A corrupted CSR payload whose table CRC has been recomputed passes the
  // checksum but must still be rejected by AsGraph::FromCsr's structural
  // validation — the defense against crafted (not just bit-rotted) files.
  const auto gen = SmallTopology();
  const std::string path = TempPath("crafted.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {}, "t"), "");
  std::string bytes = ReadFile(path);

  // Section table entry 0 is kCsrGraph: type@24 crc@28 offset@32 size@40.
  // Its payload starts at 120; the u64 link count lives at bytes 16..23 of
  // the section. Nudge it and re-stamp the CRC.
  const std::size_t section_off = 120;
  std::uint64_t size = 0;
  for (int i = 0; i < 8; ++i) {
    size |= static_cast<std::uint64_t>(
                static_cast<unsigned char>(bytes[40 + i]))
            << (8 * i);
  }
  bytes[section_off + 16] = static_cast<char>(bytes[section_off + 16] ^ 1);
  const std::uint32_t crc = util::Crc32(bytes.data() + section_off, size);
  for (int i = 0; i < 4; ++i) {
    bytes[28 + i] = static_cast<char>(crc >> (8 * i));
  }
  WriteFile(path, bytes);

  Snapshot snapshot;
  const std::string err = Snapshot::Load(path, snapshot);
  EXPECT_NE(err.find("csr graph section"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(Snapshot, LoadedSnapshotSurvivesMove) {
  // The restored baselines point at the snapshot's heap-owned graph; a move
  // must not invalidate them.
  const auto gen = SmallTopology(17);
  bgp::PropagationSimulator engine(gen.graph);
  bgp::Announcement announcement;
  announcement.origin = gen.stubs[0];
  announcement.prepends.SetDefault(announcement.origin, 2);
  auto baseline = std::make_shared<const bgp::PropagationResult>(
      engine.Run(announcement));
  const std::string path = TempPath("move.snap");
  ASSERT_EQ(WriteSnapshotFile(path, gen.graph, {}, {baseline}, "t"), "");

  Snapshot loaded;
  ASSERT_EQ(Snapshot::Load(path, loaded), "");
  Snapshot moved = std::move(loaded);
  ASSERT_EQ(moved.Baselines().size(), 1u);
  EXPECT_EQ(&moved.Baselines()[0]->Graph(), &moved.Graph());
  EXPECT_EQ(moved.Baselines()[0]->ReachableCount(),
            baseline->ReachableCount());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace asppi::data

// Serialization round-trip coverage for Iblt::WriteTo/ReadFrom across the
// parameter grid the protocols actually use: keys-only and valued tables,
// checksum widths 1/4/8, and subtraction/decoding on round-tripped tables.
// The compact-layout fixtures at the end pin each compact layout (dense,
// sparse, sparse with a value slab) under an explicit codec, so they run
// whatever RSR_WIRE_CODEC selects as the default.
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/iblt.h"
#include "util/random.h"

namespace rsr {
namespace {

IbltParams MakeParams(size_t cells, int q, size_t value_size,
                      int checksum_bytes, uint64_t seed) {
  IbltParams params;
  params.num_cells = cells;
  params.num_hashes = q;
  params.value_size = value_size;
  params.checksum_bytes = checksum_bytes;
  params.seed = seed;
  return params;
}

std::vector<uint8_t> Serialize(const Iblt& table) {
  ByteWriter w;
  table.WriteTo(&w);
  return w.buffer();
}

class IbltChecksumWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(IbltChecksumWidthTest, KeysOnlyRoundTripIsByteExact) {
  const int checksum_bytes = GetParam();
  IbltParams params = MakeParams(96, 4, 0, checksum_bytes, 42);
  Iblt table(params);
  Rng rng(1234);
  for (int i = 0; i < 40; ++i) table.Insert(rng.Next());
  for (int i = 0; i < 10; ++i) table.Delete(rng.Next());

  std::vector<uint8_t> wire = Serialize(table);
  ByteReader r(wire);
  auto restored = Iblt::ReadFrom(&r, params);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());

  // Re-serializing the restored table must reproduce the wire bytes exactly
  // (the encoding is canonical), and decoding must agree entry-for-entry.
  EXPECT_EQ(Serialize(*restored), wire);
  IbltDecodeResult a = table.Decode();
  IbltDecodeResult b = restored->Decode();
  EXPECT_EQ(a.complete, b.complete);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].key, b.entries[i].key);
    EXPECT_EQ(a.entries[i].count, b.entries[i].count);
  }
}

TEST_P(IbltChecksumWidthTest, ValuedRoundTripDecodesIdentically) {
  const int checksum_bytes = GetParam();
  const size_t value_size = 12;
  IbltParams params = MakeParams(64, 3, value_size, checksum_bytes, 77);
  Iblt table(params);
  Rng rng(555);
  for (int i = 0; i < 12; ++i) {
    std::vector<uint8_t> value(value_size);
    for (auto& v : value) v = static_cast<uint8_t>(rng.Next());
    table.Update(rng.Next(), value.data(), +1);
  }

  std::vector<uint8_t> wire = Serialize(table);
  ByteReader r(wire);
  auto restored = Iblt::ReadFrom(&r, params);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
  EXPECT_EQ(Serialize(*restored), wire);

  IbltDecodeResult a = table.Decode();
  IbltDecodeResult b = restored->Decode();
  EXPECT_EQ(a.complete, b.complete);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].key, b.entries[i].key);
    EXPECT_EQ(a.entries[i].value, b.entries[i].value);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, IbltChecksumWidthTest,
                         ::testing::Values(1, 4, 8));

TEST(IbltSerializationTest, RoundTrippedTableSubtractsAndDecodes) {
  // The reconciliation pattern: Alice serializes, Bob parses and deletes his
  // side, then decodes the symmetric difference.
  IbltParams params = MakeParams(128, 4, 0, 4, 9);
  Iblt alice(params);
  Rng rng(31337);
  std::vector<uint64_t> shared(64), alice_only(8), bob_only(8);
  for (auto& k : shared) k = rng.Next();
  for (auto& k : alice_only) k = rng.Next();
  for (auto& k : bob_only) k = rng.Next();
  for (uint64_t k : shared) alice.Insert(k);
  for (uint64_t k : alice_only) alice.Insert(k);

  std::vector<uint8_t> wire = Serialize(alice);
  ByteReader r(wire);
  auto bob_view = Iblt::ReadFrom(&r, params);
  ASSERT_TRUE(bob_view.ok());
  for (uint64_t k : shared) bob_view->Delete(k);
  for (uint64_t k : bob_only) bob_view->Delete(k);

  IbltDecodeResult decoded = bob_view->Decode();
  ASSERT_TRUE(decoded.complete);
  std::set<uint64_t> plus, minus;
  for (const auto& e : decoded.entries) {
    (e.count > 0 ? plus : minus).insert(e.key);
  }
  EXPECT_EQ(plus, std::set<uint64_t>(alice_only.begin(), alice_only.end()));
  EXPECT_EQ(minus, std::set<uint64_t>(bob_only.begin(), bob_only.end()));
}

TEST(IbltSerializationTest, OverlongVarintInCellStreamIsRejected) {
  // A corrupted wire stream whose first cell count is a ten-byte varint with
  // payload bits beyond bit 63 used to decode to a bogus small value and let
  // the parse "succeed" on garbage. The reader must poison itself so
  // ReadFrom surfaces an error.
  IbltParams params = MakeParams(32, 3, 0, 4, 5);
  Iblt table(params);
  Rng rng(99);
  for (int i = 0; i < 8; ++i) table.Insert(rng.Next());
  std::vector<uint8_t> wire = Serialize(table);

  std::vector<uint8_t> corrupted;
  for (int i = 0; i < 9; ++i) corrupted.push_back(0x80);
  corrupted.push_back(0x02);  // overlong final byte of the count varint
  corrupted.insert(corrupted.end(), wire.begin() + 1, wire.end());
  ByteReader r(corrupted.data(), corrupted.size());
  EXPECT_FALSE(Iblt::ReadFrom(&r, params).ok());
}

TEST(IbltSerializationTest, ValueResidueRoundTripsAndBlocksCompleteness) {
  // A table whose counts/keys cancel but whose value slab differs must
  // round-trip that residue and must NOT report a complete decode.
  const size_t value_size = 4;
  IbltParams params = MakeParams(32, 3, value_size, 8, 5);
  Iblt table(params);
  const std::vector<uint8_t> ours = {1, 2, 3, 4};
  const std::vector<uint8_t> theirs = {9, 9, 9, 9};
  table.Update(123, ours.data(), +1);
  table.Update(123, theirs.data(), -1);

  std::vector<uint8_t> wire = Serialize(table);
  ByteReader r(wire);
  auto restored = Iblt::ReadFrom(&r, params);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(Serialize(*restored), wire);
  EXPECT_FALSE(restored->Decode().complete);
}

// ---- Compact layouts --------------------------------------------------------

std::vector<uint8_t> SerializeCompact(const Iblt& table) {
  ByteWriter w;
  table.WriteTo(&w, WireCodec::kCompact);
  return w.buffer();
}

void ExpectSameDecode(const Result<IbltDecodeResult>& a,
                      const Result<IbltDecodeResult>& b) {
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->complete, b->complete);
  ASSERT_EQ(a->entries.size(), b->entries.size());
  for (size_t i = 0; i < a->entries.size(); ++i) {
    EXPECT_EQ(a->entries[i].key, b->entries[i].key);
    EXPECT_EQ(a->entries[i].count, b->entries[i].count);
    EXPECT_EQ(a->entries[i].value, b->entries[i].value);
  }
}

/// The compact stream of `alice` starts with mode byte `mode`, parses back to
/// a table whose difference against `bob` decodes exactly like the source's,
/// and re-serializes to the same bytes.
void ExpectCompactLayout(const Iblt& alice, const Iblt& bob, uint8_t mode) {
  const std::vector<uint8_t> wire = SerializeCompact(alice);
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(wire[0], mode);
  ByteReader r(wire);
  auto parsed = Iblt::ReadFrom(&r, alice.params(), WireCodec::kCompact);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
  EXPECT_EQ(SerializeCompact(*parsed), wire);
  const auto expected = alice.DecodeDiff(bob);
  ExpectSameDecode(expected, parsed->DecodeDiff(bob));
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(expected->complete);
}

/// Alice holds `shared` keys plus 4 of her own, Bob `shared` plus 3 of his:
/// a 7-entry difference however loaded the tables are.
void FillPair(size_t shared, size_t value_size, uint64_t seed, Iblt* alice,
              Iblt* bob) {
  Rng rng(seed);
  std::vector<uint8_t> value(value_size);
  auto update = [&](Iblt* table, uint64_t key) {
    for (auto& v : value) v = static_cast<uint8_t>(key >> 3);
    table->Update(key, value_size == 0 ? nullptr : value.data(), +1);
  };
  for (size_t i = 0; i < shared; ++i) {
    const uint64_t key = rng.Next();
    update(alice, key);
    update(bob, key);
  }
  for (int i = 0; i < 4; ++i) update(alice, rng.Next());
  for (int i = 0; i < 3; ++i) update(bob, rng.Next());
}

TEST(IbltCompactLayoutTest, LoadedTableShipsDense) {
  // Every cell is occupied, so the bitmap cannot pay for itself.
  const IbltParams params = MakeParams(96, 3, 0, 4, 21);
  Iblt alice(params), bob(params);
  FillPair(300, 0, 1, &alice, &bob);
  ExpectCompactLayout(alice, bob, /*mode=*/0);
}

TEST(IbltCompactLayoutTest, LightTableShipsSparse) {
  const IbltParams params = MakeParams(960, 3, 0, 4, 22);
  Iblt alice(params), bob(params);
  FillPair(20, 0, 2, &alice, &bob);
  ExpectCompactLayout(alice, bob, /*mode=*/1);
}

TEST(IbltCompactLayoutTest, LightValuedTableShipsSparseWithValueSlab) {
  const IbltParams params = MakeParams(960, 3, 8, 4, 23);
  Iblt alice(params), bob(params);
  FillPair(20, 8, 3, &alice, &bob);
  ExpectCompactLayout(alice, bob, /*mode=*/1);
}

}  // namespace
}  // namespace rsr

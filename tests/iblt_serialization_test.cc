// Serialization round-trip coverage for Iblt::WriteTo/ReadFrom across the
// parameter grid the protocols actually use: keys-only and valued tables,
// checksum widths 1/4/8, and subtraction/decoding on round-tripped tables.
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

}  // namespace
}  // namespace rsr

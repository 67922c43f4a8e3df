// Golden-bytes compatibility pins for the classic wire format. The hex
// fixtures below are the kClassic serialization of small deterministic
// sketches, checked in verbatim: future codec work that changes a single
// classic byte — or breaks the reader on an old stream — fails here, not in
// production against a peer running last year's build. (Compact streams are
// deliberately NOT pinned: kCompact is negotiated per exchange and its
// layout may evolve with the header version; kClassic is the compatibility
// floor and must stay frozen.)
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/point_store.h"
#include "sketch/iblt.h"
#include "sketch/riblt.h"
#include "sketch/strata.h"
#include "util/key_stream.h"
#include "util/serialize.h"
#include "util/wire.h"

namespace rsr {
namespace {

// Captured from the PR-8 era writers (seed/content in each builder below);
// regenerating them is a compatibility break, not a refresh.
const char kIbltHex[] =
    "02aaf0d3f4afeebcb73cf4c0e43106fef0f3fd8fcebca63c10feaa6502e9d8d1"
    "e3f793d88a17cc9b6d6000000000000006a8c0dff0bff8fffff10181da2c8c04"
    "9598ae9ae8cba7e4e601a97f0fb804d6b0ac8db0b6c3d9cd01912486e902d4e0"
    "a7e9dfdcf9ee78fe520a6c04bf88fa8eb8d9e2aca20147d3afb10295f8a9fa97"
    "b7de9b9e01b3134b8004fe90f49df0b2c5d9440a92ee5d04d6b0ac8db0b6c3d9"
    "cd01912486e9020e3a060e3e0523910000000038f8011b6d0636c6041c740309"
    "2701071d06124e0636c6";
const char kRibltHex[] =
    "06a4b88c979dccdebfd401f3e4d8a615f806f8060283dacb8cadc6d2dad101b7"
    "d7c0dd034aca010498d0dde4e8b294d58d03b5dbb0a711d004d0040495f691d8"
    "bbecc1fabb01d1a7b9f2078604860306a792d8a3ca92b19aa603d798d0db1ec2"
    "07c2080283dacb8cadc6d2dad101b7d7c0dd034aca01048fc2fabee1df9cc598"
    "02b6f6c68c10f202f2030283dacb8cadc6d2dad101b7d7c0dd034aca0106adc6"
    "efbca49fd6cfc902f2c9c2c116d608d607";
const char kStrataHex[] =
    "06d7afaed6b2a7f6e84fd96904a7ced58dbdb687e76fd90206dbb69cc4ceeffa"
    "e4d001783104abd7e79fc1fe8bebf001785a02e8d19bdba791e9972a3c8b0898"
    "b0e080a88098980a3ce0048c99b292fcc88c8c9f01a15806fcf8c9c9f3d9fd83"
    "bf01a13306baf3eae4fd94f9c5de01b04d0000000006baf3eae4fd94f9c5de01"
    "b04d0000000004f1e482bbefeb92b1da01dbae02cb97e8df92ffebf4046be304"
    "f1e482bbefeb92b1da01dbae02cb97e8df92ffebf4046be302d7ae9af2beb6f7"
    "e86facfc0000000002d7ae9af2beb6f7e86facfc000000000000000002d7ae9a"
    "f2beb6f7e86facfc02d7ae9af2beb6f7e86facfc0000000002a2c682d2d1b5e3"
    "dd7452510000000002a2c682d2d1b5e3dd745251000000000000000002a2c682"
    "d2d1b5e3dd7452510000000002a2c682d2d1b5e3dd745251";
const char kKeyStreamHex[] =
    "05157c4a7fb979379e2af894fe72f36e3c3f74df7d2c6da6da54f029fde5e6dd"
    "78696c747c9f601517";
// The point wire format (dim varint, then zigzag varints) of GoldenRows(),
// and those rows' content hashes at salts 0 and 0x5eed.
const char kPointRowsHex[] =
    "0300017e037f8001d80403ff887a808080808040fe0103feffffffffffffffff01"
    "ffffffffffffffffff01fe7f";
const uint64_t kRowContentHashes[4][2] = {
    {0x81d1f244de3b5b74ULL, 0x46a18a8888512b83ULL},
    {0x7907749865f0581dULL, 0x1411ad658e99412cULL},
    {0x89601b20cedb6bccULL, 0x6e6c6f78526fd043ULL},
    {0x6fbe102940e9a8b4ULL, 0xdb21300bcf13e4cfULL},
};

std::vector<uint8_t> FromHex(const char* hex) {
  std::string s(hex);
  std::vector<uint8_t> bytes;
  bytes.reserve(s.size() / 2);
  for (size_t i = 0; i + 1 < s.size(); i += 2) {
    auto nib = [](char c) -> uint8_t {
      return c <= '9' ? static_cast<uint8_t>(c - '0')
                      : static_cast<uint8_t>(c - 'a' + 10);
    };
    bytes.push_back(static_cast<uint8_t>((nib(s[i]) << 4) | nib(s[i + 1])));
  }
  return bytes;
}

IbltParams GoldenIbltParams() {
  IbltParams p;
  p.num_cells = 12;
  p.num_hashes = 4;
  p.value_size = 3;
  p.checksum_bytes = 4;
  p.seed = 2024;
  return p;
}

Iblt GoldenIblt() {
  Iblt t(GoldenIbltParams());
  for (uint64_t k = 1; k <= 5; ++k) {
    std::vector<uint8_t> v = {static_cast<uint8_t>(k),
                              static_cast<uint8_t>(k * 7),
                              static_cast<uint8_t>(k * 29)};
    t.Update(k * 0x9e3779b97f4a7c15ull, v.data(), +1);
  }
  return t;
}

RibltParams GoldenRibltParams() {
  RibltParams p;
  p.num_cells = 9;
  p.num_hashes = 3;
  p.dim = 2;
  p.delta = 255;
  p.seed = 2025;
  return p;
}

Riblt GoldenRiblt() {
  PointStore s(2);
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 6; ++k) {
    Coord* row = s.AppendRow();
    row[0] = static_cast<Coord>((k * 37) % 256);
    row[1] = static_cast<Coord>((k * 101) % 256);
    keys.push_back(k * 0xd1b54a32d192ed03ull);
  }
  Riblt t(GoldenRibltParams());
  t.InsertMany(keys, s);
  return t;
}

/// Negative coordinates, one- to ten-byte zigzag varints and both int64
/// extremes.
PointStore GoldenRows() {
  const Coord rows[4][3] = {
      {0, -1, 63},
      {-64, 64, 300},
      {-1000000, Coord{1} << 40, 127},
      {std::numeric_limits<Coord>::max(), std::numeric_limits<Coord>::min(),
       8191}};
  PointStore s(3);
  for (const auto& row : rows) s.Append(row);
  return s;
}

StrataParams GoldenStrataParams() {
  StrataParams p;
  p.num_strata = 4;
  p.cells_per_stratum = 8;
  p.num_hashes = 4;
  p.checksum_bytes = 2;
  p.seed = 2026;
  return p;
}

TEST(GoldenClassicTest, IbltWriterMatchesPinnedBytes) {
  ByteWriter w;
  GoldenIblt().WriteTo(&w, WireCodec::kClassic);
  EXPECT_EQ(w.buffer(), FromHex(kIbltHex));
}

TEST(GoldenClassicTest, IbltReaderDecodesPinnedBytes) {
  std::vector<uint8_t> pinned = FromHex(kIbltHex);
  ByteReader r(pinned);
  auto parsed = Iblt::ReadFrom(&r, GoldenIbltParams(), WireCodec::kClassic);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(r.FinishAndCheckConsumed().ok());
  // Byte-for-byte round trip: the parsed table re-serializes to the exact
  // pinned stream, and its content decodes to the original five pairs.
  ByteWriter again;
  parsed->WriteTo(&again, WireCodec::kClassic);
  EXPECT_EQ(again.buffer(), pinned);
  IbltDecodeResult decoded = parsed->Decode();
  EXPECT_TRUE(decoded.complete);
  EXPECT_EQ(decoded.entries.size(), 5u);
}

TEST(GoldenClassicTest, RibltWriterMatchesPinnedBytes) {
  ByteWriter w;
  GoldenRiblt().WriteTo(&w, WireCodec::kClassic);
  EXPECT_EQ(w.buffer(), FromHex(kRibltHex));
}

TEST(GoldenClassicTest, RibltReaderDecodesPinnedBytes) {
  std::vector<uint8_t> pinned = FromHex(kRibltHex);
  ByteReader r(pinned);
  auto parsed = Riblt::ReadFrom(&r, GoldenRibltParams(), WireCodec::kClassic);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(r.FinishAndCheckConsumed().ok());
  ByteWriter again;
  parsed->WriteTo(&again, WireCodec::kClassic);
  EXPECT_EQ(again.buffer(), pinned);
}

TEST(GoldenClassicTest, StrataWriterMatchesPinnedBytes) {
  StrataEstimator e(GoldenStrataParams());
  for (uint64_t k = 1; k <= 10; ++k) e.Insert(k * 0x2545f4914f6cdd1dull);
  ByteWriter w;
  e.WriteTo(&w, WireCodec::kClassic);
  EXPECT_EQ(w.buffer(), FromHex(kStrataHex));
}

TEST(GoldenClassicTest, StrataReaderDecodesPinnedBytes) {
  std::vector<uint8_t> pinned = FromHex(kStrataHex);
  ByteReader r(pinned);
  auto parsed =
      StrataEstimator::ReadFrom(&r, GoldenStrataParams(), WireCodec::kClassic);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(r.FinishAndCheckConsumed().ok());
  ByteWriter again;
  parsed->WriteTo(&again, WireCodec::kClassic);
  EXPECT_EQ(again.buffer(), pinned);
}

TEST(GoldenClassicTest, KeyStreamMatchesPinnedBytes) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 5; ++k) keys.push_back(k * 0x9e3779b97f4a7c15ull);
  ByteWriter w;
  WriteKeyStream(keys, &w, WireCodec::kClassic);
  EXPECT_EQ(w.buffer(), FromHex(kKeyStreamHex));

  std::vector<uint8_t> pinned = FromHex(kKeyStreamHex);
  ByteReader r(pinned);
  auto parsed = ReadKeyStream(&r, WireCodec::kClassic, /*max_keys=*/64);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(r.FinishAndCheckConsumed().ok());
  EXPECT_EQ(*parsed, keys);  // classic preserves writer order
}

TEST(GoldenClassicTest, PointStoreWriterMatchesPinnedBytes) {
  const PointStore rows = GoldenRows();
  ByteWriter w;
  rows.WriteTo(&w);
  EXPECT_EQ(w.buffer(), FromHex(kPointRowsHex));

  std::vector<uint8_t> pinned = FromHex(kPointRowsHex);
  ByteReader r(pinned);
  PointStore parsed = PointStore::ReadFrom(&r, 3, 4);
  ASSERT_TRUE(r.FinishAndCheckConsumed().ok());
  EXPECT_EQ(parsed, rows);
}

TEST(GoldenClassicTest, PointRefContentHashMatchesPinnedValues) {
  const PointStore rows = GoldenRows();
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].ContentHash(0), kRowContentHashes[i][0]) << i;
    EXPECT_EQ(rows[i].ContentHash(0x5eed), kRowContentHashes[i][1]) << i;
  }
  const Coord one[1] = {7};
  EXPECT_EQ(PointRef(one, 1).ContentHash(0x5eed), 0x04d712a0b6d2973eULL);
}

}  // namespace
}  // namespace rsr

// Corrupted-stream hardening sweep (shared helper): every serialized form —
// IBLT, RIBLT, strata estimator, key stream, wire header — is truncated at
// every byte boundary and bit-flipped at every position, under BOTH codecs.
// Readers must poison (non-ok status / clean Corruption) instead of
// crashing, over-reading, or looping; decode on a successfully parsed but
// corrupted table must terminate. This file is part of the CI ASan/UBSan
// run, where an out-of-bounds GetBits or unbounded peel fails loudly.
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/point_store.h"
#include "sketch/iblt.h"
#include "sketch/riblt.h"
#include "sketch/strata.h"
#include "util/key_stream.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/wire.h"

namespace rsr {
namespace {

constexpr WireCodec kCodecs[] = {WireCodec::kClassic, WireCodec::kCompact};

// Runs `parse` over every truncation (prefix of length 0..n-1) and every
// single-bit flip of `bytes`. `parse` gets the corrupted buffer and must
// return without crashing; whether it reports Corruption or happens to
// parse (a flip in a packed field usually yields a different valid table)
// is up to the form — the sweep asserts survival, the per-form callbacks
// assert status sanity on top.
void SweepCorruptions(
    const std::vector<uint8_t>& bytes,
    const std::function<void(const std::vector<uint8_t>&)>& parse) {
  ASSERT_FALSE(bytes.empty());
  std::vector<uint8_t> corrupt;
  for (size_t len = 0; len < bytes.size(); ++len) {
    corrupt.assign(bytes.begin(),
                   bytes.begin() + static_cast<std::ptrdiff_t>(len));
    parse(corrupt);
  }
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    parse(corrupt);
  }
}

TEST(CorruptionSweepTest, IbltSurvivesTruncationAndBitFlips) {
  IbltParams params;
  params.num_cells = 48;
  params.num_hashes = 4;
  params.value_size = 6;  // cover the raw value slab
  params.checksum_bytes = 4;
  params.seed = 71;
  Iblt table(params);
  std::vector<uint8_t> value(params.value_size);
  for (uint64_t key = 1; key <= 20; ++key) {
    for (size_t i = 0; i < value.size(); ++i) {
      value[i] = static_cast<uint8_t>(key * 13 + i);
    }
    table.Update(key * 0x9e3779b97f4a7c15ull, value.data(), +1);
  }
  for (WireCodec codec : kCodecs) {
    ByteWriter w;
    table.WriteTo(&w, codec);
    SweepCorruptions(w.buffer(), [&](const std::vector<uint8_t>& bytes) {
      ByteReader r(bytes);
      auto parsed = Iblt::ReadFrom(&r, params, codec);
      if (!parsed.ok()) return;
      // A structurally valid but wrong table must still decode in bounded
      // time (truncated checksums admit spurious pure cells; the peel is
      // capped) and never crash.
      IbltDecodeResult result = parsed->Decode();
      (void)result;
    });
  }
}

TEST(CorruptionSweepTest, RibltSurvivesTruncationAndBitFlips) {
  RibltParams params;
  params.num_cells = 48;
  params.num_hashes = 3;
  params.dim = 4;
  params.delta = 1023;
  params.seed = 72;
  // Two content shapes so both compact cell layouts get swept: a lightly
  // loaded table (sparse bitmap mode) and a fully loaded one (dense).
  for (size_t num_keys : {6ul, 200ul}) {
    Rng rng(100 + num_keys);
    PointStore store(params.dim);
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < num_keys; ++i) {
      Coord* row = store.AppendRow();
      for (size_t d = 0; d < params.dim; ++d) {
        row[d] = static_cast<Coord>(rng.Below(1024));
      }
      keys.push_back(rng.Next());
    }
    Riblt table(params);
    table.InsertMany(keys, store);
    for (WireCodec codec : kCodecs) {
      ByteWriter w;
      table.WriteTo(&w, codec);
      Rng coins(7);
      RibltDecodeResult result;
      SweepCorruptions(w.buffer(), [&](const std::vector<uint8_t>& bytes) {
        ByteReader r(bytes);
        auto parsed = Riblt::ReadFrom(&r, params, codec);
        if (!parsed.ok()) return;
        Status decoded = parsed->DecodeInto(64, 32, &coins, &result);
        (void)decoded;  // either outcome is fine; surviving is the assert
      });
    }
  }
}

TEST(CorruptionSweepTest, StrataEstimatorSurvivesTruncationAndBitFlips) {
  StrataParams params;
  params.num_strata = 8;
  params.cells_per_stratum = 16;
  params.num_hashes = 4;
  params.checksum_bytes = 2;
  params.seed = 73;
  StrataEstimator estimator(params);
  StrataEstimator other(params);
  Rng rng(9);
  for (int i = 0; i < 64; ++i) estimator.Insert(rng.Next());
  for (int i = 0; i < 64; ++i) other.Insert(rng.Next());
  for (WireCodec codec : kCodecs) {
    ByteWriter w;
    estimator.WriteTo(&w, codec);
    SweepCorruptions(w.buffer(), [&](const std::vector<uint8_t>& bytes) {
      ByteReader r(bytes);
      auto parsed = StrataEstimator::ReadFrom(&r, params, codec);
      if (!parsed.ok()) return;
      auto estimate = parsed->EstimateDiff(other);
      (void)estimate;
    });
  }
}

TEST(CorruptionSweepTest, KeyStreamSurvivesTruncationAndBitFlips) {
  Rng rng(11);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 40; ++i) keys.push_back(rng.Next());
  for (WireCodec codec : kCodecs) {
    ByteWriter w;
    WriteKeyStream(keys, &w, codec);
    SweepCorruptions(w.buffer(), [&](const std::vector<uint8_t>& bytes) {
      ByteReader r(bytes);
      auto parsed = ReadKeyStream(&r, codec, /*max_keys=*/1 << 12);
      if (parsed.ok()) {
        // The count bound must have been respected even on corrupt input.
        EXPECT_LE(parsed->size(), static_cast<size_t>(1) << 12);
      }
    });
  }
}

TEST(CorruptionSweepTest, WireHeaderNeverMisreadAsTheWrittenCodec) {
  ByteWriter w;
  WriteWireHeader(WireCodec::kCompact, &w);
  SweepCorruptions(w.buffer(), [&](const std::vector<uint8_t>& bytes) {
    ByteReader r(bytes);
    auto codec = ReadWireHeader(&r);
    // Any change to the single header byte alters the version or codec
    // nibble. A flipped codec bit can still name ANOTHER known codec (the
    // one-byte header is not error-detecting — ExpectWireHeader catches the
    // disagreement as Corruption); everything else must be rejected.
    if (!bytes.empty() && bytes != w.buffer()) {
      if (codec.ok()) {
        EXPECT_NE(*codec, WireCodec::kCompact);
        ByteReader r2(bytes);
        EXPECT_FALSE(ExpectWireHeader(WireCodec::kCompact, &r2).ok());
      }
    }
  });
}

// Truncation must never report a clean parse for sketch forms whose size is
// implied by params: the byte-exact round-trip contract includes "consumed
// exactly what the writer produced".
TEST(CorruptionSweepTest, TruncationPoisonsOrShortensEveryForm) {
  RibltParams params;
  params.num_cells = 24;
  params.num_hashes = 3;
  params.dim = 2;
  params.delta = 255;
  params.seed = 74;
  Rng rng(12);
  PointStore store(params.dim);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 30; ++i) {
    Coord* row = store.AppendRow();
    for (size_t d = 0; d < params.dim; ++d) {
      row[d] = static_cast<Coord>(rng.Below(256));
    }
    keys.push_back(rng.Next());
  }
  Riblt table(params);
  table.InsertMany(keys, store);
  for (WireCodec codec : kCodecs) {
    ByteWriter w;
    table.WriteTo(&w, codec);
    const std::vector<uint8_t>& full = w.buffer();
    for (size_t len = 0; len < full.size(); ++len) {
      std::vector<uint8_t> cut(
          full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
      ByteReader r(cut);
      auto parsed = Riblt::ReadFrom(&r, params, codec);
      // Either the reader poisoned, or it consumed strictly less than the
      // full stream would have — FinishAndCheckConsumed-style callers then
      // catch the short read. It must never "succeed" by over-reading.
      if (parsed.ok()) {
        EXPECT_TRUE(r.FinishAndCheckConsumed().ok() || !r.status().ok());
      } else {
        EXPECT_FALSE(parsed.status().ok());
      }
    }
  }
}

// ---- Hostile cell counts ----------------------------------------------------
//
// Classic streams carry each cell count as a full-range signed varint, so a
// peer can send INT64_MIN or INT64_MAX. Count arithmetic wraps (two's
// complement) and purity magnitudes are unsigned, so parsing, peeling,
// subtracting a local table and updating a received one must end in an
// error status or an incomplete decode, never in signed-overflow UB (the
// ASan/UBSan CI leg runs with -fno-sanitize-recover=undefined).

constexpr int64_t kHostileCounts[] = {std::numeric_limits<int64_t>::min(),
                                      std::numeric_limits<int64_t>::max()};

/// Rewrites a classic IBLT stream: the first cell holding +1 and the first
/// holding -1 keep their counts (pure cells the peeler will extract), every
/// other nonzero cell gets `hostile`, so peeling those pure cells touches
/// hostile counts.
std::vector<uint8_t> WithHostileIbltCounts(const std::vector<uint8_t>& in,
                                           const IbltParams& params,
                                           int64_t hostile) {
  Iblt shape(params);
  ByteReader r(in);
  ByteWriter w;
  bool kept_plus = false, kept_minus = false;
  for (size_t c = 0; c < shape.num_cells(); ++c) {
    int64_t count = r.GetSignedVarint64();
    if (count == 1 && !kept_plus) {
      kept_plus = true;
    } else if (count == -1 && !kept_minus) {
      kept_minus = true;
    } else if (count != 0) {
      count = hostile;
    }
    w.PutSignedVarint64(count);
    w.PutVarint64(r.GetVarint64());
    for (int b = 0; b < params.checksum_bytes; ++b) w.PutU8(r.GetU8());
  }
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
  return w.buffer();
}

/// The same rewrite for a classic RIBLT stream.
std::vector<uint8_t> WithHostileRibltCounts(const std::vector<uint8_t>& in,
                                            const RibltParams& params,
                                            int64_t hostile) {
  Riblt shape(params);
  ByteReader r(in);
  ByteWriter w;
  bool kept_plus = false, kept_minus = false;
  for (size_t c = 0; c < shape.num_cells(); ++c) {
    int64_t count = r.GetSignedVarint64();
    if (count == 1 && !kept_plus) {
      kept_plus = true;
    } else if (count == -1 && !kept_minus) {
      kept_minus = true;
    } else if (count != 0) {
      count = hostile;
    }
    w.PutSignedVarint64(count);
    w.PutVarint128(r.GetVarint128());
    w.PutVarint128(r.GetVarint128());
    for (size_t d = 0; d < params.dim; ++d) {
      w.PutSignedVarint64(r.GetSignedVarint64());
    }
  }
  EXPECT_TRUE(r.FinishAndCheckConsumed().ok());
  return w.buffer();
}

TEST(CorruptionSweepTest, IbltHostileCountsNeverOverflow) {
  IbltParams params;
  params.num_cells = 64;
  params.num_hashes = 4;
  params.checksum_bytes = 4;
  params.seed = 81;
  Iblt sent(params);
  sent.Insert(0x1234'5678'9abcULL);
  sent.Delete(0x0fed'cba9'8765ULL);
  Iblt local(params);
  local.Insert(0x1111'2222'3333ULL);
  local.Delete(0x4444'5555'6666ULL);
  ByteWriter w;
  sent.WriteTo(&w, WireCodec::kClassic);
  for (int64_t hostile : kHostileCounts) {
    const std::vector<uint8_t> bytes =
        WithHostileIbltCounts(w.buffer(), params, hostile);
    ByteReader r(bytes);
    auto received = Iblt::ReadFrom(&r, params, WireCodec::kClassic);
    ASSERT_TRUE(received.ok()) << received.status().ToString();
    EXPECT_FALSE(received->Decode().complete) << hostile;
    auto diff = received->DecodeDiff(local);
    ASSERT_TRUE(diff.ok());
    EXPECT_FALSE(diff->complete) << hostile;
    auto reverse = local.DecodeDiff(*received);
    ASSERT_TRUE(reverse.ok());
    EXPECT_FALSE(reverse->complete) << hostile;
    received->Insert(0x0fed'cba9'8765ULL);
    received->Delete(0x1234'5678'9abcULL);
    EXPECT_FALSE(received->Decode().complete) << hostile;
    for (WireCodec codec : kCodecs) {
      ByteWriter out;
      received->WriteTo(&out, codec);
      ByteReader back(out.buffer());
      EXPECT_TRUE(Iblt::ReadFrom(&back, params, codec).ok());
    }
  }
}

TEST(CorruptionSweepTest, RibltHostileCountsNeverOverflow) {
  RibltParams params;
  params.num_cells = 48;
  params.num_hashes = 3;
  params.dim = 2;
  params.delta = 100;
  params.seed = 83;
  const Coord alice_row[] = {10, 20};
  const Coord bob_row[] = {30, 40};
  Riblt sent(params);
  sent.Update(0x1234'5678'9abcULL, alice_row, +1);
  sent.Update(0x0fed'cba9'8765ULL, bob_row, -1);
  Riblt local(params);
  local.Update(0x1111'2222'3333ULL, alice_row, +1);
  ByteWriter w;
  sent.WriteTo(&w, WireCodec::kClassic);
  for (int64_t hostile : kHostileCounts) {
    const std::vector<uint8_t> bytes =
        WithHostileRibltCounts(w.buffer(), params, hostile);
    ByteReader r(bytes);
    auto received = Riblt::ReadFrom(&r, params, WireCodec::kClassic);
    ASSERT_TRUE(received.ok()) << received.status().ToString();
    RibltDecodeResult result;
    Rng coins(1);
    Status status = received->DecodeInto(64, 64, &coins, &result);
    EXPECT_TRUE(!status.ok() || !result.complete) << hostile;
    // Bob's side of Algorithm 1: delete his rows from the received table.
    received->Update(0x1234'5678'9abcULL, alice_row, -1);
    received->Update(0x1111'2222'3333ULL, bob_row, -1);
    status = received->DecodeInto(64, 64, &coins, &result);
    EXPECT_TRUE(!status.ok() || !result.complete) << hostile;
    ASSERT_TRUE(received->AddScaled(local, -3).ok());
    ASSERT_TRUE(received->AddScaled(*received, hostile).ok());
    status = received->DecodeInto(64, 64, &coins, &result);
    EXPECT_TRUE(!status.ok() || !result.complete) << hostile;
    Riblt folded(params);
    ASSERT_TRUE(received->FoldInto(&folded).ok());
    for (WireCodec codec : kCodecs) {
      ByteWriter out;
      received->WriteTo(&out, codec);
      ByteReader back(out.buffer());
      EXPECT_TRUE(Riblt::ReadFrom(&back, params, codec).ok());
    }
  }
}

TEST(CorruptionSweepTest, StrataEstimatorHostileCountsNeverOverflow) {
  StrataParams params;
  params.num_strata = 6;
  params.cells_per_stratum = 16;
  params.seed = 85;
  StrataEstimator local(params);
  Rng rng(86);
  for (int i = 0; i < 40; ++i) local.Insert(rng.Next());
  for (int i = 0; i < 10; ++i) local.Delete(rng.Next());
  IbltParams stratum;
  stratum.num_cells = params.cells_per_stratum;
  stratum.num_hashes = params.num_hashes;
  const size_t cells = Iblt(stratum).num_cells();
  for (int64_t hostile : kHostileCounts) {
    // Every cell of every stratum carries the hostile count.
    ByteWriter w;
    for (int s = 0; s < params.num_strata; ++s) {
      for (size_t c = 0; c < cells; ++c) {
        w.PutSignedVarint64(hostile);
        w.PutVarint64(0);
        for (int b = 0; b < params.checksum_bytes; ++b) w.PutU8(0);
      }
    }
    ByteReader r(w.buffer());
    auto received = StrataEstimator::ReadFrom(&r, params, WireCodec::kClassic);
    ASSERT_TRUE(received.ok()) << received.status().ToString();
    // The deepest stratum cannot drain, so the estimate extrapolates.
    auto estimate = received->EstimateDiff(local);
    ASSERT_TRUE(estimate.ok());
    EXPECT_GT(*estimate, 0u);
    auto reverse = local.EstimateDiff(*received);
    ASSERT_TRUE(reverse.ok());
    EXPECT_GT(*reverse, 0u);
  }
}

}  // namespace
}  // namespace rsr

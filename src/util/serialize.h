// Checked binary serialization.
//
// Every protocol message in this library is materialized through ByteWriter
// so that communication is *measured*, not estimated: CommStats counts the
// exact bytes produced here. Encoding: little-endian fixed ints, LEB128
// varints, zigzag for signed varints.
//
// Both ends also expose a bit-granular layer (PutBits/GetBits, LSB-first
// within each byte) used by the compact wire codec (util/wire.h, docs/
// WIRE.md) to pack sketch cells at data-derived widths. Bit and byte
// accessors may be mixed as long as every bit run is closed with
// AlignToByte() before the next byte-level access — the writer CHECKs this,
// and the reader treats misalignment as corruption.
//
// ByteReader uses a sticky error flag: reads past the end (or failed
// validation) mark the reader failed and return zero values; callers check
// status() once at the end of a decode sequence.
#ifndef RSR_UTIL_SERIALIZE_H_
#define RSR_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace rsr {

/// Exact encoded size of ByteWriter::PutVarint128(v).
inline size_t Varint128Size(unsigned __int128 v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Exact encoded size of ByteWriter::PutSignedVarint64(v) (zigzag, then
/// LEB128).
inline size_t SignedVarint64Size(int64_t v) {
  const unsigned __int128 zigzag =
      (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  return Varint128Size(zigzag);
}

/// Append-only binary encoder.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutVarint64(uint64_t v);
  /// LEB128 over 128 bits (up to 19 bytes; 1 byte for zero). Sketch cell
  /// sums are mostly small, so this is the wire format for RIBLT sums.
  void PutVarint128(unsigned __int128 v);
  /// Zigzag-encoded signed varint.
  void PutSignedVarint64(int64_t v);
  void PutDouble(double v);
  void PutBytes(const uint8_t* data, size_t len);

  /// Appends the low `nbits` (0..64) of v, LSB-first. Bits accumulate into a
  /// partial byte flushed as it fills; call AlignToByte() before any
  /// byte-level Put or before reading buffer()/size_bytes().
  void PutBits(uint64_t v, int nbits);
  /// 128-bit analogue for wide packed fields (RIBLT sum deltas).
  void PutBits128(unsigned __int128 v, int nbits);
  /// Zero-pads the pending partial byte (no-op when already aligned).
  void AlignToByte();
  bool bit_aligned() const { return bit_count_ == 0; }

  /// Pre-sizes the underlying buffer (capacity only). The warm serving path
  /// reserves last sync's message size so steady-shape encodes never
  /// reallocate (see EmdServeScratch).
  void Reserve(size_t bytes) { buf_.reserve(bytes); }
  /// Drops content, keeps capacity — the pooled-writer reset.
  void Clear() {
    buf_.clear();
    bit_buf_ = 0;
    bit_count_ = 0;
  }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  size_t size_bytes() const { return buf_.size(); }
  size_t size_bits() const { return buf_.size() * 8; }

 private:
  template <typename T>
  void PutFixed(T v) {
    RSR_CHECK(bit_count_ == 0);  // close bit runs with AlignToByte() first
    uint8_t tmp[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      tmp[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    buf_.insert(buf_.end(), tmp, tmp + sizeof(T));
  }

  std::vector<uint8_t> buf_;
  /// Pending sub-byte bits (invariant between calls: bit_count_ < 8).
  uint64_t bit_buf_ = 0;
  int bit_count_ = 0;
};

/// Sticky-error binary decoder over a borrowed buffer.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  uint8_t GetU8();
  uint16_t GetU16();
  uint32_t GetU32();
  uint64_t GetU64();
  uint64_t GetVarint64();
  unsigned __int128 GetVarint128();
  int64_t GetSignedVarint64();
  double GetDouble();
  /// Copies len bytes into out; marks failure if insufficient data.
  void GetBytes(uint8_t* out, size_t len);

  /// Reads `nbits` (0..64) written by ByteWriter::PutBits. Overrunning the
  /// buffer poisons the reader like any byte-level read.
  uint64_t GetBits(int nbits);
  unsigned __int128 GetBits128(int nbits);
  /// Discards the pending partial byte's leftover bits; any nonzero padding
  /// bit poisons the reader (the writer always zero-pads, so nonzero padding
  /// is corruption, and accepting it would let two distinct streams decode
  /// to one value).
  void AlignToByte();

  bool failed() const { return failed_; }
  size_t remaining() const { return len_ - pos_; }

  /// Marks the reader failed (sticky), e.g. after caller-side validation
  /// rejects a parsed value. All subsequent reads return zeros.
  void Invalidate() { failed_ = true; }

  /// OK iff no read overran the buffer. Call after a decode sequence.
  Status status() const {
    if (failed_) return Status::Corruption("read past end of buffer");
    return Status::OK();
  }

  /// OK iff fully consumed without error.
  Status FinishAndCheckConsumed() const {
    RSR_RETURN_NOT_OK(status());
    if (pos_ != len_) return Status::Corruption("trailing bytes in buffer");
    return Status::OK();
  }

 private:
  template <typename T>
  T GetFixed() {
    if (failed_ || bit_avail_ != 0 || len_ - pos_ < sizeof(T)) {
      failed_ = true;
      return T{0};
    }
    T v{0};
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool failed_ = false;
  /// Leftover bits from the last partially-consumed byte (invariant between
  /// GetBits calls: bit_avail_ < 8). Byte-level reads while bits are pending
  /// poison the reader — the stream must AlignToByte between layers.
  uint64_t bit_buf_ = 0;
  int bit_avail_ = 0;
};

}  // namespace rsr

#endif  // RSR_UTIL_SERIALIZE_H_

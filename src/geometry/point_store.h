// Columnar, arena-backed storage for fixed-dimension point sets.
//
// `PointSet = std::vector<Point>` gives every point its own heap-allocated
// coordinate vector, so the protocol hot loops ("for each point: hash /
// insert / compare") chase one pointer per point and the batched LSH
// pipeline had to flatten coordinates into a contiguous double matrix on
// every run. PointStore replaces that representation with two parallel
// arenas:
//
//   coords : one contiguous Coord buffer, row-major (size() x dim())
//   doubles: the same rows pre-converted to double, built lazily and cached
//            (the eval pipeline transposes its blocks). The cache tracks a
//            clean-row watermark, so appends do NOT discard it: the next
//            DoublePlane() call converts only the appended tail (the
//            incremental-dataset fast path). Only mutations that rewrite
//            existing rows (sort, dedup, assignment) rebuild from scratch.
//
// Views (PointRef) are non-owning and cheap: a pointer into the arena plus
// the shared dimension. They are invalidated by any mutation of the store
// (Append/sort/dedup), exactly like iterators into a std::vector.
//
// Wire-format contract: WritePointTo/WriteTo/ReadFrom produce and consume
// bytes IDENTICAL to the legacy per-`Point` format (dim varint, then one
// zigzag varint per coordinate), so protocols that switched to stores emit
// bit-identical transcripts (asserted by pointstore_test).
#ifndef RSR_GEOMETRY_POINT_STORE_H_
#define RSR_GEOMETRY_POINT_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/point.h"
#include "util/serialize.h"
#include "util/status.h"

namespace rsr {

/// Non-owning view of one row (a point) of a PointStore — or of any
/// contiguous run of `dim` coordinates. Copyable, never allocates.
class PointRef {
 public:
  PointRef(const Coord* data, size_t dim) : data_(data), dim_(dim) {}

  size_t dim() const { return dim_; }
  const Coord* data() const { return data_; }
  Coord operator[](size_t j) const {
    RSR_DCHECK(j < dim_);
    return data_[j];
  }

  /// Materializes an owning Point (one allocation).
  Point ToPoint() const {
    return Point(std::vector<Coord>(data_, data_ + dim_));
  }

  bool operator==(const PointRef& other) const;
  bool operator!=(const PointRef& other) const { return !(*this == other); }
  /// Lexicographic order — identical to Point::operator<.
  bool operator<(const PointRef& other) const;

  /// True iff every coordinate lies in [0, delta]. Same predicate as
  /// Point::InDomain (both delegate to the shared row check).
  bool InDomain(Coord delta) const;

  /// Stable 64-bit content hash; bit-identical to Point::ContentHash.
  uint64_t ContentHash(uint64_t salt) const;

  /// Serialization, byte-identical to Point::WriteTo.
  void WriteTo(ByteWriter* w) const;

  std::string ToString() const;

 private:
  const Coord* data_;
  size_t dim_;
};

/// Fixed-dimension columnar point container.
class PointStore {
 public:
  /// An empty store of unspecified dimension; usable only after assignment
  /// or the first dimension-setting operation (AppendMany/ReadFrom).
  PointStore() = default;
  explicit PointStore(size_t dim) : dim_(dim) { RSR_CHECK(dim > 0); }

  /// Copies transfer the coordinate arena but NOT the cached double plane
  /// (copies are usually made to mutate — sort, dedup, append — which would
  /// drop the cache anyway; the copy rebuilds it on first DoublePlane()).
  /// Moves keep the plane.
  PointStore(const PointStore& other)
      : dim_(other.dim_), size_(other.size_), coords_(other.coords_) {}
  PointStore& operator=(const PointStore& other) {
    if (this != &other) {
      dim_ = other.dim_;
      size_ = other.size_;
      coords_ = other.coords_;
      doubles_.clear();
      double_rows_ = 0;
    }
    return *this;
  }
  PointStore(PointStore&&) = default;
  PointStore& operator=(PointStore&&) = default;

  size_t dim() const { return dim_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Row-wise equality (same row count, same coordinates in the same order).
  /// Two empty stores compare equal regardless of declared dimension.
  bool operator==(const PointStore& other) const {
    return size_ == other.size_ && (empty() || dim_ == other.dim_) &&
           coords_ == other.coords_;
  }
  bool operator!=(const PointStore& other) const { return !(*this == other); }

  void Reserve(size_t n) {
    coords_.reserve(n * dim_);
    if (!doubles_.empty()) doubles_.reserve(n * dim_);
  }
  void Clear() {
    size_ = 0;
    coords_.clear();
    doubles_.clear();
    double_rows_ = 0;
  }

  /// Row views. The returned pointers/refs are invalidated by mutation.
  PointRef operator[](size_t i) const { return PointRef(row(i), dim_); }
  const Coord* row(size_t i) const {
    RSR_DCHECK(i < size_);
    return coords_.data() + i * dim_;
  }
  /// The whole coordinate arena, row-major size() x dim().
  const Coord* coord_data() const { return coords_.data(); }

  /// Appends one point and returns its writable row (the caller fills the
  /// dim() slots). With capacity Reserved, appends never allocate. A cached
  /// double plane is NOT discarded: it keeps covering the pre-append rows,
  /// and the next DoublePlane() call converts just the appended tail.
  Coord* AppendRow() {
    RSR_DCHECK(dim_ > 0);  // a default-constructed store has no row width
    coords_.resize(coords_.size() + dim_);
    ++size_;
    return coords_.data() + (size_ - 1) * dim_;
  }
  /// `coords` must not alias this store's own arena (appending can
  /// reallocate it); copy through a scratch buffer to duplicate a row.
  void Append(const Coord* coords);
  void Append(PointRef p) {
    RSR_CHECK_EQ(p.dim(), dim_);
    Append(p.data());
  }
  void Append(const Point& p) {
    RSR_CHECK_EQ(p.dim(), dim_);
    Append(p.coords().data());
  }
  /// Bulk append. A default-constructed store adopts the dimension of the
  /// first point; a dimensioned store requires every point to match.
  void AppendMany(const PointSet& points);
  /// `other` must be a different store (self-append would read the arena
  /// while growing it).
  void AppendStore(const PointStore& other);

  /// Removes row i by moving the last row into its slot (order-changing,
  /// O(dim)). A cached double plane stays valid: the overwritten row's plane
  /// entries are patched and the watermark clamped, so no full rebuild.
  /// Invalidates views of row i and of the last row.
  void RemoveRowSwap(size_t i);

  /// Row-major size() x dim() matrix of the coordinates converted to double
  /// (the eval pipeline transposes it block by block). Built lazily on first
  /// use and cached until the store mutates. NOT thread-safe on the building
  /// call: pipelines must touch it once before fanning out workers
  /// (EvaluateAllInto does).
  const double* DoublePlane() const;

  /// Rows currently covered by the cached double plane (the clean-prefix
  /// watermark). 0 means "not built"; size() means fully cached. Exposed for
  /// tests pinning the dirty-tail fast path.
  size_t cached_plane_rows() const { return double_rows_; }

  /// out[i] = (*this)[i].ContentHash(salt); bit-identical to the per-Point
  /// ContentHashMany.
  void ContentHashMany(uint64_t salt, uint64_t* out) const;

  /// True iff every coordinate of every row lies in [0, delta].
  bool InDomainAll(Coord delta) const;

  /// Drops every row past the first n (no-op when n >= size()). Capacity is
  /// kept; a cached double plane survives as its valid prefix.
  void Truncate(size_t n) {
    if (n >= size_) return;
    size_ = n;
    coords_.resize(n * dim_);
    if (double_rows_ > n) {
      double_rows_ = n;
      doubles_.resize(n * dim_);
    }
  }

  /// Sorts rows lexicographically — the multiset ordering is identical to
  /// std::sort on the equivalent PointSet.
  void SortLex();
  /// SortLex, then removes adjacent duplicate rows (set semantics).
  void SortLexAndDedup();

  /// Conversions to/from the legacy representation.
  Point MakePoint(size_t i) const { return (*this)[i].ToPoint(); }
  PointSet ToPointSet() const;
  static PointStore FromPointSet(size_t dim, const PointSet& points);
  /// Adopts the first point's dimension; an empty set yields an empty,
  /// dimensionless store.
  static PointStore FromPointSet(const PointSet& points);

  /// Serialization. WritePointTo emits row i exactly like Point::WriteTo;
  /// WriteTo emits all rows back to back (callers prepend their own count,
  /// as they did with per-Point loops). ReadFrom consumes `count` points
  /// written in that format; dimension mismatches, corrupt bytes or a count
  /// the remaining bytes cannot hold poison the reader (checked by the
  /// caller's FinishAndCheckConsumed/status), and the reservation is bounded
  /// by the bytes present, never by the count alone.
  void WritePointTo(ByteWriter* w, size_t i) const;
  void WriteTo(ByteWriter* w) const;
  static PointStore ReadFrom(ByteReader* r, size_t dim, size_t count);

 private:
  size_t dim_ = 0;
  size_t size_ = 0;
  std::vector<Coord> coords_;
  /// Cached double plane covering the first double_rows_ rows (invariant:
  /// doubles_.size() == double_rows_ * dim_). double_rows_ == 0 means "not
  /// built"; appends leave the clean prefix in place and DoublePlane()
  /// converts only the tail beyond the watermark.
  mutable std::vector<double> doubles_;
  mutable size_t double_rows_ = 0;
};

/// CHECK-fails unless the store has dimension `dim` and all coordinates lie
/// in [0, delta]^d — the store-native twin of ValidatePointSet (both rest on
/// the same row predicate, so the two paths cannot drift).
void ValidatePointStore(const PointStore& store, size_t dim, Coord delta);

}  // namespace rsr

#endif  // RSR_GEOMETRY_POINT_STORE_H_

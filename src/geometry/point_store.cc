#include "geometry/point_store.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <sstream>

#include "hashing/hash64.h"

namespace rsr {

bool PointRef::operator==(const PointRef& other) const {
  if (dim_ != other.dim_) return false;
  return std::memcmp(data_, other.data_, dim_ * sizeof(Coord)) == 0;
}

bool PointRef::operator<(const PointRef& other) const {
  RSR_DCHECK(dim_ == other.dim_);
  return std::lexicographical_compare(data_, data_ + dim_, other.data_,
                                      other.data_ + other.dim_);
}

bool PointRef::InDomain(Coord delta) const {
  return geometry_internal::RowInDomain(data_, dim_, delta);
}

uint64_t PointRef::ContentHash(uint64_t salt) const {
  return geometry_internal::RowContentHash(data_, dim_, salt);
}

void PointRef::WriteTo(ByteWriter* w) const {
  geometry_internal::WriteRowTo(w, data_, dim_);
}

std::string PointRef::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t j = 0; j < dim_; ++j) {
    if (j > 0) os << ",";
    os << data_[j];
  }
  os << ")";
  return os.str();
}

// RSR_ZERO_ALLOC: raw-row appends after Reserve are allocation-free
// (PointStoreTest.AppendManyAfterReserveDoesNotAllocate).
void PointStore::Append(const Coord* coords) {
  RSR_CHECK(dim_ > 0);
  Coord* row = AppendRow();
  std::memcpy(row, coords, dim_ * sizeof(Coord));
}

// RSR_ZERO_ALLOC: pinned by PointStoreTest.AppendManyAfterReserveDoesNotAllocate.
void PointStore::AppendMany(const PointSet& points) {
  if (points.empty()) return;
  if (dim_ == 0) dim_ = points[0].dim();
  RSR_CHECK(dim_ > 0);
  coords_.reserve(coords_.size() + points.size() * dim_);
  for (const Point& p : points) {
    RSR_CHECK_EQ(p.dim(), dim_);
    coords_.insert(coords_.end(), p.coords().begin(), p.coords().end());
  }
  size_ += points.size();
}

void PointStore::AppendStore(const PointStore& other) {
  RSR_CHECK(&other != this);
  if (other.empty()) return;
  if (dim_ == 0) dim_ = other.dim_;
  RSR_CHECK_EQ(other.dim_, dim_);
  coords_.insert(coords_.end(), other.coords_.begin(), other.coords_.end());
  size_ += other.size_;
}

const double* PointStore::DoublePlane() const {
  if (double_rows_ < size_) {
    // Convert only the rows appended since the last call (the whole store on
    // the first call). Appends keep the clean prefix valid, so the steady-
    // state cost of "append one row, refresh plane" is O(dim), not O(n·dim).
    doubles_.resize(size_ * dim_);
    for (size_t i = double_rows_ * dim_; i < coords_.size(); ++i) {
      doubles_[i] = static_cast<double>(coords_[i]);
    }
    double_rows_ = size_;
  }
  return doubles_.data();
}

void PointStore::RemoveRowSwap(size_t i) {
  RSR_DCHECK(i < size_);
  const size_t last = size_ - 1;
  if (i != last) {
    std::memcpy(coords_.data() + i * dim_, coords_.data() + last * dim_,
                dim_ * sizeof(Coord));
    if (i < double_rows_) {
      // Keep the plane's clean prefix valid for the overwritten row: either
      // the last row's plane entries already exist (copy them) or the last
      // row was still unconverted tail (convert its coords in place).
      if (last < double_rows_) {
        std::memcpy(doubles_.data() + i * dim_, doubles_.data() + last * dim_,
                    dim_ * sizeof(double));
      } else {
        for (size_t j = 0; j < dim_; ++j) {
          doubles_[i * dim_ + j] =
              static_cast<double>(coords_[last * dim_ + j]);
        }
      }
    }
  }
  --size_;
  coords_.resize(size_ * dim_);
  if (double_rows_ > size_) {
    double_rows_ = size_;
    doubles_.resize(double_rows_ * dim_);
  }
}

// RSR_ZERO_ALLOC: part of the warm EMD pipeline pinned by
// PointStoreTest.WarmEvaluateAllIntoAndInsertManyDoNotAllocate.
void PointStore::ContentHashMany(uint64_t salt, uint64_t* out) const {
  for (size_t i = 0; i < size_; ++i) {
    out[i] = geometry_internal::RowContentHash(row(i), dim_, salt);
  }
}

bool PointStore::InDomainAll(Coord delta) const {
  // One pass over the arena: every coordinate of every row shares the bound.
  return geometry_internal::RowInDomain(coords_.data(), coords_.size(), delta);
}

void PointStore::SortLex() {
  if (size_ <= 1) return;
  doubles_.clear();
  double_rows_ = 0;
  std::vector<uint32_t> order(size_);
  std::iota(order.begin(), order.end(), 0u);
  const Coord* base = coords_.data();
  const size_t dim = dim_;
  std::sort(order.begin(), order.end(), [base, dim](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(base + a * dim, base + (a + 1) * dim,
                                        base + b * dim, base + (b + 1) * dim);
  });
  std::vector<Coord> sorted(coords_.size());
  for (size_t i = 0; i < size_; ++i) {
    std::memcpy(sorted.data() + i * dim, base + order[i] * dim,
                dim * sizeof(Coord));
  }
  coords_ = std::move(sorted);
}

void PointStore::SortLexAndDedup() {
  SortLex();
  if (size_ <= 1) return;
  Coord* base = coords_.data();
  const size_t dim = dim_;
  size_t kept = 1;
  for (size_t i = 1; i < size_; ++i) {
    if (std::memcmp(base + i * dim, base + (kept - 1) * dim,
                    dim * sizeof(Coord)) != 0) {
      if (kept != i) {
        std::memcpy(base + kept * dim, base + i * dim, dim * sizeof(Coord));
      }
      ++kept;
    }
  }
  size_ = kept;
  coords_.resize(kept * dim);
}

PointSet PointStore::ToPointSet() const {
  PointSet out;
  out.reserve(size_);
  for (size_t i = 0; i < size_; ++i) out.push_back(MakePoint(i));
  return out;
}

PointStore PointStore::FromPointSet(size_t dim, const PointSet& points) {
  PointStore store(dim);
  store.AppendMany(points);
  return store;
}

PointStore PointStore::FromPointSet(const PointSet& points) {
  PointStore store;
  store.AppendMany(points);
  return store;
}

void PointStore::WritePointTo(ByteWriter* w, size_t i) const {
  geometry_internal::WriteRowTo(w, row(i), dim_);
}

void PointStore::WriteTo(ByteWriter* w) const {
  for (size_t i = 0; i < size_; ++i) WritePointTo(w, i);
}

PointStore PointStore::ReadFrom(ByteReader* r, size_t dim, size_t count) {
  PointStore store(dim);
  // Every row costs at least dim + 1 bytes (a varint dim plus one varint per
  // coordinate), so a count the remaining bytes cannot hold is corrupt; it
  // is rejected before it can size the reservation.
  if (count > r->remaining() / (dim + 1)) {
    r->Invalidate();
    return store;
  }
  store.Reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t wire_dim = r->GetVarint64();
    if (wire_dim != dim || r->failed()) {
      // Poison the reader (same convention as Point::ReadFrom) and stop.
      r->Invalidate();
      return store;
    }
    Coord* row = store.AppendRow();
    for (size_t j = 0; j < dim; ++j) row[j] = r->GetSignedVarint64();
  }
  return store;
}

void ValidatePointStore(const PointStore& store, size_t dim, Coord delta) {
  RSR_CHECK(store.empty() || store.dim() == dim);
  RSR_CHECK(store.InDomainAll(delta));
}

}  // namespace rsr

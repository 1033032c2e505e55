#include "obs/histogram.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace alps::obs {

namespace {

constexpr double kGrowth = 1.08;
constexpr double kFirstUpper = 1e-9;

// The boundary table *defines* the buckets: bucket_index agrees with it
// bit-for-bit, so a value equal to upper(i) always lands in bucket i —
// the exactness property test_serve.cpp asserts. Cumulative
// multiplication (not pow) keeps adjacent bounds consistent.
const std::array<double, Histogram::kBucketCount>& upper_table() {
  static const std::array<double, Histogram::kBucketCount> t = [] {
    std::array<double, Histogram::kBucketCount> a{};
    double u = kFirstUpper;
    for (int i = 0; i < Histogram::kBucketCount; ++i) {
      a[static_cast<std::size_t>(i)] = u;
      u *= kGrowth;
    }
    return a;
  }();
  return t;
}

}  // namespace

double Histogram::growth() { return kGrowth; }
double Histogram::first_upper() { return kFirstUpper; }

double Histogram::bucket_upper(int i) {
  i = std::clamp(i, 0, kBucketCount - 1);
  return upper_table()[static_cast<std::size_t>(i)];
}

double Histogram::bucket_lower(int i) {
  return i <= 0 ? 0.0 : bucket_upper(i - 1);
}

double Histogram::bucket_mid(int i) {
  // Geometric midpoint of (lower, upper]; for bucket 0 the nominal lower
  // bound upper/growth keeps the formula uniform.
  return bucket_upper(i) / std::sqrt(kGrowth);
}

int Histogram::bucket_index(double seconds) {
  if (!(seconds > kFirstUpper)) return 0;  // also catches NaN / negatives
  static const double inv_log_g = 1.0 / std::log(kGrowth);
  int i = static_cast<int>(std::ceil(std::log(seconds / kFirstUpper) *
                                     inv_log_g));
  i = std::clamp(i, 0, kBucketCount - 1);
  // The log estimate can be off by one ulp-step near a boundary; settle
  // against the table so the boundary semantics are exact.
  while (i > 0 && seconds <= bucket_upper(i - 1)) --i;
  while (i < kBucketCount - 1 && seconds > bucket_upper(i)) ++i;
  return i;
}

void Histogram::record(double seconds) {
  if (!std::isfinite(seconds) || seconds < 0) return;
  if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
  buckets_[static_cast<std::size_t>(bucket_index(seconds))]++;
  if (count_ == 0) {
    min_ = max_ = seconds;
  } else {
    min_ = std::min(min_, seconds);
    max_ = std::max(max_, seconds);
  }
  count_++;
  sum_ += seconds;
}

void Histogram::merge(const Histogram& o) {
  phase_ = phase_ || o.phase_;
  if (o.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
  for (int i = 0; i < kBucketCount; ++i)
    buckets_[static_cast<std::size_t>(i)] += o.bucket(i);
  expand_range(o.min_, o.max_);
  count_ += o.count_;
  sum_ += o.sum_;
}

Histogram Histogram::delta_since(const Histogram& base) const {
  Histogram d;
  d.phase_ = phase_;
  int lo = -1, hi = -1;
  for (int i = 0; i < kBucketCount; ++i) {
    const std::uint64_t cur = bucket(i);
    const std::uint64_t old = base.bucket(i);
    const std::uint64_t n = cur > old ? cur - old : 0;
    if (n == 0) continue;
    if (d.buckets_.empty()) d.buckets_.assign(kBucketCount, 0);
    d.buckets_[static_cast<std::size_t>(i)] = n;
    d.count_ += n;
    if (lo < 0) lo = i;
    hi = i;
  }
  d.sum_ = std::max(0.0, sum_ - base.sum_);
  if (d.count_ > 0) {
    // Window extremes are unknown exactly (cumulative min/max do not
    // difference). Every sample lies at or below its bucket's upper edge
    // and the largest one at or below the window sum, so the smaller of
    // the two keeps max <= sum <= count * max (and is exact for a single
    // sample). The low end is the first bucket's midpoint, capped at max.
    d.max_ = std::min(bucket_upper(hi), d.sum_);
    d.min_ = std::min(bucket_mid(lo), d.max_);
  }
  return d;
}

double Histogram::min() const { return count_ > 0 ? min_ : 0.0; }
double Histogram::max() const { return count_ > 0 ? max_ : 0.0; }

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t target =
      static_cast<std::uint64_t>(q * static_cast<double>(count_));
  if (target >= count_) target = count_ - 1;
  std::uint64_t seen = 0;
  int b = kBucketCount - 1;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += bucket(i);
    if (seen > target) {
      b = i;
      break;
    }
  }
  return std::clamp(bucket_mid(b), min(), max());
}

std::uint64_t Histogram::bucket(int i) const {
  if (buckets_.empty() || i < 0 || i >= kBucketCount) return 0;
  return buckets_[static_cast<std::size_t>(i)];
}

void Histogram::add_bucket(int i, std::uint64_t n) {
  if (i < 0 || i >= kBucketCount || n == 0) return;
  if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
  buckets_[static_cast<std::size_t>(i)] += n;
  count_ += n;
}

void Histogram::expand_range(double mn, double mx) {
  if (count_ == 0) {
    min_ = mn;
    max_ = mx;
  } else {
    min_ = std::min(min_, mn);
    max_ = std::max(max_, mx);
  }
}

}  // namespace alps::obs

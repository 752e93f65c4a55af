#include "orion/stats/hyperloglog.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

namespace orion::stats {

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  if (precision < 4 || precision > 18) {
    throw std::invalid_argument("HyperLogLog: precision must be in [4, 18]");
  }
  registers_.assign(std::size_t{1} << precision, 0);
}

double HyperLogLog::estimate() const {
  const auto m = static_cast<double>(registers_.size());
  double inverse_sum = 0.0;
  std::size_t zero_registers = 0;
  for (const std::uint8_t reg : registers_) {
    inverse_sum += std::ldexp(1.0, -reg);
    if (reg == 0) ++zero_registers;
  }
  const double alpha =
      registers_.size() == 16 ? 0.673
      : registers_.size() == 32 ? 0.697
      : registers_.size() == 64 ? 0.709
                                : 0.7213 / (1.0 + 1.079 / m);
  const double raw = alpha * m * m / inverse_sum;
  if (raw <= 2.5 * m && zero_registers > 0) {
    // Small-range correction: linear counting on empty registers.
    return m * std::log(m / static_cast<double>(zero_registers));
  }
  return raw;
}

void HyperLogLog::set_registers(std::vector<std::uint8_t> registers) {
  if (registers.size() != (std::size_t{1} << precision_)) {
    throw std::invalid_argument("HyperLogLog::set_registers: size mismatch");
  }
  registers_ = std::move(registers);
}

void HyperLogLog::merge(const HyperLogLog& other) {
  if (other.precision_ != precision_) {
    throw std::invalid_argument("HyperLogLog::merge: precision mismatch");
  }
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    if (other.registers_[i] > registers_[i]) registers_[i] = other.registers_[i];
  }
}

CardinalityEstimator::CardinalityEstimator(std::size_t exact_limit,
                                           int hll_precision,
                                           std::uint64_t key_bound)
    : exact_limit_(exact_limit),
      hll_precision_(hll_precision),
      key_bound_(key_bound),
      sketch_(hll_precision) {}

namespace {

/// 64-bit words in a bitmap over [0, bound).
std::size_t bitmap_words(std::uint64_t bound) {
  return static_cast<std::size_t>(bound / 64 + (bound % 64 != 0 ? 1 : 0));
}

}  // namespace

void CardinalityEstimator::reject_key(std::uint64_t key) const {
  throw std::out_of_range("CardinalityEstimator: key " + std::to_string(key) +
                          " outside the key bound " +
                          std::to_string(key_bound_));
}

void CardinalityEstimator::insert_sparse(std::uint64_t key) {
  // Grow at 3/4 load (counting only the keys stored in table_). A growth
  // that would outsize the key-bound bitmap switches to the bitmap.
  const std::size_t stored = exact_size_ - (has_zero_ ? 1 : 0);
  if (table_.empty() || (stored + 1) * 4 > table_.size() * 3) {
    const std::size_t grown = table_.empty() ? 16 : table_.size() * 2;
    if (key_bound_ != 0 && grown > bitmap_words(key_bound_)) {
      densify();
      add(key);  // the dense path (it may promote; the caller's check is then moot)
      return;
    }
    std::vector<std::uint64_t> old = std::move(table_);
    table_.assign(grown, 0);
    const std::size_t mask = table_.size() - 1;
    for (const std::uint64_t k : old) {
      if (k == 0) continue;
      std::size_t i = hll_hash(k) & mask;
      while (table_[i] != 0) i = (i + 1) & mask;
      table_[i] = k;
    }
  }
  const std::size_t mask = table_.size() - 1;
  std::size_t i = hll_hash(key) & mask;
  while (table_[i] != 0) {
    if (table_[i] == key) return;
    i = (i + 1) & mask;
  }
  table_[i] = key;
  ++exact_size_;
}

void CardinalityEstimator::densify() {
  std::vector<std::uint64_t> bits(bitmap_words(key_bound_), 0);
  for (const std::uint64_t k : table_) {
    if (k != 0) bits[k >> 6] |= std::uint64_t{1} << (k & 63);
  }
  if (has_zero_) bits[0] |= 1;
  has_zero_ = false;
  table_ = std::move(bits);
  phase_ = Phase::Dense;
}

void CardinalityEstimator::promote() {
  if (phase_ == Phase::Dense) {
    for (std::size_t w = 0; w < table_.size(); ++w) {
      for (std::uint64_t bits = table_[w]; bits != 0; bits &= bits - 1) {
        sketch_.add(hll_hash(w * 64 + static_cast<std::uint64_t>(
                                          std::countr_zero(bits))));
      }
    }
  } else {
    for (const std::uint64_t k : table_) {
      if (k != 0) sketch_.add(hll_hash(k));
    }
    if (has_zero_) sketch_.add(hll_hash(0));
  }
  table_.clear();
  table_.shrink_to_fit();
  has_zero_ = false;
  exact_size_ = 0;
  phase_ = Phase::Sketch;
}

void CardinalityEstimator::add_sparse(std::uint64_t key) {
  if (key == 0) {
    if (!has_zero_) {
      has_zero_ = true;
      ++exact_size_;
    }
  } else {
    insert_sparse(key);
  }
  if (exact_size_ > exact_limit_) promote();
}

std::vector<std::uint64_t> CardinalityEstimator::exact_keys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(exact_size_);
  if (phase_ == Phase::Dense) {
    for (std::size_t w = 0; w < table_.size(); ++w) {
      for (std::uint64_t bits = table_[w]; bits != 0; bits &= bits - 1) {
        keys.push_back(w * 64 +
                       static_cast<std::uint64_t>(std::countr_zero(bits)));
      }
    }
    return keys;
  }
  if (has_zero_) keys.push_back(0);
  for (const std::uint64_t k : table_) {
    if (k != 0) keys.push_back(k);
  }
  return keys;
}

void CardinalityEstimator::restore(bool promoted,
                                   const std::vector<std::uint64_t>& exact,
                                   HyperLogLog sketch) {
  if (sketch.precision() != hll_precision_) {
    throw std::invalid_argument(
        "CardinalityEstimator::restore: precision mismatch");
  }
  if (promoted ? !exact.empty() : exact.size() > exact_limit_) {
    throw std::invalid_argument(
        "CardinalityEstimator::restore: exact keys inconsistent with phase");
  }
  for (const std::uint64_t k : exact) {
    if (key_bound_ != 0 && k >= key_bound_) {
      throw std::invalid_argument(
          "CardinalityEstimator::restore: key outside the key bound");
    }
  }
  phase_ = Phase::Sparse;
  table_.clear();
  has_zero_ = false;
  exact_size_ = 0;
  // Re-adding through the live path lands in the representation the
  // original run held (the switch depends only on the key set), and
  // cannot promote: the count is within the limit.
  for (const std::uint64_t k : exact) add(k);
  if (promoted) phase_ = Phase::Sketch;
  sketch_ = std::move(sketch);
}

std::uint64_t CardinalityEstimator::estimate() const {
  if (phase_ != Phase::Sketch) return exact_size_;
  return static_cast<std::uint64_t>(std::llround(sketch_.estimate()));
}

}  // namespace orion::stats

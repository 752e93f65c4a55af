// HyperLogLog cardinality sketch and the hybrid exact/HLL estimator the
// event aggregator uses for unique-destination counting (sparse set →
// dense key-bound bitmap → HLL; DESIGN.md §17).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace orion::stats {

/// Standard HyperLogLog (Flajolet et al. 2007) with the small-range
/// linear-counting correction. Precision p gives 2^p registers and a
/// relative error of roughly 1.04 / sqrt(2^p).
class HyperLogLog {
 public:
  explicit HyperLogLog(int precision = 12);

  void add(std::uint64_t hash) {
    const std::size_t index = hash >> (64 - precision_);
    const std::uint64_t rest = hash << precision_;
    // Rank = position of the leftmost 1-bit in the remaining bits,
    // 1-based; all-zero remainder gets the maximum rank.
    const int rank =
        rest == 0 ? 64 - precision_ + 1 : std::countl_zero(rest) + 1;
    if (registers_[index] < rank) {
      registers_[index] = static_cast<std::uint8_t>(rank);
    }
  }
  double estimate() const;
  void merge(const HyperLogLog& other);
  int precision() const { return precision_; }
  std::size_t memory_bytes() const { return registers_.size(); }

  /// Checkpoint support: raw register access and restore. `set_registers`
  /// throws std::invalid_argument if the size does not match 2^precision.
  const std::vector<std::uint8_t>& registers() const { return registers_; }
  void set_registers(std::vector<std::uint8_t> registers);

 private:
  int precision_;
  std::vector<std::uint8_t> registers_;
};

/// Mixes an arbitrary 64-bit key into a well-distributed hash for HLL
/// (the SplitMix64 finalizer: full-avalanche 64-bit mix).
inline std::uint64_t hll_hash(std::uint64_t key) {
  std::uint64_t z = key + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Counts distinct 64-bit keys exactly up to `exact_limit`, then converts
/// to an HLL sketch. Per-event unique-destination tracking needs exactness
/// for small events (most events touch a handful of dark IPs) but bounded
/// memory for Internet-wide sweeps, which is exactly this trade-off.
///
/// The exact phase has two representations, chosen by what the keys are,
/// never by a setting:
///   * sparse — a flat open-addressing u64 set (zero is the empty
///     sentinel, tracked by a side flag); the per-insert node allocation
///     of std::unordered_set dominated the aggregator's per-packet cost.
///   * dense — when the caller passes a `key_bound` (every key lies in
///     [0, key_bound), as dark-space offsets do) and the sparse table
///     would grow past the size of a bitmap over that range, the keys move
///     into the bitmap: one bit test-and-set per add, no hashing, no
///     rehash growth, at most key_bound/8 bytes. A bound whose bitmap is
///     larger than the table ever gets below `exact_limit` leaves the
///     estimator sparse, so the switch only ever shrinks memory.
/// Observationally neither choice changes anything: estimate() is the
/// distinct count, checkpoints sort the exact keys, and promotion to HLL
/// happens at the same `exact_limit` and takes a register max over the
/// same key set — max is order-free, so the registers are identical to a
/// bound-less estimator fed the same keys (DESIGN.md §17).
class CardinalityEstimator {
 public:
  /// `key_bound` 0 means unbounded keys (always sparse); otherwise add()
  /// and restore() reject keys >= key_bound (std::out_of_range /
  /// std::invalid_argument) instead of writing past the bitmap.
  explicit CardinalityEstimator(std::size_t exact_limit = 4096,
                                int hll_precision = 12,
                                std::uint64_t key_bound = 0);

  void add(std::uint64_t key) {
    if (key_bound_ != 0 && key >= key_bound_) reject_key(key);
    if (phase_ == Phase::Dense) {
      std::uint64_t& word = table_[key >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (key & 63);
      if ((word & bit) != 0) return;
      word |= bit;
      if (++exact_size_ > exact_limit_) promote();
      return;
    }
    if (phase_ == Phase::Sketch) {
      sketch_.add(hll_hash(key));
      return;
    }
    add_sparse(key);
  }
  /// Exact count while below the limit; HLL estimate afterwards.
  std::uint64_t estimate() const;
  bool is_exact() const { return phase_ != Phase::Sketch; }
  /// True while the exact keys live in the key_bound bitmap.
  bool is_dense() const { return phase_ == Phase::Dense; }

  /// Checkpoint support: expose and reinstate the full estimator state.
  /// Keys come back in unspecified order (ascending when dense) —
  /// checkpoint writers sort them. The restored estimator keeps this
  /// instance's limit, precision and key bound; `restore` throws
  /// std::invalid_argument on a precision mismatch, a key outside the
  /// bound, more exact keys than the limit, or exact keys beside a
  /// promoted sketch. Duplicate keys collapse (set semantics).
  std::vector<std::uint64_t> exact_keys() const;
  const HyperLogLog& sketch() const { return sketch_; }
  void restore(bool promoted, const std::vector<std::uint64_t>& exact,
               HyperLogLog sketch);

 private:
  enum class Phase : std::uint8_t { Sparse, Dense, Sketch };

  void add_sparse(std::uint64_t key);
  void insert_sparse(std::uint64_t key);
  void densify();
  void promote();
  [[noreturn]] void reject_key(std::uint64_t key) const;

  std::size_t exact_limit_;
  int hll_precision_;
  Phase phase_ = Phase::Sparse;
  bool has_zero_ = false;          // sparse: key 0 lives here, not in table_
  std::uint64_t key_bound_;        // 0 = unbounded
  std::size_t exact_size_ = 0;     // distinct keys, including a zero key
  /// Sparse: open-addressing slots (0 = empty). Dense: the key bitmap.
  std::vector<std::uint64_t> table_;
  HyperLogLog sketch_;
};

}  // namespace orion::stats

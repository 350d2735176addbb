// montgomery.h — Montgomery-form modular multiplication and exponentiation.
//
// All protocol-critical arithmetic (blind signatures, representation proofs,
// Schnorr signatures) reduces to modular exponentiation with a fixed odd
// modulus, so we precompute a Montgomery context per modulus and use CIOS
// multiplication (Koç–Acar–Kaliski) with a fixed 4-bit window exponentiation.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bn/bigint.h"

namespace p2pcash::bn {

class FixedBaseTable;  // multi_exp.h

/// Precomputed context for arithmetic modulo a fixed odd modulus.
/// Thread-compatible: const methods are safe to call concurrently.
class MontgomeryCtx {
 public:
  /// Throws std::domain_error unless modulus is odd and > 1.
  explicit MontgomeryCtx(BigInt modulus);

  const BigInt& modulus() const { return modulus_; }

  /// base^exp mod modulus, exp >= 0 (throws std::domain_error if negative).
  BigInt exp(const BigInt& base, const BigInt& exponent) const;

  /// (a * b) mod modulus.
  BigInt mul(const BigInt& a, const BigInt& b) const;

  // --- fixed-base / multi-exponentiation fast paths (multi_exp.cpp) ------

  /// Builds a fixed-base windowing table covering exponents up to
  /// `max_exp_bits` bits.  One-time cost ~(2^w/w)·max_exp_bits Montgomery
  /// multiplications; see FixedBaseTable::memory_bytes for the footprint.
  FixedBaseTable precompute_base(const BigInt& base, std::size_t max_exp_bits,
                                 std::size_t window_bits = 4) const;

  /// base^exp via the table: ceil(bits/w) multiplications, no squarings.
  /// Falls back to exp() when the exponent exceeds the table's coverage.
  /// exp >= 0 (throws std::domain_error if negative).
  BigInt exp_fixed(const FixedBaseTable& table, const BigInt& exponent) const;

  /// prod_i bases[i]^exponents[i]: Straus interleaving (one shared
  /// squaring ladder for all bases instead of one ladder each).
  /// Requires bases.size() == exponents.size(), all exponents >= 0.
  BigInt multi_exp(std::span<const BigInt> bases,
                   std::span<const BigInt> exponents) const;

 private:
  using Limb = BigInt::Limb;
  std::vector<Limb> to_mont(const BigInt& a) const;
  BigInt from_mont(std::vector<Limb> a) const;
  /// CIOS: returns a*b*R^{-1} mod n; inputs/outputs are n_limbs_ long.
  std::vector<Limb> mont_mul(const std::vector<Limb>& a,
                             const std::vector<Limb>& b) const;

  BigInt modulus_;
  std::vector<Limb> n_;     // modulus limbs, length n_limbs_
  std::size_t n_limbs_ = 0;
  Limb n0_inv_ = 0;         // -n^{-1} mod 2^32
  std::vector<Limb> r2_;    // R^2 mod n (Montgomery form of R)
  std::vector<Limb> one_;   // R mod n (Montgomery form of 1)
};

}  // namespace p2pcash::bn

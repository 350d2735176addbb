// common.h — shared vocabulary types for the e-cash core.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>

namespace p2pcash::ecash {

/// Protocol time in milliseconds. Under the discrete-event simulator this is
/// virtual time; in the examples it is wall-clock milliseconds since epoch.
/// All protocol methods take `now` explicitly — no global clock.
using Timestamp = std::int64_t;

/// Merchant identifier I_M (a stable, broker-registered name).
using MerchantId = std::string;

/// The registered name of a deployment's i-th merchant: "m000", "m001", …
MerchantId merchant_name(std::size_t i);

/// Reserved counterparty id for paying a coin *to the broker* (the
/// denomination-exchange extension): the coin's witness countersigns the
/// transcript exactly as for a merchant payment, so exchanges get the same
/// real-time double-spend protection.  Never a valid merchant name.
inline const char kBrokerCounterparty[] = "@broker";

/// Why a protocol participant refused a request.
enum class RefusalReason : std::uint8_t {
  kInvalidCoin,            ///< broker signature / structure check failed
  kWrongWitness,           ///< this node is not the coin's witness
  kExpired,                ///< outside the coin's validity window
  kDoubleSpent,            ///< coin seen before; proof attached where possible
  kAlreadyDeposited,       ///< same merchant re-deposited the same coin
  kCommitmentOutstanding,  ///< a live commitment exists for this coin
  kBadNonce,               ///< nonce != h(salt || I_M)
  kBadProof,               ///< NIZK response failed verification
  kBadSignature,           ///< a required plain signature failed
  kUnknownMerchant,        ///< depositor/witness not registered at the broker
  kStaleRequest,           ///< commitment expired or timestamp out of window
  kDuplicate,              ///< redundant delivery of an already-recorded item
  kInternal,               ///< unexpected condition
};

const char* to_string(RefusalReason reason);

/// A refusal with a human-readable detail string.
struct Refusal {
  RefusalReason reason;
  std::string detail;
};

/// Either a successful value or a protocol refusal.  Protocol refusals are
/// expected outcomes (e.g. "coin already spent"), not programming errors, so
/// they are values rather than exceptions (Core Guidelines E.3).
template <typename T>
class Outcome {
 public:
  Outcome(T value) : state_(std::move(value)) {}  // NOLINT — intended implicit
  Outcome(Refusal refusal) : state_(std::move(refusal)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  /// Precondition: ok().
  const T& value() const& { return std::get<T>(state_); }
  T& value() & { return std::get<T>(state_); }
  T&& value() && { return std::get<T>(std::move(state_)); }

  /// Precondition: !ok().
  const Refusal& refusal() const { return std::get<Refusal>(state_); }

 private:
  std::variant<T, Refusal> state_;
};

/// Money amounts in cents — "mini-payments" are coin-sized (paper §1), so
/// 32-bit cents are ample.
using Cents = std::uint32_t;

}  // namespace p2pcash::ecash

#include "ecash/common.h"

#include <cstdio>

namespace p2pcash::ecash {

MerchantId merchant_name(std::size_t i) {
  char buf[32];  // large enough for "m" + any 64-bit index
  std::snprintf(buf, sizeof buf, "m%03zu", i);
  return buf;
}

const char* to_string(RefusalReason reason) {
  switch (reason) {
    case RefusalReason::kInvalidCoin: return "invalid-coin";
    case RefusalReason::kWrongWitness: return "wrong-witness";
    case RefusalReason::kExpired: return "expired";
    case RefusalReason::kDoubleSpent: return "double-spent";
    case RefusalReason::kAlreadyDeposited: return "already-deposited";
    case RefusalReason::kCommitmentOutstanding: return "commitment-outstanding";
    case RefusalReason::kBadNonce: return "bad-nonce";
    case RefusalReason::kBadProof: return "bad-proof";
    case RefusalReason::kBadSignature: return "bad-signature";
    case RefusalReason::kUnknownMerchant: return "unknown-merchant";
    case RefusalReason::kStaleRequest: return "stale-request";
    case RefusalReason::kDuplicate: return "duplicate";
    case RefusalReason::kInternal: return "internal";
  }
  return "unknown";
}

}  // namespace p2pcash::ecash

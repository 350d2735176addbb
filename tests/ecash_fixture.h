// Shared test fixture: a small in-memory deployment plus helpers.

#pragma once

#include <gtest/gtest.h>

#include "ecash/deployment.h"
#include "store/vfs.h"

namespace p2pcash::ecash::testing {

/// Deployment of `kMerchants` merchants over the fast 256-bit test group.
/// A `journaled` deployment keeps every service's log in vfs_.
class EcashTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kMerchants = 8;

  EcashTest() : EcashTest(Broker::Config{}) {}
  explicit EcashTest(Broker::Config config, bool journaled = false)
      : dep_(group::SchnorrGroup::test_256(), kMerchants, /*seed=*/1234,
             config, 10'000, journaled ? &vfs_ : nullptr),
        wallet_(dep_.make_wallet()) {}

  /// Withdraws a coin or fails the test.
  WalletCoin withdraw(Cents denomination = 100, Timestamp now = 1000) {
    auto coin = dep_.withdraw(*wallet_, denomination, now);
    EXPECT_TRUE(coin.ok()) << (coin.ok() ? "" : coin.refusal().detail);
    return std::move(coin).value();
  }

  /// First merchant id that is NOT one of the coin's witnesses (so payment
  /// always involves a remote witness hop).
  MerchantId non_witness_merchant(const WalletCoin& coin) {
    for (const auto& id : dep_.merchant_ids()) {
      bool is_witness = false;
      for (const auto& w : coin.coin.witnesses) {
        if (w.merchant == id) is_witness = true;
      }
      if (!is_witness) return id;
    }
    ADD_FAILURE() << "all merchants are witnesses of this coin";
    return dep_.merchant_ids().front();
  }

  store::MemVfs vfs_;
  Deployment dep_;
  std::unique_ptr<Wallet> wallet_;
};

}  // namespace p2pcash::ecash::testing

// Golden vectors: the whole deterministic pipeline pinned end-to-end.
//
// Everything in this library is derandomized behind seeded ChaCha20
// streams, so a fixed seed produces bit-identical artifacts.  These tests
// pin SHA-256 digests of canonical encodings: any unintentional change to
// the wire format, the group generation, the hash domains, the blinding
// arithmetic, or the RNG consumption order shows up here first —
// protecting interoperability between independently built nodes.

#include <gtest/gtest.h>

#include "actors/world.h"
#include "crypto/sha256.h"
#include "ecash/deployment.h"
#include "wire/codec.h"

namespace p2pcash::ecash {
namespace {

std::string digest_of(const std::vector<std::uint8_t>& bytes) {
  return crypto::digest_to_hex(crypto::Sha256::hash(bytes));
}

TEST(GoldenVectors, TestGroupParametersArePinned) {
  // The 256-bit test group is generated deterministically from a public
  // seed; its prime is a cross-version constant.
  EXPECT_EQ(group::SchnorrGroup::test_256().p().to_hex(),
            "aaa21aa1861f0d6ef402b3282186ab50b2b061b53d6871fdb086ed38ebd0970b");
  EXPECT_EQ(group::SchnorrGroup::test_256().q().bit_length(), 160u);
}

// These digests pin the one node recipe (deployment.h) that SimWorld and
// NodeRuntime build on too, so they move only with that recipe.
TEST(GoldenVectors, EndToEndArtifactsArePinned) {
  Deployment dep(group::SchnorrGroup::test_256(), 4, /*seed=*/424242);
  auto wallet = dep.make_wallet();
  auto coin = dep.withdraw(*wallet, 100, 1000);
  ASSERT_TRUE(coin.ok());
  EXPECT_EQ(
      digest_of(wire::encode(coin.value().coin)),
      "f71e4d552a6ef02a9ca3e8f68d5e5e0f5398bec7f1bbd9bf4fe18832cf09c823");

  MerchantId target = dep.merchant_ids()[0] ==
                              coin.value().coin.witnesses[0].merchant
                          ? dep.merchant_ids()[1]
                          : dep.merchant_ids()[0];
  ASSERT_TRUE(dep.pay(*wallet, coin.value(), target, 2000).accepted);
  auto queue = dep.node(target).merchant->drain_deposit_queue();
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(
      digest_of(wire::encode(queue[0])),
      "55249a1dff358e8e86302b1b4cb308a8b1fcd8019b375d999772e2fa653c53bc");

  EXPECT_EQ(
      digest_of(wire::encode(dep.broker().current_table())),
      "444adcd8c44c12fda4e66a66ebdab59a7ab405d6ddeb164a7f288c4666e99ff2");
}

TEST(GoldenVectors, DeploymentAndSimWorldShareOneRecipe) {
  // The synchronous Deployment and the actor world are one node set: the
  // same seed gives the same broker state and the same signed table.
  const auto& grp = group::SchnorrGroup::test_256();
  Deployment dep(grp, 5, /*seed=*/99);
  actors::SimWorld::Options opt;
  opt.merchants = 5;
  opt.seed = 99;
  actors::SimWorld world(grp, opt);
  EXPECT_EQ(dep.broker().snapshot_state(), world.broker().snapshot_state());
  EXPECT_EQ(wire::encode(dep.broker().current_table()),
            wire::encode(world.broker().current_table()));
  for (const auto& id : dep.merchant_ids())
    EXPECT_EQ(dep.node(id).witness->snapshot_state(),
              world.witness(id).snapshot_state())
        << id;
}

TEST(GoldenVectors, RerunsAreBitIdentical) {
  auto run = [] {
    Deployment dep(group::SchnorrGroup::test_256(), 4, /*seed=*/7);
    auto wallet = dep.make_wallet();
    auto coin = dep.withdraw(*wallet, 50, 1000);
    return wire::encode(coin.value().coin);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace p2pcash::ecash

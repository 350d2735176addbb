#include "ecash/coin.h"

#include "crypto/sha256.h"
#include "metrics/counters.h"
#include "nizk/representation.h"

namespace p2pcash::ecash {

using bn::BigInt;

void CoinInfo::encode(wire::Writer& w) const {
  w.put_u32(denomination);
  w.put_u32(list_version);
  w.put_i64(soft_expiry);
  w.put_i64(hard_expiry);
  w.put_u8(witness_n);
  w.put_u8(witness_k);
  w.put_bytes(escrow_tag);
}

CoinInfo CoinInfo::decode(wire::Reader& r) {
  CoinInfo info;
  info.denomination = r.get_u32();
  info.list_version = r.get_u32();
  info.soft_expiry = r.get_i64();
  info.hard_expiry = r.get_i64();
  info.witness_n = r.get_u8();
  info.witness_k = r.get_u8();
  info.escrow_tag = r.get_bytes();
  return info;
}

void BareCoin::encode(wire::Writer& w) const {
  w.put_bigint(sig.rho);
  w.put_bigint(sig.omega);
  w.put_bigint(sig.sigma);
  w.put_bigint(sig.delta);
  info.encode(w);
  w.put_bigint(a);
  w.put_bigint(b);
}

BareCoin BareCoin::decode(wire::Reader& r) {
  BareCoin coin;
  coin.sig.rho = r.get_bigint();
  coin.sig.omega = r.get_bigint();
  coin.sig.sigma = r.get_bigint();
  coin.sig.delta = r.get_bigint();
  coin.info = CoinInfo::decode(r);
  coin.a = r.get_bigint();
  coin.b = r.get_bigint();
  return coin;
}

std::vector<std::uint8_t> BareCoin::blind_message() const {
  wire::Writer w;
  w.put_string("p2pcash/coin-commitments/v1");
  w.put_bigint(a);
  w.put_bigint(b);
  return w.take();
}

std::array<std::uint8_t, 32> BareCoin::coin_hash() const {
  metrics::count_hash();
  crypto::Sha256 h;
  h.update(std::string_view("p2pcash/coin-hash/v1"));
  h.update(bytes());
  return h.finalize();
}

BigInt witness_point(const std::array<std::uint8_t, 32>& coin_hash,
                     std::uint8_t index) {
  // Slot 0 is h(bare coin) truncated to the range space — no extra hash.
  if (index == 0) {
    return BigInt::from_bytes_be(
        std::span<const std::uint8_t>(coin_hash.data(), kRangeBits / 8));
  }
  metrics::count_hash();
  crypto::Sha256 h;
  h.update(std::string_view("p2pcash/witness-point/v1"));
  h.update(coin_hash);
  h.update(std::span<const std::uint8_t>(&index, 1));
  auto digest = h.finalize();
  return BigInt::from_bytes_be(
      std::span<const std::uint8_t>(digest.data(), kRangeBits / 8));
}

BigInt BareCoin::witness_point(std::uint8_t index) const {
  return ecash::witness_point(coin_hash(), index);
}

bool check_witness_probe_sequence(
    const Coin& coin, const std::array<std::uint8_t, 32>& coin_hash) {
  std::size_t next = 0;  // next claimed entry to verify
  for (std::uint8_t idx = 0;
       idx < kMaxWitnessProbes && next < coin.witnesses.size(); ++idx) {
    BigInt point = witness_point(coin_hash, idx);
    bool in_prior = false;
    for (std::size_t j = 0; j < next; ++j) {
      if (coin.witnesses[j].contains(point)) {
        in_prior = true;  // collision with an assigned witness: skip probe
        break;
      }
    }
    if (in_prior) continue;
    if (!coin.witnesses[next].contains(point)) return false;
    ++next;
  }
  return next == coin.witnesses.size();
}

std::vector<std::uint8_t> TransferLink::signed_payload(
    const std::array<std::uint8_t, 32>& coin_hash,
    std::uint32_t position) const {
  wire::Writer w;
  w.put_string("p2pcash/transfer-link/v1");
  w.put_bytes(coin_hash);
  w.put_u32(position);
  w.put_bigint(new_a);
  w.put_bigint(new_b);
  w.put_bigint(r1);
  w.put_bigint(r2);
  w.put_i64(datetime);
  w.put_string(witness);
  return w.take();
}

void TransferLink::encode(wire::Writer& w) const {
  w.put_bigint(new_a);
  w.put_bigint(new_b);
  w.put_bigint(r1);
  w.put_bigint(r2);
  w.put_i64(datetime);
  w.put_string(witness);
  w.put_bigint(sig_e);
  w.put_bigint(sig_s);
}

TransferLink TransferLink::decode(wire::Reader& r) {
  TransferLink link;
  link.new_a = r.get_bigint();
  link.new_b = r.get_bigint();
  link.r1 = r.get_bigint();
  link.r2 = r.get_bigint();
  link.datetime = r.get_i64();
  link.witness = r.get_string();
  link.sig_e = r.get_bigint();
  link.sig_s = r.get_bigint();
  return link;
}

void Coin::encode(wire::Writer& w) const {
  bare.encode(w);
  w.put_u8(static_cast<std::uint8_t>(witnesses.size()));
  for (const auto& entry : witnesses) entry.encode(w);
  w.put_u32(static_cast<std::uint32_t>(transfers.size()));
  for (const auto& link : transfers) link.encode(w);
}

Coin Coin::decode(wire::Reader& r) {
  Coin coin;
  coin.bare = BareCoin::decode(r);
  std::uint8_t n = r.get_u8();
  coin.witnesses.reserve(n);
  for (std::uint8_t i = 0; i < n; ++i)
    coin.witnesses.push_back(SignedWitnessEntry::decode(r));
  std::uint32_t links = r.get_u32();
  if (links > 4096)  // sanity bound: also prevents huge-reserve DoS
    throw wire::DecodeError("Coin: transfer chain too long");
  coin.transfers.reserve(links);
  for (std::uint32_t i = 0; i < links; ++i)
    coin.transfers.push_back(TransferLink::decode(r));
  return coin;
}

CurrentCommitments current_commitments(const Coin& coin) {
  if (coin.transfers.empty()) return {coin.bare.a, coin.bare.b};
  return {coin.transfers.back().new_a, coin.transfers.back().new_b};
}

BigInt transfer_challenge(const group::SchnorrGroup& grp,
                          const Coin& coin_before_link, const BigInt& new_a,
                          const BigInt& new_b, Timestamp datetime) {
  wire::Writer w;
  w.put_string("p2pcash/transfer-challenge/v1");
  coin_before_link.encode(w);
  w.put_bigint(new_a);
  w.put_bigint(new_b);
  w.put_i64(datetime);
  return grp.hash_to_zq(w.take());
}

Outcome<std::monostate> verify_transfer_chain(const group::SchnorrGroup& grp,
                                              const Coin& coin) {
  if (coin.transfers.empty()) return std::monostate{};
  if (coin.witnesses.empty())
    return Refusal{RefusalReason::kInvalidCoin, "no witness entries"};
  const SignedWitnessEntry& endorser = coin.witnesses[0];
  const auto coin_hash = coin.bare.coin_hash();
  Coin prefix;  // the coin as it looked before each link
  prefix.bare = coin.bare;
  prefix.witnesses = coin.witnesses;
  for (std::size_t i = 0; i < coin.transfers.size(); ++i) {
    const TransferLink& link = coin.transfers[i];
    if (link.witness != endorser.merchant)
      return Refusal{RefusalReason::kWrongWitness,
                     "transfer link endorsed by a non-witness"};
    auto commitments = current_commitments(prefix);
    BigInt d = transfer_challenge(grp, prefix, link.new_a, link.new_b,
                                  link.datetime);
    nizk::Commitments comm{commitments.a, commitments.b};
    if (!nizk::verify_response(grp, comm, d,
                               nizk::Response{link.r1, link.r2}))
      return Refusal{RefusalReason::kBadProof,
                     "transfer link ownership proof invalid"};
    if (!sig::verify(grp, endorser.witness_key,
                     link.signed_payload(coin_hash,
                                         static_cast<std::uint32_t>(i)),
                     sig::Signature{link.sig_e, link.sig_s}))
      return Refusal{RefusalReason::kBadSignature,
                     "transfer link witness signature invalid"};
    prefix.transfers.push_back(link);
  }
  return std::monostate{};
}

std::vector<Check> coin_checks(const group::SchnorrGroup& grp,
                               const sig::PublicKey& broker_key,
                               const Coin& coin, Timestamp now) {
  using Ok = Outcome<std::monostate>;
  const CoinInfo& info = coin.bare.info;
  std::vector<Check> checks;
  checks.reserve(coin.witnesses.size() + 4);
  checks.emplace_back([&grp, &broker_key, &coin, &info, now]() -> Ok {
    if (now >= info.soft_expiry)
      return Refusal{RefusalReason::kExpired, "coin past soft expiry"};
    if (info.witness_n == 0 || info.witness_k == 0 ||
        info.witness_k > info.witness_n)
      return Refusal{RefusalReason::kInvalidCoin, "bad witness policy"};
    if (!blindsig::verify(grp, broker_key.y, info.bytes(),
                          coin.bare.blind_message(), coin.bare.sig))
      return Refusal{RefusalReason::kInvalidCoin,
                     "broker blind signature invalid"};
    return std::monostate{};
  });
  checks.emplace_back([&coin, &info]() -> Ok {
    if (coin.witnesses.size() != info.witness_n)
      return Refusal{RefusalReason::kInvalidCoin, "witness entry count"};
    return std::monostate{};
  });
  for (const SignedWitnessEntry& entry : coin.witnesses) {
    checks.emplace_back([&grp, &broker_key, &entry, &info]() -> Ok {
      if (entry.version != info.list_version)
        return Refusal{RefusalReason::kInvalidCoin,
                       "witness entry version mismatch"};
      if (!sig::verify(grp, broker_key, entry.signed_payload(),
                       entry.broker_sig))
        return Refusal{RefusalReason::kBadSignature,
                       "witness entry signature invalid"};
      return std::monostate{};
    });
  }
  checks.emplace_back([&coin]() -> Ok {
    if (!check_witness_probe_sequence(coin, coin.bare.coin_hash()))
      return Refusal{RefusalReason::kWrongWitness,
                     "witness assignment does not match h(bare coin)"};
    return std::monostate{};
  });
  checks.emplace_back(
      [&grp, &coin] { return verify_transfer_chain(grp, coin); });
  return checks;
}

Outcome<std::monostate> verify_coin(const group::SchnorrGroup& grp,
                                    const sig::PublicKey& broker_key,
                                    const Coin& coin, Timestamp now) {
  return run_checks(coin_checks(grp, broker_key, coin, now), {});
}

Outcome<std::monostate> verify_bare_coin_with_secret(
    const group::SchnorrGroup& grp, const bn::BigInt& broker_secret,
    const BareCoin& bare) {
  if (!blindsig::verify_with_secret(grp, broker_secret, bare.info.bytes(),
                                    bare.blind_message(), bare.sig))
    return Refusal{RefusalReason::kInvalidCoin,
                   "broker blind signature invalid"};
  return std::monostate{};
}

}  // namespace p2pcash::ecash

#include "ecash/transcript.h"

#include "crypto/sha256.h"
#include "metrics/counters.h"

namespace p2pcash::ecash {

using bn::BigInt;

BigInt payment_challenge(const group::SchnorrGroup& grp, const Coin& coin,
                         const MerchantId& merchant, Timestamp datetime) {
  wire::Writer w;
  w.put_string("p2pcash/payment-challenge/v1");
  coin.encode(w);
  w.put_string(merchant);
  w.put_i64(datetime);
  return grp.hash_to_zq(w.take());  // counts the Hash
}

Hash256 payment_nonce(const std::vector<std::uint8_t>& salt,
                      const MerchantId& merchant) {
  metrics::count_hash();
  crypto::Sha256 h;
  h.update(std::string_view("p2pcash/payment-nonce/v1"));
  std::uint8_t len = static_cast<std::uint8_t>(salt.size());
  h.update(std::span<const std::uint8_t>(&len, 1));
  h.update(salt);
  h.update(merchant);
  return h.finalize();
}

std::vector<std::uint8_t> PaymentTranscript::signed_payload() const {
  wire::Writer w;
  w.put_string("p2pcash/payment-transcript/v1");
  encode(w);
  return w.take();
}

void PaymentTranscript::encode(wire::Writer& w) const {
  coin.encode(w);
  w.put_bigint(resp.r1);
  w.put_bigint(resp.r2);
  w.put_string(merchant);
  w.put_i64(datetime);
  w.put_bytes(salt);
}

PaymentTranscript PaymentTranscript::decode(wire::Reader& r) {
  PaymentTranscript t;
  t.coin = Coin::decode(r);
  t.resp.r1 = r.get_bigint();
  t.resp.r2 = r.get_bigint();
  t.merchant = r.get_string();
  t.datetime = r.get_i64();
  t.salt = r.get_bytes();
  return t;
}

bool verify_transcript_proof(const group::SchnorrGroup& grp,
                             const PaymentTranscript& transcript) {
  BigInt d = payment_challenge(grp, transcript.coin, transcript.merchant,
                               transcript.datetime);
  // A transferred coin answers to its last link's commitments.
  auto current = current_commitments(transcript.coin);
  nizk::Commitments comm{current.a, current.b};
  return nizk::verify_response(grp, comm, d, transcript.resp);
}

CommittedValue CommittedValue::fresh(bn::Rng& rng) {
  CommittedValue v;
  v.kind = Kind::kFresh;
  v.payload.resize(32);
  rng.fill(v.payload);
  return v;
}

CommittedValue CommittedValue::prior_transcript(const PaymentTranscript& t,
                                                bn::Rng& rng) {
  CommittedValue v;
  v.kind = Kind::kPriorTranscript;
  wire::Writer w;
  // Salted so h(v) does not let the requesting merchant confirm guesses
  // about where the coin was spent ("the proof does not reveal the
  // identity of M where the coin was previously spent").
  std::vector<std::uint8_t> pepper(16);
  rng.fill(pepper);
  w.put_bytes(pepper);
  t.encode(w);
  v.payload = w.take();
  return v;
}

CommittedValue CommittedValue::extracted(const nizk::ExtractedSecrets& s) {
  CommittedValue v;
  v.kind = Kind::kExtracted;
  wire::Writer w;
  w.put_bigint(s.of_a.e1);
  w.put_bigint(s.of_a.e2);
  w.put_bigint(s.of_b.e1);
  w.put_bigint(s.of_b.e2);
  v.payload = w.take();
  return v;
}

Hash256 CommittedValue::hash() const {
  metrics::count_hash();
  crypto::Sha256 h;
  h.update(std::string_view("p2pcash/committed-value/v1"));
  std::uint8_t k = static_cast<std::uint8_t>(kind);
  h.update(std::span<const std::uint8_t>(&k, 1));
  h.update(payload);
  return h.finalize();
}

void CommittedValue::encode(wire::Writer& w) const {
  w.put_u8(static_cast<std::uint8_t>(kind));
  w.put_bytes(payload);
}

CommittedValue CommittedValue::decode(wire::Reader& r) {
  CommittedValue v;
  std::uint8_t k = r.get_u8();
  if (k > 2) throw wire::DecodeError("CommittedValue: bad kind");
  v.kind = static_cast<Kind>(k);
  v.payload = r.get_bytes();
  return v;
}

std::vector<std::uint8_t> WitnessCommitment::signed_payload() const {
  wire::Writer w;
  w.put_string("p2pcash/witness-commitment/v1");  // the "commit" tag
  w.put_bytes(coin_hash);
  w.put_bytes(nonce);
  w.put_bytes(value_hash);
  w.put_i64(expires);
  w.put_string(witness);
  return w.take();
}

void WitnessCommitment::encode(wire::Writer& w) const {
  w.put_bytes(coin_hash);
  w.put_bytes(nonce);
  w.put_bytes(value_hash);
  w.put_i64(expires);
  w.put_string(witness);
  w.put_bigint(witness_sig.e);
  w.put_bigint(witness_sig.s);
}

Hash256 read_hash256(wire::Reader& r) {
  auto bytes = r.get_bytes();
  if (bytes.size() != 32) throw wire::DecodeError("expected 32-byte hash");
  Hash256 h;
  std::copy(bytes.begin(), bytes.end(), h.begin());
  return h;
}

WitnessCommitment WitnessCommitment::decode(wire::Reader& r) {
  WitnessCommitment c;
  c.coin_hash = read_hash256(r);
  c.nonce = read_hash256(r);
  c.value_hash = read_hash256(r);
  c.expires = r.get_i64();
  c.witness = r.get_string();
  c.witness_sig.e = r.get_bigint();
  c.witness_sig.s = r.get_bigint();
  return c;
}

void WitnessEndorsement::encode(wire::Writer& w) const {
  w.put_string(witness);
  w.put_bigint(signature.e);
  w.put_bigint(signature.s);
}

WitnessEndorsement WitnessEndorsement::decode(wire::Reader& r) {
  WitnessEndorsement e;
  e.witness = r.get_string();
  e.signature.e = r.get_bigint();
  e.signature.s = r.get_bigint();
  return e;
}

void SignedTranscript::encode(wire::Writer& w) const {
  transcript.encode(w);
  w.put_u8(static_cast<std::uint8_t>(endorsements.size()));
  for (const auto& e : endorsements) e.encode(w);
}

SignedTranscript SignedTranscript::decode(wire::Reader& r) {
  SignedTranscript st;
  st.transcript = PaymentTranscript::decode(r);
  std::uint8_t n = r.get_u8();
  st.endorsements.reserve(n);
  for (std::uint8_t i = 0; i < n; ++i)
    st.endorsements.push_back(WitnessEndorsement::decode(r));
  return st;
}

void DoubleSpendProof::encode(wire::Writer& w) const {
  w.put_bytes(coin_hash);
  w.put_bigint(a);
  w.put_bigint(b);
  w.put_bigint(secrets.of_a.e1);
  w.put_bigint(secrets.of_a.e2);
  w.put_bigint(secrets.of_b.e1);
  w.put_bigint(secrets.of_b.e2);
}

DoubleSpendProof DoubleSpendProof::decode(wire::Reader& r) {
  DoubleSpendProof p;
  p.coin_hash = read_hash256(r);
  p.a = r.get_bigint();
  p.b = r.get_bigint();
  p.secrets.of_a.e1 = r.get_bigint();
  p.secrets.of_a.e2 = r.get_bigint();
  p.secrets.of_b.e1 = r.get_bigint();
  p.secrets.of_b.e2 = r.get_bigint();
  return p;
}

bool DoubleSpendProof::verify(const group::SchnorrGroup& grp) const {
  return nizk::verify_representation(grp, a, secrets.of_a) &&
         nizk::verify_representation(grp, b, secrets.of_b);
}

}  // namespace p2pcash::ecash

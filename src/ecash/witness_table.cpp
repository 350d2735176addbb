#include "ecash/witness_table.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace p2pcash::ecash {

using bn::BigInt;

std::vector<std::uint8_t> SignedWitnessEntry::signed_payload() const {
  wire::Writer w;
  w.put_string("p2pcash/witness-entry/v1");
  w.put_u32(version);
  w.put_i64(published_at);
  w.put_string(merchant);
  w.put_bigint(witness_key.y);
  w.put_bigint(lo);
  w.put_bigint(hi);
  return w.take();
}

void SignedWitnessEntry::encode(wire::Writer& w) const {
  w.put_u32(version);
  w.put_i64(published_at);
  w.put_string(merchant);
  w.put_bigint(witness_key.y);
  w.put_bigint(lo);
  w.put_bigint(hi);
  w.put_bigint(broker_sig.e);
  w.put_bigint(broker_sig.s);
}

SignedWitnessEntry SignedWitnessEntry::decode(wire::Reader& r) {
  SignedWitnessEntry e;
  e.version = r.get_u32();
  e.published_at = r.get_i64();
  e.merchant = r.get_string();
  e.witness_key.y = r.get_bigint();
  e.lo = r.get_bigint();
  e.hi = r.get_bigint();
  e.broker_sig.e = r.get_bigint();
  e.broker_sig.s = r.get_bigint();
  return e;
}

WitnessTable WitnessTable::build(std::uint32_t version, Timestamp published_at,
                                 const std::vector<Participant>& participants,
                                 const sig::KeyPair& broker_key, bn::Rng& rng) {
  if (participants.empty())
    throw std::invalid_argument("WitnessTable::build: no participants");
  std::uint64_t total_weight = 0;
  for (const auto& p : participants) {
    if (p.weight == 0)
      throw std::invalid_argument("WitnessTable::build: zero weight");
    if (p.weight > std::numeric_limits<std::uint64_t>::max() - total_weight)
      throw std::overflow_error("WitnessTable::build: total weight overflow");
    total_weight += p.weight;
  }
  const BigInt space = BigInt{1} << kRangeBits;
  WitnessTable table;
  table.version_ = version;
  table.published_at_ = published_at;
  BigInt cursor{0};
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    const auto& p = participants[i];
    cumulative += p.weight;
    // hi = floor(space * cumulative / total): exact cover, no gaps/overlap.
    BigInt hi = i + 1 == participants.size()
                    ? space
                    : (space * BigInt{cumulative}) / BigInt{total_weight};
    SignedWitnessEntry entry;
    entry.version = version;
    entry.published_at = published_at;
    entry.merchant = p.merchant;
    entry.witness_key = p.key;
    entry.lo = cursor;
    entry.hi = hi;
    entry.broker_sig = broker_key.sign(entry.signed_payload(), rng);
    cursor = entry.hi;
    table.entries_.push_back(std::move(entry));
  }
  return table;
}

std::optional<SignedWitnessEntry> WitnessTable::lookup(
    const BigInt& point) const {
  // Entries are sorted by lo; binary-search the containing range.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), point,
      [](const BigInt& value, const SignedWitnessEntry& e) {
        return value < e.lo;
      });
  if (it == entries_.begin()) return std::nullopt;
  --it;
  if (!it->contains(point)) return std::nullopt;
  return *it;
}

std::optional<SignedWitnessEntry> WitnessTable::find(
    const MerchantId& merchant) const {
  for (const auto& e : entries_) {
    if (e.merchant == merchant) return e;
  }
  return std::nullopt;
}

bool WitnessTable::validate(const group::SchnorrGroup& grp,
                            const sig::PublicKey& broker_key) const {
  if (entries_.empty()) return false;
  const BigInt space = BigInt{1} << kRangeBits;
  BigInt cursor{0};
  for (const auto& e : entries_) {
    if (e.version != version_ || e.published_at != published_at_) return false;
    if (e.lo != cursor || e.hi <= e.lo) return false;
    if (!sig::verify(grp, broker_key, e.signed_payload(), e.broker_sig))
      return false;
    cursor = e.hi;
  }
  return cursor == space;
}

void WitnessTable::encode(wire::Writer& w) const {
  w.put_u32(version_);
  w.put_i64(published_at_);
  w.put_u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& e : entries_) e.encode(w);
}

WitnessTable WitnessTable::decode(wire::Reader& r) {
  WitnessTable t;
  t.version_ = r.get_u32();
  t.published_at_ = r.get_i64();
  std::uint32_t n = r.get_u32();
  if (n > 1u << 20)  // sanity bound against huge-reserve DoS
    throw wire::DecodeError("WitnessTable: too many entries");
  // Every entry takes more than one byte: a forged count cannot make the
  // reservation outgrow the input.
  t.entries_.reserve(std::min<std::size_t>(n, r.remaining()));
  for (std::uint32_t i = 0; i < n; ++i)
    t.entries_.push_back(SignedWitnessEntry::decode(r));
  return t;
}

}  // namespace p2pcash::ecash

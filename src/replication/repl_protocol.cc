#include "replication/repl_protocol.h"

#include <cstdio>
#include <cstring>
#include <utility>

#include "util/varint.h"

namespace kb {
namespace replication {

namespace {

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated repl message: ") +
                                 what);
}

bool CheckTag(Slice* payload, char tag) {
  if (payload->empty() || (*payload)[0] != tag) return false;
  payload->remove_prefix(1);
  return true;
}

void PutLengthPrefixed(std::string* dst, const std::string& s) {
  PutVarint64(dst, s.size());
  dst->append(s);
}

bool GetLengthPrefixed(Slice* input, Slice* out) {
  uint64_t len = 0;
  if (!GetVarint64(input, &len) || input->size() < len) return false;
  *out = Slice(input->data(), static_cast<size_t>(len));
  input->remove_prefix(static_cast<size_t>(len));
  return true;
}

}  // namespace

std::string EncodeHandshake(const Handshake& handshake) {
  std::string out(1, kTagHandshake);
  PutVarint64(&out, handshake.applied_epoch);
  PutVarint32(&out, static_cast<uint32_t>(handshake.positions.size()));
  for (const ShardPosition& position : handshake.positions) {
    PutVarint32(&out, position.shard);
    PutVarint64(&out, position.gen);
    PutVarint64(&out, position.offset);
  }
  return out;
}

Status DecodeHandshake(const Slice& payload, Handshake* handshake) {
  Slice input = payload;
  if (!CheckTag(&input, kTagHandshake)) return Truncated("handshake tag");
  uint32_t count = 0;
  if (!GetVarint64(&input, &handshake->applied_epoch) ||
      !GetVarint32(&input, &count)) {
    return Truncated("handshake header");
  }
  handshake->positions.clear();
  handshake->positions.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ShardPosition position;
    if (!GetVarint32(&input, &position.shard) ||
        !GetVarint64(&input, &position.gen) ||
        !GetVarint64(&input, &position.offset)) {
      return Truncated("handshake position");
    }
    handshake->positions.push_back(position);
  }
  return Status::OK();
}

std::string EncodeManifest(const Manifest& manifest) {
  std::string out(1, kTagManifest);
  PutVarint32(&out, manifest.num_shards);
  PutVarint64(&out, manifest.leader_epoch);
  return out;
}

Status DecodeManifest(const Slice& payload, Manifest* manifest) {
  Slice input = payload;
  if (!CheckTag(&input, kTagManifest)) return Truncated("manifest tag");
  if (!GetVarint32(&input, &manifest->num_shards) ||
      !GetVarint64(&input, &manifest->leader_epoch)) {
    return Truncated("manifest body");
  }
  return Status::OK();
}

std::string EncodeDataRound(const DataRound& round) {
  std::string out(1, kTagDataRound);
  PutVarint64(&out, round.epoch);
  out.push_back(round.complete ? 1 : 0);
  PutVarint32(&out, static_cast<uint32_t>(round.chunks.size()));
  for (const WalChunk& chunk : round.chunks) {
    PutVarint32(&out, chunk.shard);
    PutVarint64(&out, chunk.gen);
    PutVarint64(&out, chunk.offset);
    PutLengthPrefixed(&out, chunk.data);
  }
  return out;
}

Status DecodeDataRound(const Slice& payload, DataRound* round) {
  Slice input = payload;
  if (!CheckTag(&input, kTagDataRound)) return Truncated("data tag");
  if (!GetVarint64(&input, &round->epoch)) return Truncated("data epoch");
  if (input.empty()) return Truncated("data complete flag");
  round->complete = input[0] != 0;
  input.remove_prefix(1);
  uint32_t count = 0;
  if (!GetVarint32(&input, &count)) return Truncated("data chunk count");
  round->chunks.clear();
  round->chunks.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WalChunk chunk;
    Slice data;
    if (!GetVarint32(&input, &chunk.shard) ||
        !GetVarint64(&input, &chunk.gen) ||
        !GetVarint64(&input, &chunk.offset) ||
        !GetLengthPrefixed(&input, &data)) {
      return Truncated("data chunk");
    }
    chunk.data.assign(data.data(), data.size());
    round->chunks.push_back(std::move(chunk));
  }
  return Status::OK();
}

std::string EncodeAck(const Ack& ack) {
  std::string out(1, kTagAck);
  PutVarint64(&out, ack.applied_epoch);
  return out;
}

Status DecodeAck(const Slice& payload, Ack* ack) {
  Slice input = payload;
  if (!CheckTag(&input, kTagAck)) return Truncated("ack tag");
  if (!GetVarint64(&input, &ack->applied_epoch)) return Truncated("ack body");
  return Status::OK();
}

std::string FactKey(uint64_t seq) {
  char buf[32];
  ::snprintf(buf, sizeof(buf), "%s%020llu", kFactKeyPrefix,
             static_cast<unsigned long long>(seq));
  return std::string(buf);
}

bool ParseFactKey(const Slice& key, uint64_t* seq) {
  const size_t prefix = sizeof(kFactKeyPrefix) - 1;
  if (key.size() != prefix + 20 ||
      ::memcmp(key.data(), kFactKeyPrefix, prefix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix; i < key.size(); ++i) {
    char c = key[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

std::string EncodeFactRecord(const server::WireFact& fact) {
  std::string out;
  PutLengthPrefixed(&out, fact.s);
  PutLengthPrefixed(&out, fact.p);
  out.push_back(fact.has_year ? 1 : 0);
  if (fact.has_year) {
    PutFixed32(&out, static_cast<uint32_t>(fact.year));
  } else {
    PutLengthPrefixed(&out, fact.o);
  }
  uint64_t confidence_bits = 0;
  static_assert(sizeof(confidence_bits) == sizeof(fact.confidence));
  ::memcpy(&confidence_bits, &fact.confidence, sizeof(confidence_bits));
  PutFixed64(&out, confidence_bits);
  PutVarint32(&out, fact.support);
  return out;
}

namespace {

/// Decodes one EncodeFactRecord encoding from the front of `input`.
Status GetFactRecord(Slice* input, server::WireFact* fact) {
  Slice s, p;
  if (!GetLengthPrefixed(input, &s) || !GetLengthPrefixed(input, &p)) {
    return Truncated("fact s/p");
  }
  fact->s.assign(s.data(), s.size());
  fact->p.assign(p.data(), p.size());
  if (input->empty()) return Truncated("fact year flag");
  fact->has_year = (*input)[0] != 0;
  input->remove_prefix(1);
  if (fact->has_year) {
    uint32_t year = 0;
    if (!GetFixed32(input, &year)) return Truncated("fact year");
    fact->year = static_cast<int32_t>(year);
    fact->o.clear();
  } else {
    Slice o;
    if (!GetLengthPrefixed(input, &o)) return Truncated("fact o");
    fact->o.assign(o.data(), o.size());
    fact->year = 0;
  }
  uint64_t confidence_bits = 0;
  if (!GetFixed64(input, &confidence_bits) ||
      !GetVarint32(input, &fact->support)) {
    return Truncated("fact meta");
  }
  ::memcpy(&fact->confidence, &confidence_bits, sizeof(fact->confidence));
  return Status::OK();
}

}  // namespace

Status DecodeFactBatch(const Slice& value,
                       std::vector<server::WireFact>* facts) {
  facts->clear();
  if (value.empty()) return Truncated("empty fact batch");
  Slice input = value;
  while (!input.empty()) {
    server::WireFact fact;
    Status s = GetFactRecord(&input, &fact);
    if (!s.ok()) {
      facts->clear();
      return s;
    }
    facts->push_back(std::move(fact));
  }
  return Status::OK();
}

}  // namespace replication
}  // namespace kb

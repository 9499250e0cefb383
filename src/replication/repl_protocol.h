#ifndef KBFORGE_REPLICATION_REPL_PROTOCOL_H_
#define KBFORGE_REPLICATION_REPL_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/wire_fact.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/statusor.h"

namespace kb {
namespace replication {

/// Wire messages for WAL shipping. Every message rides inside one
/// length-prefixed frame (server/protocol.h — the framing does not
/// care that the payload is binary, not JSON) and starts with a
/// one-byte tag. The session script is:
///
///   follower -> leader   Handshake   (positions it already has)
///   leader  -> follower  Manifest    (shard count sanity check)
///   leader  -> follower  DataRound*  (epoch, raw WAL byte ranges)
///   follower -> leader   Ack*        (applied epoch, for lag metrics)
///
/// A DataRound with complete=true means: "a follower that has applied
/// every byte shipped so far holds every write up to `epoch`" — the
/// epoch was sampled *before* the leader read the WAL tails, and the
/// pre-insert hook appends to the log before the KB asserts, so the
/// log at sampling time already contained every write the epoch
/// counts. Followers advance their applied epoch only on complete
/// rounds.

inline constexpr char kTagHandshake = 'H';
inline constexpr char kTagManifest = 'M';
inline constexpr char kTagDataRound = 'D';
inline constexpr char kTagAck = 'A';

/// Where a follower stands in one shard's numbered WAL sequence:
/// everything before generation `gen` is fully applied, plus `offset`
/// bytes (a record boundary) of `gen` itself.
struct ShardPosition {
  uint32_t shard = 0;
  uint64_t gen = 0;
  uint64_t offset = 0;
};

struct Handshake {
  uint64_t applied_epoch = 0;
  std::vector<ShardPosition> positions;
};

struct Manifest {
  uint32_t num_shards = 0;
  uint64_t leader_epoch = 0;
};

/// One raw byte range of one shard's WAL generation. `offset` is where
/// the range starts inside the generation file; ranges for a given
/// (shard, gen) are shipped contiguously, but a range may end
/// mid-record — the receiver buffers the torn tail until the next
/// round extends it.
struct WalChunk {
  uint32_t shard = 0;
  uint64_t gen = 0;
  uint64_t offset = 0;
  std::string data;
};

struct DataRound {
  uint64_t epoch = 0;
  bool complete = false;  ///< follower now holds every write <= epoch
  std::vector<WalChunk> chunks;
};

struct Ack {
  uint64_t applied_epoch = 0;
};

std::string EncodeHandshake(const Handshake& handshake);
std::string EncodeManifest(const Manifest& manifest);
std::string EncodeDataRound(const DataRound& round);
std::string EncodeAck(const Ack& ack);

/// Decoders check the tag byte and every length; a short or mangled
/// payload is InvalidArgument (the session is torn down, the follower
/// reconnects and re-handshakes).
Status DecodeHandshake(const Slice& payload, Handshake* handshake);
Status DecodeManifest(const Slice& payload, Manifest* manifest);
Status DecodeDataRound(const Slice& payload, DataRound* round);
Status DecodeAck(const Slice& payload, Ack* ack);

/// Replicated write batches live in the log store under "f:<seq>",
/// where <seq> is the sequence number of the batch's first fact, as a
/// fixed-width decimal so lexicographic key order is append order and
/// a follower rebuild is one range scan.
inline constexpr char kFactKeyPrefix[] = "f:";
std::string FactKey(uint64_t seq);
/// Inverse of FactKey; false when `key` is not a fact key.
bool ParseFactKey(const Slice& key, uint64_t* seq);

/// Compact binary codec for the fact payload itself. Encodings are
/// self-delimiting, so a log record's value is one write batch: the
/// EncodeFactRecord bytes of its facts, concatenated, under the
/// FactKey of the batch's first sequence number. A record from a log
/// written one fact per record is simply a batch of one.
std::string EncodeFactRecord(const server::WireFact& fact);
/// Decodes a whole record value into its facts. An empty value, a
/// truncated fact or trailing bytes that are not a whole fact are
/// InvalidArgument, and leave `facts` empty.
Status DecodeFactBatch(const Slice& value,
                       std::vector<server::WireFact>* facts);

}  // namespace replication
}  // namespace kb

#endif  // KBFORGE_REPLICATION_REPL_PROTOCOL_H_

#ifndef KBFORGE_SERVER_KB_CLIENT_H_
#define KBFORGE_SERVER_KB_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/json.h"
#include "server/wire_fact.h"
#include "util/retry.h"
#include "util/statusor.h"

namespace kb {
namespace server {

/// One decoded query result.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;  ///< abbreviated terms
  bool cached = false;     ///< served from the server's result cache
  bool truncated = false;  ///< row cap hit (prefix, not the full result)
};

/// Client behavior knobs. Defaults preserve the bare PR-5 client: no
/// socket timeouts, overload sheds surfaced to the caller immediately.
struct ClientOptions {
  /// Connect/send/receive timeout for every socket operation;
  /// 0 blocks forever. Routers health-checking replicas set this so a
  /// hung backend cannot wedge them.
  double timeout_ms = 0;
  /// Opt-in: instead of surfacing Unavailable (an admission-control
  /// shed or a mid-failover "not_leader"), reconnect and retry with a
  /// bounded, jittered util::RetryPolicy backoff that honors the
  /// server's retry_after_ms hint (the sleep is at least the hint).
  bool retry_unavailable = false;
  /// Attempt/backoff bounds for retry_unavailable.
  RetryOptions retry;
  /// Attach last_write_epoch() to queries as min_epoch, so a
  /// replicated tier never serves this client's reads from a replica
  /// that has not yet applied this client's own writes.
  bool read_your_writes = false;
  /// Opt-in keep-alive: when a call fails with ConnectionClosed (the
  /// server idle-timed the connection out, or closed it cleanly
  /// between requests), reconnect to the last port and retry the call
  /// once instead of surfacing the error. Long-held load-generator
  /// connections use this to survive server-side idle reaping.
  bool reconnect_on_close = false;
};

/// Blocking client for KbServer's length-prefixed JSON protocol. One
/// connection, one outstanding request at a time; not thread-safe —
/// give each load-generator thread its own client.
///
/// Server-side failures come back as the natural Status codes:
/// admission-control sheds map to Unavailable (retry_after_ms() holds
/// the server's hint; with retry_unavailable they are absorbed
/// instead), missed deadlines to DeadlineExceeded, unknown entities to
/// NotFound, bad requests to InvalidArgument, writes sent to a
/// read-only follower to Unavailable ("not_leader"). A connection the
/// server closed cleanly (idle timeout, drain) maps to
/// ConnectionClosed — distinct from IOError's torn reads — so callers
/// (or reconnect_on_close) can treat it as "reconnect and carry on".
class KbClient {
 public:
  KbClient() = default;
  explicit KbClient(const ClientOptions& options);
  ~KbClient();

  KbClient(const KbClient&) = delete;
  KbClient& operator=(const KbClient&) = delete;
  KbClient(KbClient&& other) noexcept;
  KbClient& operator=(KbClient&& other) noexcept;

  /// Connects to 127.0.0.1:port. On Unavailable (the server shed the
  /// connection at admission), retry_after_ms() carries the hint.
  Status Connect(int port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// One round-trip: sends `request`, decodes the response envelope.
  /// An {"status":"error"...} response is mapped to a Status; the raw
  /// response is still available via last_response(). With
  /// retry_unavailable set, Unavailable responses are retried (after
  /// reconnecting — the server drops the connection when it sheds)
  /// until the retry budget runs out.
  StatusOr<Json> Call(const Json& request);

  StatusOr<QueryResult> Query(const std::string& sparql,
                              int64_t deadline_ms = -1, int64_t max_rows = -1,
                              bool no_cache = false);
  StatusOr<Json> EntityCard(const std::string& entity, size_t max_facts = 0);
  /// Runs a server-side analytics job ("pagerank" or "class_stats").
  /// top_k 0 keeps the server default; insert=true asserts the results
  /// back into the KB as facts. The returned Json is the job summary
  /// (nodes/edges/iterations or entities/classes, plus "top").
  StatusOr<Json> Analytics(const std::string& job, size_t top_k = 0,
                           bool insert = false, bool no_cache = false);
  /// Returns the number of freshly inserted facts.
  StatusOr<int64_t> InsertFacts(const std::vector<WireFact>& facts);
  StatusOr<Json> Health();
  StatusOr<std::string> MetricsText();

  /// Server's backoff hint from the last Unavailable, in ms.
  int retry_after_ms() const { return retry_after_ms_; }
  const Json& last_response() const { return last_response_; }

  /// Leader epoch acknowledged by the most recent successful
  /// InsertFacts (0 before any write). With read_your_writes this is
  /// attached to queries as min_epoch.
  uint64_t last_write_epoch() const { return last_write_epoch_; }

 private:
  /// Call with the retry_unavailable policy applied (no
  /// reconnect-on-close handling).
  StatusOr<Json> CallWithRetry(const Json& request);
  /// One unretried round-trip (the body of Call).
  StatusOr<Json> CallOnce(const Json& request);

  ClientOptions options_;
  /// Lazily built when retry_unavailable is set (RetryPolicy owns a
  /// mutex, so a pointer keeps the client movable).
  std::unique_ptr<RetryPolicy> retry_policy_;
  int fd_ = -1;
  int last_port_ = -1;  ///< reconnect target for retries
  int retry_after_ms_ = 0;
  uint64_t last_write_epoch_ = 0;
  Json last_response_;
};

}  // namespace server
}  // namespace kb

#endif  // KBFORGE_SERVER_KB_CLIENT_H_

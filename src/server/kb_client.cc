#include "server/kb_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cmath>
#include <utility>

#include "server/protocol.h"

namespace kb {
namespace server {

KbClient::KbClient(const ClientOptions& options) : options_(options) {
  if (options_.retry_unavailable) {
    retry_policy_ = std::make_unique<RetryPolicy>(options_.retry);
  }
}

KbClient::~KbClient() { Close(); }

KbClient::KbClient(KbClient&& other) noexcept
    : options_(other.options_),
      retry_policy_(std::move(other.retry_policy_)),
      fd_(other.fd_),
      last_port_(other.last_port_),
      retry_after_ms_(other.retry_after_ms_),
      last_write_epoch_(other.last_write_epoch_),
      last_response_(std::move(other.last_response_)) {
  other.fd_ = -1;
}

KbClient& KbClient::operator=(KbClient&& other) noexcept {
  if (this == &other) return *this;
  Close();
  options_ = other.options_;
  retry_policy_ = std::move(other.retry_policy_);
  fd_ = other.fd_;
  last_port_ = other.last_port_;
  retry_after_ms_ = other.retry_after_ms_;
  last_write_epoch_ = other.last_write_epoch_;
  last_response_ = std::move(other.last_response_);
  other.fd_ = -1;
  return *this;
}

Status KbClient::Connect(int port) {
  Close();
  last_port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IOError("socket: " + std::string(::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (options_.timeout_ms > 0) {
    // Bounded connect: non-blocking connect + poll, then back to
    // blocking IO under SO_*TIMEO so no later call can hang either.
    int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc < 0 && errno == EINPROGRESS) {
      pollfd pfd{fd_, POLLOUT, 0};
      rc = ::poll(&pfd, 1, static_cast<int>(std::ceil(options_.timeout_ms)));
      if (rc <= 0) {
        Close();
        return Status::IOError("connect timed out");
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        Close();
        return Status::IOError("connect: " + std::string(::strerror(err)));
      }
    } else if (rc < 0) {
      Status s = Status::IOError("connect: " + std::string(::strerror(errno)));
      Close();
      return s;
    }
    ::fcntl(fd_, F_SETFL, flags);
    long usec = static_cast<long>(options_.timeout_ms * 1000);
    timeval timeout{usec / 1000000, usec % 1000000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  } else if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) < 0) {
    Status s = Status::IOError("connect: " + std::string(::strerror(errno)));
    Close();
    return s;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

void KbClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<Json> KbClient::Call(const Json& request) {
  StatusOr<Json> response = CallWithRetry(request);
  if (options_.reconnect_on_close &&
      response.status().IsConnectionClosed() && last_port_ >= 0) {
    // Keep-alive path: the server closed this connection cleanly (idle
    // timeout, drain) — not a failure of the request itself. Reconnect
    // and retry once; a second clean close is surfaced.
    Status connect_status = Connect(last_port_);
    if (!connect_status.ok()) return connect_status;
    response = CallWithRetry(request);
  }
  return response;
}

StatusOr<Json> KbClient::CallWithRetry(const Json& request) {
  if (retry_policy_ == nullptr) return CallOnce(request);
  // Placeholder until the first attempt runs; StatusOr asserts on OK
  // error-statuses, and RetryPolicy::Run always invokes the attempt at
  // least once before returning.
  StatusOr<Json> response = Status::Internal("retry attempt never ran");
  Status status = retry_policy_->Run(
      [&] {
        if (fd_ < 0 && last_port_ >= 0) {
          // The server drops the connection when it sheds; reconnect
          // before the next attempt.
          Status connect_status = Connect(last_port_);
          if (!connect_status.ok()) return connect_status;
        }
        response = CallOnce(request);
        return response.status();
      },
      [](const Status& s) {
        return s.IsUnavailable() || s.IsIOError() || s.IsConnectionClosed();
      },
      [this] { return static_cast<double>(retry_after_ms_); });
  if (!status.ok()) return status;
  return response;
}

StatusOr<Json> KbClient::CallOnce(const Json& request) {
  if (fd_ < 0) return Status::IOError("client not connected");
  retry_after_ms_ = 0;  // hint applies only to the retry right after it
  Status write_status = WriteFrame(fd_, request.Dump());
  // Even when the write fails, read before giving up: a server that
  // shed this connection at admission wrote its overload frame and
  // closed before we ever sent — that frame is sitting in our receive
  // buffer and carries the retry hint.
  std::string payload;
  Status status = ReadFrame(fd_, &payload);
  if (!status.ok()) {
    Close();
    if (status.IsAborted()) {
      // Clean EOF: the server hung up between requests (idle timeout,
      // drain) — even a failed write (EPIPE against the closed socket)
      // means "closed", not "torn".
      return Status::ConnectionClosed("server closed the connection");
    }
    if (!write_status.ok()) return write_status;
    return status;
  }
  auto response = Json::Parse(payload);
  if (!response.ok()) return response.status();
  last_response_ = *response;

  const std::string result = response->GetString("status");
  if (result == "ok") return std::move(*response);
  const std::string error = response->GetString("error");
  const std::string message = response->GetString("message", error);
  if (result == "overloaded" || error == "overloaded") {
    // The server sheds the whole connection on overload, so this fd is
    // dead; reconnect after the hinted backoff.
    retry_after_ms_ =
        static_cast<int>(response->GetNumber("retry_after_ms", 0));
    Close();
    return Status::Unavailable(message.empty() ? "overloaded" : message);
  }
  if (error == "not_leader" || error == "stale_replica") {
    // Replicated-tier routing errors: this endpoint cannot serve the
    // request right now, but a peer (or this one, shortly) can.
    return Status::Unavailable(error + ": " + message);
  }
  if (error == "deadline_exceeded") return Status::DeadlineExceeded(message);
  if (error == "not_found") return Status::NotFound(message);
  if (error == "bad_request" || error == "bad_query" ||
      error == "bad_frame" || error == "unknown_endpoint") {
    return Status::InvalidArgument(error + ": " + message);
  }
  return Status::Internal(error + ": " + message);
}

StatusOr<QueryResult> KbClient::Query(const std::string& sparql,
                                      int64_t deadline_ms, int64_t max_rows,
                                      bool no_cache) {
  Json request = Json::Object();
  request.Set("op", Json::Str("query"));
  request.Set("sparql", Json::Str(sparql));
  if (deadline_ms >= 0) {
    request.Set("deadline_ms", Json::Number(static_cast<double>(deadline_ms)));
  }
  if (max_rows >= 0) {
    request.Set("max_rows", Json::Number(static_cast<double>(max_rows)));
  }
  if (no_cache) request.Set("no_cache", Json::Bool(true));
  if (options_.read_your_writes && last_write_epoch_ > 0) {
    request.Set("min_epoch",
                Json::Number(static_cast<double>(last_write_epoch_)));
  }
  auto response = Call(request);
  if (!response.ok()) return response.status();
  QueryResult result;
  result.cached = response->GetBool("cached");
  result.truncated = response->GetBool("truncated");
  for (const Json& column : (*response)["columns"].items()) {
    result.columns.push_back(column.as_string());
  }
  for (const Json& row : (*response)["rows"].items()) {
    std::vector<std::string> out;
    out.reserve(row.items().size());
    for (const Json& cell : row.items()) {
      // Aggregate count columns come back as JSON numbers (always
      // integral); everything else is a rendered term string.
      if (cell.is_number()) {
        out.push_back(
            std::to_string(static_cast<long long>(cell.as_number())));
      } else {
        out.push_back(cell.as_string());
      }
    }
    result.rows.push_back(std::move(out));
  }
  return result;
}

StatusOr<Json> KbClient::Analytics(const std::string& job, size_t top_k,
                                   bool insert, bool no_cache) {
  Json request = Json::Object();
  request.Set("op", Json::Str("analytics"));
  request.Set("job", Json::Str(job));
  if (top_k > 0) {
    request.Set("top_k", Json::Number(static_cast<double>(top_k)));
  }
  if (insert) request.Set("insert", Json::Bool(true));
  if (no_cache) request.Set("no_cache", Json::Bool(true));
  return Call(request);
}

StatusOr<Json> KbClient::EntityCard(const std::string& entity,
                                    size_t max_facts) {
  Json request = Json::Object();
  request.Set("op", Json::Str("entity_card"));
  request.Set("entity", Json::Str(entity));
  if (max_facts > 0) {
    request.Set("max_facts", Json::Number(static_cast<double>(max_facts)));
  }
  return Call(request);
}

StatusOr<int64_t> KbClient::InsertFacts(const std::vector<WireFact>& facts) {
  Json request = Json::Object();
  request.Set("op", Json::Str("insert_facts"));
  Json array = Json::Array();
  for (const WireFact& fact : facts) {
    Json f = Json::Object();
    f.Set("s", Json::Str(fact.s));
    f.Set("p", Json::Str(fact.p));
    if (fact.has_year) {
      f.Set("year", Json::Number(fact.year));
    } else {
      f.Set("o", Json::Str(fact.o));
    }
    f.Set("confidence", Json::Number(fact.confidence));
    f.Set("support", Json::Number(fact.support));
    array.Append(std::move(f));
  }
  request.Set("facts", std::move(array));
  auto response = Call(request);
  if (!response.ok()) return response.status();
  double epoch = response->GetNumber("epoch", 0);
  if (epoch > 0) last_write_epoch_ = static_cast<uint64_t>(epoch);
  return static_cast<int64_t>(response->GetNumber("inserted"));
}

StatusOr<Json> KbClient::Health() {
  Json request = Json::Object();
  request.Set("op", Json::Str("health"));
  return Call(request);
}

StatusOr<std::string> KbClient::MetricsText() {
  Json request = Json::Object();
  request.Set("op", Json::Str("metrics"));
  auto response = Call(request);
  if (!response.ok()) return response.status();
  return response->GetString("text");
}

}  // namespace server
}  // namespace kb

#ifndef KBFORGE_SERVER_PROTOCOL_H_
#define KBFORGE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace kb {
namespace server {

/// Wire framing for the serving protocol: every message is a 4-byte
/// big-endian payload length followed by that many bytes of UTF-8 JSON.
/// The length prefix is bounded (kMaxFrameBytes) so a malicious or
/// corrupt prefix cannot make the receiver allocate gigabytes — an
/// oversized prefix fails the read with InvalidArgument and the
/// connection is dropped.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;  // 16 MiB

/// Reads one frame into `payload`.
///   OK              frame read completely,
///   Aborted         clean EOF before any byte (peer hung up idle),
///   InvalidArgument length prefix exceeds kMaxFrameBytes,
///   IOError         torn frame (EOF mid-message) or socket error.
Status ReadFrame(int fd, std::string* payload);

/// Writes one frame. IOError on any socket failure (incl. payloads
/// over kMaxFrameBytes, which the peer would refuse anyway).
Status WriteFrame(int fd, const std::string& payload);

/// The error envelope every front door answers with:
/// {"status":"error","error":<error>,"message":<message>}.
std::string ErrorJson(const std::string& error, const std::string& message);

/// The shed envelope: {"status":"overloaded","error":"overloaded",
/// "retry_after_ms":R}. KbClient maps it to Unavailable + the hint.
std::string OverloadedJson(int retry_after_ms);

}  // namespace server
}  // namespace kb

#endif  // KBFORGE_SERVER_PROTOCOL_H_

// Minimal HTTP/1.1 support for the admin plane: an incremental request
// parser (headers + Content-Length bodies — no chunked encoding, no
// pipelining guarantees beyond one request at a time), a response
// serializer, and a tiny blocking client for tests and the scrape-storm
// bench.  This is a monitoring endpoint, not a web server: every response
// closes the connection, which keeps the event loop state machine trivial
// and is exactly how Prometheus scrapes behave with `Connection: close`.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace arlo::obs {

struct HttpRequest {
  std::string method;  ///< "GET", "POST", ...
  std::string path;    ///< path only; the query string (if any) is stripped
  std::string query;   ///< raw query string without the '?'
  /// Header names lower-cased at parse time.
  std::map<std::string, std::string> headers;
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Standard reason phrase for the handful of statuses the admin plane uses.
const char* HttpReason(int status);

/// Serializes a response with Content-Length and `Connection: close`.
std::string SerializeResponse(const HttpResponse& response);

/// Incremental parser: feed raw bytes, poll for a complete request.
class HttpRequestParser {
 public:
  enum class State { kHeaders, kBody, kComplete, kError };

  /// Appends received bytes and advances the state machine.
  void Feed(const char* data, std::size_t n);

  State GetState() const { return state_; }
  bool Complete() const { return state_ == State::kComplete; }
  bool Error() const { return state_ == State::kError; }
  const HttpRequest& Request() const { return request_; }

  /// Caps accepted header block + body sizes (a monitoring endpoint never
  /// needs more; oversized input flips to kError).
  static constexpr std::size_t kMaxHeaderBytes = 16 * 1024;
  static constexpr std::size_t kMaxBodyBytes = 1024 * 1024;

 private:
  void ParseHeaderBlock(std::size_t header_end);

  State state_ = State::kHeaders;
  std::string buffer_;
  std::size_t content_length_ = 0;
  HttpRequest request_;
};

/// Result of a blocking HttpFetch.
struct HttpResult {
  bool ok = false;  ///< transport + parse succeeded (any status code)
  int status = 0;
  std::string content_type;
  std::string body;
};

/// The bound on one whole HttpFetch: connect, send and read to EOF.
inline constexpr std::chrono::milliseconds kHttpFetchDeadline{1000};

/// The bound on one HttpFetch response, status line and headers included.
/// The largest response any test or bench fetches is obs_overhead's
/// POST /debug/dump (122 KB at its default duration); a full default
/// 4096-event flight recorder dumps ~0.5 MiB.  4 MiB clears both, while an
/// admin port that streams bytes can no longer grow the caller by whatever
/// loopback carries in kHttpFetchDeadline.
inline constexpr std::size_t kHttpFetchMaxResponseBytes = 4 * 1024 * 1024;

/// Parses one whole HTTP/1.1 response as HttpFetch reads it to EOF: status
/// line, header block, and the body as the rest of `response`.  ok=false on
/// a malformed status line, a response over kHttpFetchMaxResponseBytes, or
/// a body shorter than its Content-Length.
HttpResult ParseHttpResponse(const std::string& response);

/// Blocking one-shot client against 127.0.0.1:`port`: sends the request,
/// reads to EOF (the server closes after responding) and parses the
/// response with ParseHttpResponse.  Fails (ok=false) past
/// kHttpFetchDeadline, so an admin plane that accepts and never answers
/// cannot stall the caller, and as soon as the response passes
/// kHttpFetchMaxResponseBytes.
HttpResult HttpFetch(std::uint16_t port, const std::string& method,
                     const std::string& path, const std::string& body = "");

}  // namespace arlo::obs

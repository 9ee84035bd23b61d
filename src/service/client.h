// ServiceClient: one blocking NDJSON request/response connection to
// mergepurge_serve. Shared by the load generator, the mergepurge_top
// console, and any script that wants a final stats round-trip, so the
// framing logic (send the full line, buffer socket reads until '\n')
// lives in exactly one place.
//
// Not thread-safe — use one client per thread. A transport error leaves
// the connection unusable; Close() and Connect() again to retry.

#ifndef MERGEPURGE_SERVICE_CLIENT_H_
#define MERGEPURGE_SERVICE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "util/random.h"
#include "util/status.h"

namespace mergepurge {

class ServiceClient {
 public:
  ServiceClient() = default;
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  // Idempotent; drops any buffered partial response.
  void Close();

  Status Connect(const std::string& host, uint16_t port);

  // Sends one request line (including its trailing '\n') and reads one
  // response line, parsed as JSON.
  Result<JsonValue> Call(std::string_view request_line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Retry schedule for transient failures (connection refused while a
// server restarts, ECONNRESET, a peer close mid-response). Capped
// exponential backoff: the delay before attempt k (k >= 2) is
// min(base * mult^(k-2), cap) plus jitter drawn uniformly from
// [0, base).
struct RetryOptions {
  int max_attempts = 12;
  double backoff_base_ms = 5.0;
  double backoff_multiplier = 2.0;
  double backoff_cap_ms = 500.0;
};

// True when the response is a typed retryable refusal: the server is up
// but still replaying its WAL ({"ok":false,"error":{"code":"recovering"}}).
// A restarted server answers this way until replay finishes, so callers
// back off and resend like they do for transport errors.
bool IsRecoveringError(const JsonValue& response);

// Sends one request, reconnecting (lazily, so the first call may do the
// initial connect too) and resending on transport errors, and backing
// off on "recovering" refusals. Requests must be idempotent from the
// caller's point of view (matches are read-only; a resent upsert at
// worst re-admits records that merge with their first copy), so
// at-least-once delivery is safe. Bumps the service.client.retries
// counter and invokes `on_retry` (when set) once per retry attempt;
// returns the last error once the schedule is exhausted. Shared by the
// load generator and the shard coordinator's connection pool.
Result<JsonValue> CallWithRetry(ServiceClient* client,
                                const std::string& host, uint16_t port,
                                std::string_view request_line, Rng* rng,
                                const RetryOptions& options = {},
                                const std::function<void()>& on_retry = {});

}  // namespace mergepurge

#endif  // MERGEPURGE_SERVICE_CLIENT_H_

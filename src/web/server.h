// WebServer — the Benchmark Target abstraction.
//
// Servers are native C++ (the BT is never mutated) but obtain every OS
// resource through os::OsApi, i.e. through VISA code that may carry an
// injected fault. The base class contains the failure model:
//
//   - an API call that hangs (cycle budget) leaves the serving process
//     stuck -> ServerState::kHung (the paper's KNS kill reason),
//   - an unhandled crash escaping request handling kills the process ->
//     kCrashed (MIS if the server cannot self-restart),
//   - a recovery loop that burns CPU without serving -> kSpinning (KCP).
//
// Four servers mirror the paper's case study: apex (Apache-like, robust,
// self-restarting), abyssal (Abyss-like, trusting, no self-restart), and
// sambar/savant which participate only in the profiling phase.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "os/api.h"
#include "web/http.h"

namespace gf::web {

enum class ServerState : std::uint8_t {
  kStopped,
  kRunning,
  kCrashed,   ///< process died
  kHung,      ///< stuck, not responding
  kSpinning,  ///< hogging CPU without providing service
};

const char* server_state_name(ServerState s) noexcept;

/// Cumulative per-server counters (reset on start()).
struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;       ///< non-200 responses
  std::uint64_t crashes = 0;      ///< deaths observed
  std::uint64_t self_restarts = 0;
};

/// Largest document a server serves (the largest fileset file, class 3).
/// A response body longer than this fails SpecClient::validate whatever its
/// bytes are, which is what lets append_body() stop copying past it.
inline constexpr std::size_t kMaxBody = 64 * 1024;

/// An immutable byte buffer shared by reference (cached response bodies):
/// clones, restores and controller resets copy the pointer, not the bytes.
using SharedBytes = std::shared_ptr<const std::vector<std::uint8_t>>;

class WebServer {
 public:
  explicit WebServer(os::OsApi& api) : api_(&api) {}
  virtual ~WebServer() = default;

  virtual const char* name() const = 0;
  /// Apache-like built-in self-restart capability (paper §3.4).
  virtual bool has_self_restart() const { return false; }
  /// Architectural CPU cost per request (ms) *outside* the OS API — the
  /// BT's own processing model (worker pool vs thread-per-connection). Used
  /// by the client's service-time model on top of the measured VM cycles.
  virtual double arch_overhead_ms() const { return 3.0; }

  /// Boots the server: allocates guest-side resources. Returns false when
  /// the OS is too broken to start (allocation failures etc.).
  bool start();
  void stop();

  /// Serves one request. Never throws; failures are reflected in the
  /// response status and in state().
  Response handle(const Request& req);

  /// Attempts a self-restart after a death (only meaningful when
  /// has_self_restart()). Returns true when serving again.
  bool try_self_restart();

  ServerState state() const noexcept { return state_; }
  const ServerStats& stats() const noexcept { return stats_; }

  /// VM cycles consumed by the last handle() call (performance model input).
  std::uint64_t last_request_cycles() const noexcept { return last_cycles_; }

  /// Most body bytes append_body() keeps: kMaxBody + 1 unless raised. An
  /// unlimited cap is the unbounded reference the body-cap tests compare
  /// the servers against.
  void set_body_cap(std::size_t cap) noexcept { body_cap_ = cap; }

  /// Warm-boot process images (the analogue of ZOFI cloning the warmed
  /// process instead of re-launching it). A server's whole C++-side process
  /// state is its member set, so an image is a copy of the server object.
  /// Guest-side resources it refers to (handles, heap blocks) must be
  /// restored separately via the kernel snapshot taken at the same point.
  ///
  /// clone(): a copy of this server bound to `api`.
  /// image(): a copy bound to no OS — what a snapshot holds; it is only
  /// read, by clone() and restore_process().
  /// restore_process(): makes this server a copy of `image`, keeping this
  /// server's OS binding; throws std::invalid_argument when `image` is
  /// another server kind.
  std::unique_ptr<WebServer> clone(os::OsApi& api) const;
  std::unique_ptr<const WebServer> image() const;
  void restore_process(const WebServer& image);

 protected:
  WebServer(const WebServer&) = default;
  WebServer& operator=(const WebServer&) = default;

  /// Thrown by request handling when an API call hangs.
  struct ApiHang {};
  /// Thrown when the process dies (unhandled fault consequence).
  struct ServerDeath {};
  /// Thrown when recovery degenerates into a busy loop.
  struct ServerSpin {};

  virtual bool do_start() = 0;
  virtual void do_stop() {}
  virtual Response do_handle(const Request& req) = 0;
  /// The compiler-generated copies behind clone() / restore_process(),
  /// provided by CopyableServer.
  virtual std::unique_ptr<WebServer> copy() const = 0;
  virtual void assign(const WebServer& image) = 0;

  os::OsApi& api() noexcept { return *api_; }

  /// Propagates a hung API call as ApiHang; returns the result otherwise.
  const os::ApiResult& hang_check(const os::ApiResult& r) {
    if (r.hung()) throw ApiHang{};
    return r;
  }

  /// Appends the `n` bytes a read left in the guest buffer at `buf` to
  /// `body`. False when any byte of the whole range is unreadable under
  /// OsApi::read_bytes' rule (the process read through a bad pointer). The
  /// body keeps at most the cap's bytes: a faulty OS can return a guest
  /// address as a byte count, and the longer body fails the client's check
  /// all the same, so no host buffer grows with a guest-supplied count.
  bool append_body(std::vector<std::uint8_t>& body, std::uint64_t buf,
                   std::uint64_t n);

  /// For servers without structured exception handling: any crash in an API
  /// call escapes and kills the process.
  const os::ApiResult& die_on_crash(const os::ApiResult& r) {
    hang_check(r);
    if (r.crashed()) throw ServerDeath{};
    return r;
  }

 private:
  os::OsApi* api_;  ///< null only in an image()
  ServerState state_ = ServerState::kStopped;
  ServerStats stats_;
  std::uint64_t last_cycles_ = 0;
  std::size_t body_cap_ = kMaxBody + 1;
};

/// Gives server `Derived` its copy() / assign(): the compiler-generated
/// copies of Derived, so every member is part of the process image.
template <typename Derived>
class CopyableServer : public WebServer {
 public:
  using WebServer::WebServer;

 protected:
  std::unique_ptr<WebServer> copy() const final {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }
  void assign(const WebServer& image) final {
    const auto* from = dynamic_cast<const Derived*>(&image);
    if (from == nullptr) {
      throw std::invalid_argument(std::string("cannot restore a ") + name() +
                                  " server from a " + image.name() +
                                  " image");
    }
    static_cast<Derived&>(*this) = *from;
  }
};

/// Factory for the four case-study servers by name ("apex", "abyssal",
/// "sambar", "savant"); throws std::invalid_argument for unknown names.
std::unique_ptr<WebServer> make_server(const std::string& name, os::OsApi& api);

}  // namespace gf::web

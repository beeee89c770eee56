#include "web/server.h"

#include <algorithm>

namespace gf::web {

const char* server_state_name(ServerState s) noexcept {
  switch (s) {
    case ServerState::kStopped: return "stopped";
    case ServerState::kRunning: return "running";
    case ServerState::kCrashed: return "crashed";
    case ServerState::kHung: return "hung";
    case ServerState::kSpinning: return "spinning";
  }
  return "?";
}

bool WebServer::start() {
  stats_ = {};
  state_ = ServerState::kStopped;
  try {
    if (!do_start()) return false;
  } catch (const ApiHang&) {
    return false;
  } catch (const ServerDeath&) {
    return false;
  } catch (const ServerSpin&) {
    return false;
  }
  state_ = ServerState::kRunning;
  return true;
}

void WebServer::stop() {
  if (state_ != ServerState::kStopped) {
    try {
      do_stop();
    } catch (const ApiHang&) {
      // Shutdown is best effort; a hung teardown call is abandoned.
    } catch (const ServerDeath&) {
    } catch (const ServerSpin&) {
    }
  }
  state_ = ServerState::kStopped;
}

Response WebServer::handle(const Request& req) {
  if (state_ != ServerState::kRunning) {
    return Response{503, {}};
  }
  ++stats_.requests;
  const auto cycles_before = api_->total_cycles();
  Response resp{500, {}};
  try {
    resp = do_handle(req);
  } catch (const ApiHang&) {
    state_ = ServerState::kHung;
    resp = Response{0, {}};  // never answered
  } catch (const ServerDeath&) {
    state_ = ServerState::kCrashed;
    ++stats_.crashes;
    resp = Response{0, {}};
  } catch (const ServerSpin&) {
    state_ = ServerState::kSpinning;
    resp = Response{0, {}};
  }
  last_cycles_ = api_->total_cycles() - cycles_before;
  if (resp.status == 200) {
    ++stats_.ok;
  } else {
    ++stats_.errors;
  }
  return resp;
}

std::unique_ptr<WebServer> WebServer::clone(os::OsApi& api) const {
  auto c = copy();
  c->api_ = &api;
  return c;
}

std::unique_ptr<const WebServer> WebServer::image() const {
  auto c = copy();
  c->api_ = nullptr;
  return c;
}

void WebServer::restore_process(const WebServer& image) {
  auto* const api = api_;
  assign(image);
  api_ = api;
}

bool WebServer::append_body(std::vector<std::uint8_t>& body, std::uint64_t buf,
                            std::uint64_t n) {
  if (!api_->readable(buf, n)) return false;
  const auto old = body.size();
  const auto keep = std::min<std::uint64_t>(n, body_cap_ - std::min(old, body_cap_));
  body.resize(old + keep);
  return api_->read_bytes(buf, body.data() + old, keep);
}

bool WebServer::try_self_restart() {
  if (!has_self_restart()) return false;
  const auto saved = stats_;
  stop();
  const bool up = start();
  stats_ = saved;  // restarting does not erase history
  if (up) ++stats_.self_restarts;
  return up;
}

}  // namespace gf::web

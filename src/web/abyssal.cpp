// abyssal — the Abyss-analogue benchmark target.
//
// A perfectly correct server on a healthy OS, but *trusting*: API statuses
// are mostly ignored, pointers are used unchecked, buffers are allocated
// per request (and leaked on error paths), and there is no containment —
// any crash escaping an API call kills the process, and there is no
// self-restart. This is the behavioural profile the paper measured for
// Abyss: higher error rates, more deaths, more required administrator
// intervention.
#include "web/server.h"

namespace gf::web {

namespace {

constexpr std::int64_t kBufSize = 36 * 1024;
constexpr std::int64_t kChunk = 4096;

class AbyssalServer final : public CopyableServer<AbyssalServer> {
 public:
  using CopyableServer::CopyableServer;

  const char* name() const override { return "abyssal"; }
  // Thread-per-connection dispatch: more per-request CPU outside the OS.
  double arch_overhead_ms() const override { return 5.45; }

 protected:
  bool do_start() override {
    // One shared scratch block; only the start path checks the result
    // (without it there is nothing to serve from).
    const auto r = die_on_crash(api().rtl_alloc(4096));
    if (r.value <= 0) return false;
    scratch_ = static_cast<std::uint64_t>(r.value);
    cs_ = scratch_;             // critical section lives in the scratch block
    url_buf_ = scratch_ + 64;   // wide URL
    ansi_buf_ = scratch_ + 2176;
    nt_struct_ = scratch_ + 3300;
    post_buf_ = scratch_ + 3400;
    const std::uint8_t zeros[64] = {};
    api().write_bytes(cs_, zeros, sizeof zeros);

    api().write_cstr(os::OsApi::kPathSlot, "/logs/abyssal.post");
    const auto log = die_on_crash(api().nt_create_file(os::OsApi::kPathSlot));
    if (log.value <= 0) return false;
    log_handle_ = log.value;
    return true;
  }

  void do_stop() override {
    if (log_handle_ > 0) die_on_crash(api().nt_close(log_handle_));
    if (scratch_ != 0) die_on_crash(api().rtl_free(scratch_));
    scratch_ = 0;
    log_handle_ = 0;
  }

  Response do_handle(const Request& req) override {
    // Stats bump "under lock" — results unchecked.
    die_on_crash(api().rtl_enter_cs(cs_));
    die_on_crash(api().rtl_leave_cs(cs_));

    if (!api().write_wstr(url_buf_, req.path)) throw ServerDeath{};

    if (++served_ % 32 == 0) housekeeping();

    // No canonicalization pass, no length validation anywhere.
    die_on_crash(api().rtl_init_unicode_string(os::OsApi::kStructSlot, url_buf_));
    die_on_crash(api().rtl_dos_path_to_nt(url_buf_, nt_struct_));
    const auto conv = die_on_crash(api().rtl_unicode_to_multibyte(
        ansi_buf_, 1000, url_buf_, static_cast<std::int64_t>(req.path.size()) * 2));
    // Trusts the conversion count blindly: a wrong count places the
    // terminator in the wrong spot and the open fails (or hits a stale
    // longer path from the previous request).
    const auto end = conv.value > 0 && conv.value < 1000 ? conv.value : 0;
    const std::uint8_t nul = 0;
    api().write_bytes(ansi_buf_ + static_cast<std::uint64_t>(end), &nul, 1);

    die_on_crash(api().rtl_free_unicode_string(nt_struct_));

    if (req.method == Method::kPost) return serve_post(req);

    const auto open = die_on_crash(api().nt_open_file(ansi_buf_));
    if (open.value == os::layout::kStatusNotFound) return Response{404, {}};
    const auto h = open.value;  // used even when it is an error status

    // Fresh response buffer every request; the status is not checked and
    // the response header is written through the pointer immediately — a
    // failed (null) or corrupt allocation is dereferenced right here.
    const auto alloc = die_on_crash(api().rtl_alloc(kBufSize));
    const auto data = static_cast<std::uint64_t>(alloc.value);
    const char hdr[16] = "HTTP/1.1 200 OK";
    if (!api().write_bytes(data, hdr, sizeof hdr)) throw ServerDeath{};

    Response resp{200, {}};
    while (resp.body.size() < kMaxBody) {
      const auto rd = die_on_crash(api().nt_read_file(h, data, kChunk));
      if (rd.value <= 0) break;  // any error is treated like EOF
      if (!append_body(resp.body, data, static_cast<std::uint64_t>(rd.value))) {
        // Reading through a bad buffer pointer: the process dereferenced
        // garbage memory.
        throw ServerDeath{};
      }
      if (rd.value < kChunk) break;
    }
    die_on_crash(api().nt_close(h));
    die_on_crash(api().rtl_free(data));  // leaked on the error paths above

    if (open.value <= 0) return Response{500, {}};
    if (req.dynamic) dynamic_transform(resp.body);
    return resp;
  }

 private:
  Response serve_post(const Request& req) {
    const auto len = std::min<std::size_t>(req.body.size(), 600);
    api().write_bytes(post_buf_, req.body.data(), len);
    // Alternates write paths; trusts that both work.
    if (++posts_ % 2 == 0) {
      die_on_crash(api().write_file(log_handle_, post_buf_,
                                    static_cast<std::int64_t>(len),
                                    os::OsApi::kOutSlot));
    } else {
      die_on_crash(api().nt_write_file(log_handle_, post_buf_,
                                       static_cast<std::int64_t>(len)));
    }
    return Response{200, expected_body(req.path, 128, false)};
  }

  /// Periodic maintenance (cache refresh, log rotation checks). Statuses
  /// are ignored throughout, in character.
  void housekeeping() {
    die_on_crash(api().get_long_path_name(url_buf_, ansi_buf_ /*reused*/, 400));
    die_on_crash(api().rtl_init_ansi_string(os::OsApi::kStructSlot, ansi_buf_));
    die_on_crash(api().nt_protect_vm(scratch_, 4096, 3));
    die_on_crash(api().nt_query_vm(scratch_, os::OsApi::kStructSlot));
    die_on_crash(api().set_file_pointer(log_handle_, 0));
    api().write_cstr(os::OsApi::kPathSlot, "/conf/httpd.conf");
    const auto conf = die_on_crash(api().nt_open_file(os::OsApi::kPathSlot));
    if (conf.value > 0) {
      die_on_crash(api().read_file(conf.value, post_buf_, 256, os::OsApi::kOutSlot));
      die_on_crash(api().close_handle(conf.value));
    }
  }

  std::uint64_t scratch_ = 0, cs_ = 0, url_buf_ = 0, ansi_buf_ = 0,
                nt_struct_ = 0, post_buf_ = 0;
  std::int64_t log_handle_ = 0;
  std::uint64_t served_ = 0, posts_ = 0;
};

}  // namespace

std::unique_ptr<WebServer> make_abyssal(os::OsApi& api) {
  return std::make_unique<AbyssalServer>(api);
}

}  // namespace gf::web

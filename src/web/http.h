// Minimal HTTP-like request/response model for the simulated web servers.
//
// The SPECWeb99-style client validates responses by *content*: every file in
// the workload file set has deterministic content derived from its path
// (expected_content_byte), so a served body can be checked against it
// without keeping copies — corrupted OS state (e.g. a trashed heap) shows up
// as content errors, exactly the error channel ER% measures in the paper.
//
// The content helpers are header-inline and come in per-byte and
// whole-buffer forms: servers transform every body they serve and the
// fileset is generated at bring-up, so the byte loops must vectorise in the
// caller instead of costing one cross-module call per byte. The client's
// check stays sampled (SpecClient::validate).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace gf::web {

enum class Method : std::uint8_t { kGet, kPost };

struct Request {
  Method method = Method::kGet;
  std::string path;     ///< request target, e.g. "/file_set/dir00001/class1_3"
  bool dynamic = false; ///< dynamic GET (CGI-style transform)
  std::string body;     ///< POST payload
};

struct Response {
  int status = 0;  ///< 200, 404, 500
  std::vector<std::uint8_t> body;
};

/// Deterministic content function for workload files: byte i of the file at
/// `path` is expected_content_byte(path_seed(path), i).
std::uint64_t path_seed(const std::string& path);

inline std::uint8_t expected_content_byte(std::uint64_t seed, std::size_t i) noexcept {
  return static_cast<std::uint8_t>(seed + i * 31);
}

/// Fills `out` with bytes [0, out.size()) of the file content for `seed`.
inline void fill_expected(std::uint64_t seed, std::span<std::uint8_t> out) noexcept {
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = expected_content_byte(seed, i);
}

/// The dynamic-GET transform applied by servers (and re-applied by the
/// client for validation).
inline std::uint8_t dynamic_transform(std::uint8_t b) noexcept {
  return static_cast<std::uint8_t>(b ^ 0x5A);
}

/// Applies dynamic_transform to every byte of `body` in place.
inline void dynamic_transform(std::span<std::uint8_t> body) noexcept {
  for (auto& b : body) b = dynamic_transform(b);
}

/// Builds the full expected body for a file of `size` bytes.
std::vector<std::uint8_t> expected_body(const std::string& path, std::size_t size,
                                        bool dynamic);

const char* method_name(Method m) noexcept;

}  // namespace gf::web

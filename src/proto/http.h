// HTTP/1.1-lite codec.
//
// Models the management interfaces of IoT devices (camera admin UI,
// set-top box, refrigerator) and is the protocol the password-proxy µmbox
// (the paper's Figure 4 use case) interposes on. Supports request line,
// status line, headers, body, and HTTP Basic authentication.
//
// One grammar: HttpRequestView parses a request in place, as views over
// the frame payload, and is what the packet path (DPI rules, devices,
// guard elements) reads. The owned HttpRequest/HttpResponse parses run the
// same splitter and copy the views out.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace iotsec::proto {

using HttpHeaders = std::vector<std::pair<std::string, std::string>>;

/// A request parsed in place: every field is a view into the parsed
/// buffer, which must outlive the view. Parse validates the whole head
/// (request line and every header line) once; Header() re-walks the
/// validated header block.
struct HttpRequestView {
  std::string_view method;
  std::string_view path;
  std::string_view version;
  /// Header lines after the request line, unsplit ('\n'-separated).
  std::string_view header_block;
  std::string_view body;

  /// Value of the first header named `name` (ASCII case-insensitive),
  /// trimmed; nullopt when absent.
  [[nodiscard]] std::optional<std::string_view> Header(
      std::string_view name) const;

  static std::optional<HttpRequestView> Parse(
      std::span<const std::uint8_t> data);
};

struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  std::string version = "HTTP/1.1";
  HttpHeaders headers;
  std::string body;

  [[nodiscard]] std::optional<std::string> Header(std::string_view name) const;
  void SetHeader(std::string_view name, std::string_view value);

  /// Wire size of Serialize(), so a frame builder can size the headers
  /// before SerializeTo() writes the payload in place.
  [[nodiscard]] std::size_t SerializedSize() const;
  /// Appends exactly SerializedSize() bytes to `out`.
  void SerializeTo(Bytes& out) const;
  [[nodiscard]] Bytes Serialize() const;
  static std::optional<HttpRequest> Parse(std::span<const std::uint8_t> data);
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  HttpHeaders headers;
  std::string body;

  [[nodiscard]] std::optional<std::string> Header(std::string_view name) const;
  void SetHeader(std::string_view name, std::string_view value);

  [[nodiscard]] std::size_t SerializedSize() const;
  void SerializeTo(Bytes& out) const;
  [[nodiscard]] Bytes Serialize() const;
  static std::optional<HttpResponse> Parse(std::span<const std::uint8_t> data);
};

/// Standard-alphabet base64 (used by HTTP Basic auth).
std::string Base64Encode(std::string_view raw);
std::optional<std::string> Base64Decode(std::string_view encoded);

/// Builds an "Authorization: Basic ..." header value.
std::string BasicAuthValue(std::string_view user, std::string_view password);

/// Extracts (user, password) from a Basic auth header value.
std::optional<std::pair<std::string, std::string>> ParseBasicAuth(
    std::string_view header_value);

}  // namespace iotsec::proto

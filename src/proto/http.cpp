#include "proto/http.h"

#include <charconv>

#include "common/strings.h"

namespace iotsec::proto {
namespace {

constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// A message head split in place: the trimmed start line, the header
/// lines after it (validated: every non-blank line has a ':'), and the
/// body after the blank CRLF line.
struct MessageHead {
  std::string_view start_line;
  std::string_view header_block;
  std::string_view body;
};

enum class HeaderLine : std::uint8_t { kEnd, kHeader, kMalformed };

/// Pops lines off the front of `rest` up to the next non-blank one and
/// splits it at its first ':' into trimmed name and value.
HeaderLine NextHeader(std::string_view& rest, std::string_view& name,
                      std::string_view& value) {
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    const std::string_view line = Trim(rest.substr(0, eol));
    rest = eol == std::string_view::npos ? std::string_view()
                                         : rest.substr(eol + 1);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return HeaderLine::kMalformed;
    name = Trim(line.substr(0, colon));
    value = Trim(line.substr(colon + 1));
    return HeaderLine::kHeader;
  }
  return HeaderLine::kEnd;
}

std::optional<MessageHead> SplitHead(std::span<const std::uint8_t> data) {
  const std::string_view text(reinterpret_cast<const char*>(data.data()),
                              data.size());
  const std::size_t head_end = text.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return std::nullopt;
  const std::string_view head = text.substr(0, head_end);
  const std::size_t eol = head.find('\n');
  MessageHead msg;
  msg.start_line = Trim(head.substr(0, eol));
  if (eol != std::string_view::npos) msg.header_block = head.substr(eol + 1);
  msg.body = text.substr(head_end + 4);
  std::string_view rest = msg.header_block;
  std::string_view name;
  std::string_view value;
  HeaderLine line = HeaderLine::kHeader;
  while (line == HeaderLine::kHeader) line = NextHeader(rest, name, value);
  if (line == HeaderLine::kMalformed) return std::nullopt;
  return msg;
}

/// Copies a validated header block into owned pairs.
HttpHeaders CopyHeaders(std::string_view block) {
  HttpHeaders headers;
  std::string_view name;
  std::string_view value;
  while (NextHeader(block, name, value) == HeaderLine::kHeader) {
    headers.emplace_back(name, value);
  }
  return headers;
}

/// Pops the next whitespace-delimited token off the front of `rest`;
/// empty once none is left.
std::string_view NextToken(std::string_view& rest) {
  std::size_t b = 0;
  while (b < rest.size() && IsAsciiSpace(rest[b])) ++b;
  std::size_t e = b;
  while (e < rest.size() && !IsAsciiSpace(rest[e])) ++e;
  const std::string_view token = rest.substr(b, e - b);
  rest.remove_prefix(e);
  return token;
}

/// Decimal text of `v` in `buf`; the returned view points into it.
std::string_view Decimal(long long v, char (&buf)[24]) {
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return {buf, static_cast<std::size_t>(res.ptr - buf)};
}

/// True when Serialize must add the Content-Length header itself.
bool NeedsLength(const HttpHeaders& headers, std::size_t body_size) {
  if (body_size == 0) return false;
  for (const auto& [k, v] : headers) {
    if (EqualsIgnoreCase(k, "Content-Length")) return false;
  }
  return true;
}

constexpr std::string_view kLengthName = "Content-Length: ";

/// Bytes of the header lines, the added Content-Length, the blank line
/// and the body.
std::size_t TailSize(const HttpHeaders& headers, std::string_view body) {
  std::size_t n = 2 + body.size();
  for (const auto& [k, v] : headers) n += k.size() + 2 + v.size() + 2;
  if (NeedsLength(headers, body.size())) {
    char buf[24];
    n += kLengthName.size() +
         Decimal(static_cast<long long>(body.size()), buf).size() + 2;
  }
  return n;
}

void WriteTail(ByteWriter& w, const HttpHeaders& headers,
               std::string_view body) {
  for (const auto& [k, v] : headers) {
    w.Str(k);
    w.Str(": ");
    w.Str(v);
    w.Str("\r\n");
  }
  if (NeedsLength(headers, body.size())) {
    char buf[24];
    w.Str(kLengthName);
    w.Str(Decimal(static_cast<long long>(body.size()), buf));
    w.Str("\r\n");
  }
  w.Str("\r\n");
  w.Str(body);
}

std::optional<std::string> FindHeader(const HttpHeaders& headers,
                                      std::string_view name) {
  for (const auto& [k, v] : headers) {
    if (EqualsIgnoreCase(k, name)) return v;
  }
  return std::nullopt;
}

void UpsertHeader(HttpHeaders& headers, std::string_view name,
                  std::string_view value) {
  for (auto& [k, v] : headers) {
    if (EqualsIgnoreCase(k, name)) {
      v = std::string(value);
      return;
    }
  }
  headers.emplace_back(std::string(name), std::string(value));
}

}  // namespace

std::optional<std::string_view> HttpRequestView::Header(
    std::string_view name) const {
  std::string_view rest = header_block;
  std::string_view key;
  std::string_view value;
  while (NextHeader(rest, key, value) == HeaderLine::kHeader) {
    if (EqualsIgnoreCase(key, name)) return value;
  }
  return std::nullopt;
}

std::optional<HttpRequestView> HttpRequestView::Parse(
    std::span<const std::uint8_t> data) {
  const auto msg = SplitHead(data);
  if (!msg) return std::nullopt;
  // Exactly three tokens: method, path, version.
  std::string_view rest = msg->start_line;
  HttpRequestView req;
  req.method = NextToken(rest);
  req.path = NextToken(rest);
  req.version = NextToken(rest);
  if (req.version.empty() || !NextToken(rest).empty() ||
      !StartsWith(req.version, "HTTP/")) {
    return std::nullopt;
  }
  req.header_block = msg->header_block;
  req.body = msg->body;
  return req;
}

std::optional<std::string> HttpRequest::Header(std::string_view name) const {
  return FindHeader(headers, name);
}
void HttpRequest::SetHeader(std::string_view name, std::string_view value) {
  UpsertHeader(headers, name, value);
}

std::size_t HttpRequest::SerializedSize() const {
  return method.size() + 1 + path.size() + 1 + version.size() + 2 +
         TailSize(headers, body);
}

void HttpRequest::SerializeTo(Bytes& out) const {
  ByteWriter w(out);
  w.Str(method);
  w.Str(" ");
  w.Str(path);
  w.Str(" ");
  w.Str(version);
  w.Str("\r\n");
  WriteTail(w, headers, body);
}

Bytes HttpRequest::Serialize() const {
  Bytes out;
  out.reserve(SerializedSize());
  SerializeTo(out);
  return out;
}

std::optional<HttpRequest> HttpRequest::Parse(
    std::span<const std::uint8_t> data) {
  const auto view = HttpRequestView::Parse(data);
  if (!view) return std::nullopt;
  HttpRequest req;
  req.method = view->method;
  req.path = view->path;
  req.version = view->version;
  req.headers = CopyHeaders(view->header_block);
  req.body = view->body;
  return req;
}

std::optional<std::string> HttpResponse::Header(std::string_view name) const {
  return FindHeader(headers, name);
}
void HttpResponse::SetHeader(std::string_view name, std::string_view value) {
  UpsertHeader(headers, name, value);
}

std::size_t HttpResponse::SerializedSize() const {
  char buf[24];
  return version.size() + 1 + Decimal(status, buf).size() + 1 +
         reason.size() + 2 + TailSize(headers, body);
}

void HttpResponse::SerializeTo(Bytes& out) const {
  char buf[24];
  ByteWriter w(out);
  w.Str(version);
  w.Str(" ");
  w.Str(Decimal(status, buf));
  w.Str(" ");
  w.Str(reason);
  w.Str("\r\n");
  WriteTail(w, headers, body);
}

Bytes HttpResponse::Serialize() const {
  Bytes out;
  out.reserve(SerializedSize());
  SerializeTo(out);
  return out;
}

std::optional<HttpResponse> HttpResponse::Parse(
    std::span<const std::uint8_t> data) {
  const auto msg = SplitHead(data);
  if (!msg) return std::nullopt;
  const std::string_view line = msg->start_line;
  const auto space1 = line.find(' ');
  if (space1 == std::string_view::npos) return std::nullopt;
  const auto space2 = line.find(' ', space1 + 1);
  const std::string_view version = line.substr(0, space1);
  if (!StartsWith(version, "HTTP/")) return std::nullopt;
  const std::string_view status_str =
      space2 == std::string_view::npos
          ? line.substr(space1 + 1)
          : line.substr(space1 + 1, space2 - space1 - 1);
  std::uint64_t status = 0;
  if (!ParseUint(status_str, status) || status < 100 || status > 599) {
    return std::nullopt;
  }
  HttpResponse resp;
  resp.version = version;
  resp.status = static_cast<int>(status);
  resp.reason =
      space2 == std::string_view::npos ? "" : line.substr(space2 + 1);
  resp.headers = CopyHeaders(msg->header_block);
  resp.body = msg->body;
  return resp;
}

std::string Base64Encode(std::string_view raw) {
  std::string out;
  out.reserve((raw.size() + 2) / 3 * 4);
  std::size_t i = 0;
  while (i + 2 < raw.size()) {
    const std::uint32_t n = (static_cast<std::uint8_t>(raw[i]) << 16) |
                            (static_cast<std::uint8_t>(raw[i + 1]) << 8) |
                            static_cast<std::uint8_t>(raw[i + 2]);
    out += kB64Alphabet[(n >> 18) & 63];
    out += kB64Alphabet[(n >> 12) & 63];
    out += kB64Alphabet[(n >> 6) & 63];
    out += kB64Alphabet[n & 63];
    i += 3;
  }
  const std::size_t rem = raw.size() - i;
  if (rem == 1) {
    const std::uint32_t n = static_cast<std::uint8_t>(raw[i]) << 16;
    out += kB64Alphabet[(n >> 18) & 63];
    out += kB64Alphabet[(n >> 12) & 63];
    out += "==";
  } else if (rem == 2) {
    const std::uint32_t n = (static_cast<std::uint8_t>(raw[i]) << 16) |
                            (static_cast<std::uint8_t>(raw[i + 1]) << 8);
    out += kB64Alphabet[(n >> 18) & 63];
    out += kB64Alphabet[(n >> 12) & 63];
    out += kB64Alphabet[(n >> 6) & 63];
    out += '=';
  }
  return out;
}

std::optional<std::string> Base64Decode(std::string_view encoded) {
  if (encoded.size() % 4 != 0) return std::nullopt;
  auto decode_char = [](char c) -> int {
    if (c >= 'A' && c <= 'Z') return c - 'A';
    if (c >= 'a' && c <= 'z') return c - 'a' + 26;
    if (c >= '0' && c <= '9') return c - '0' + 52;
    if (c == '+') return 62;
    if (c == '/') return 63;
    return -1;
  };
  std::string out;
  out.reserve(encoded.size() / 4 * 3);
  for (std::size_t i = 0; i < encoded.size(); i += 4) {
    int vals[4];
    int pad = 0;
    for (int j = 0; j < 4; ++j) {
      const char c = encoded[i + j];
      if (c == '=') {
        // Padding only allowed in the last two positions of the last group.
        if (i + 4 != encoded.size() || j < 2) return std::nullopt;
        vals[j] = 0;
        ++pad;
      } else {
        if (pad > 0) return std::nullopt;  // data after padding
        vals[j] = decode_char(c);
        if (vals[j] < 0) return std::nullopt;
      }
    }
    const std::uint32_t n =
        (static_cast<std::uint32_t>(vals[0]) << 18) |
        (static_cast<std::uint32_t>(vals[1]) << 12) |
        (static_cast<std::uint32_t>(vals[2]) << 6) |
        static_cast<std::uint32_t>(vals[3]);
    out += static_cast<char>((n >> 16) & 0xff);
    if (pad < 2) out += static_cast<char>((n >> 8) & 0xff);
    if (pad < 1) out += static_cast<char>(n & 0xff);
  }
  return out;
}

std::string BasicAuthValue(std::string_view user, std::string_view password) {
  std::string creds(user);
  creds += ':';
  creds += password;
  return "Basic " + Base64Encode(creds);
}

std::optional<std::pair<std::string, std::string>> ParseBasicAuth(
    std::string_view header_value) {
  const auto trimmed = Trim(header_value);
  if (!StartsWith(trimmed, "Basic ")) return std::nullopt;
  auto decoded = Base64Decode(Trim(trimmed.substr(6)));
  if (!decoded) return std::nullopt;
  const auto colon = decoded->find(':');
  if (colon == std::string::npos) return std::nullopt;
  return std::make_pair(decoded->substr(0, colon), decoded->substr(colon + 1));
}

}  // namespace iotsec::proto

#include "proto/http.h"

#include <cctype>

#include "common/strings.h"

namespace iotsec::proto {
namespace {

constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

void SerializeHeaders(std::string& out, const HttpHeaders& headers,
                      std::size_t body_size) {
  bool has_length = false;
  for (const auto& [k, v] : headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
    if (EqualsIgnoreCase(k, "Content-Length")) has_length = true;
  }
  if (!has_length && body_size > 0) {
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  out += "\r\n";
}

/// A message split into (start-line, headers, body); shared by both
/// codecs. The start line is a view into the frame being parsed.
struct RawMessage {
  std::string_view start_line;
  HttpHeaders headers;
  std::string body;
};

/// Walks the frame in place: the only copies are the header strings and
/// the body that the parsed message keeps.
std::optional<RawMessage> SplitMessage(std::span<const std::uint8_t> data) {
  const std::string_view text(reinterpret_cast<const char*>(data.data()),
                              data.size());
  const auto head_end = text.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return std::nullopt;
  const std::string_view head = text.substr(0, head_end);
  RawMessage msg;
  std::size_t eol = head.find('\n');
  msg.start_line = Trim(head.substr(0, eol));
  while (eol != std::string_view::npos) {
    const std::size_t begin = eol + 1;
    eol = head.find('\n', begin);
    const auto line = Trim(head.substr(
        begin, eol == std::string_view::npos ? eol : eol - begin));
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    msg.headers.emplace_back(Trim(line.substr(0, colon)),
                             Trim(line.substr(colon + 1)));
  }
  msg.body = text.substr(head_end + 4);
  return msg;
}

/// Pops the next whitespace-delimited token off the front of `rest`;
/// empty once none is left.
std::string_view NextToken(std::string_view& rest) {
  auto space = [&rest](std::size_t i) {
    return std::isspace(static_cast<unsigned char>(rest[i])) != 0;
  };
  std::size_t b = 0;
  while (b < rest.size() && space(b)) ++b;
  std::size_t e = b;
  while (e < rest.size() && !space(e)) ++e;
  const std::string_view token = rest.substr(b, e - b);
  rest.remove_prefix(e);
  return token;
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

std::optional<std::string> HttpRequest::Header(std::string_view name) const {
  return FindHeader(headers, name);
}
void HttpRequest::SetHeader(std::string_view name, std::string_view value) {
  UpsertHeader(headers, name, value);
}

Bytes HttpRequest::Serialize() const {
  std::string out = method + " " + path + " " + version + "\r\n";
  SerializeHeaders(out, headers, body.size());
  out += body;
  return ToBytes(out);
}

std::optional<HttpRequest> HttpRequest::Parse(
    std::span<const std::uint8_t> data) {
  auto msg = SplitMessage(data);
  if (!msg) return std::nullopt;
  // Exactly three tokens: method, path, version.
  std::string_view rest = msg->start_line;
  const std::string_view method = NextToken(rest);
  const std::string_view path = NextToken(rest);
  const std::string_view version = NextToken(rest);
  if (version.empty() || !NextToken(rest).empty() ||
      !StartsWith(version, "HTTP/")) {
    return std::nullopt;
  }
  HttpRequest req;
  req.method = method;
  req.path = path;
  req.version = version;
  req.headers = std::move(msg->headers);
  req.body = std::move(msg->body);
  return req;
}

std::optional<std::string> HttpResponse::Header(std::string_view name) const {
  return FindHeader(headers, name);
}
void HttpResponse::SetHeader(std::string_view name, std::string_view value) {
  UpsertHeader(headers, name, value);
}

Bytes HttpResponse::Serialize() const {
  std::string out =
      version + " " + std::to_string(status) + " " + reason + "\r\n";
  SerializeHeaders(out, headers, body.size());
  out += body;
  return ToBytes(out);
}

std::optional<HttpResponse> HttpResponse::Parse(
    std::span<const std::uint8_t> data) {
  auto msg = SplitMessage(data);
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
  resp.headers = std::move(msg->headers);
  resp.body = std::move(msg->body);
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

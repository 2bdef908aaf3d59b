// Unit + property tests for the protocol codecs.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "proto/dns.h"
#include "proto/frame.h"
#include "proto/http.h"
#include "proto/iotctl.h"
#include "proto/tunnel.h"

namespace iotsec::proto {
namespace {

using net::Ipv4Address;
using net::MacAddress;

TEST(EthernetTest, RoundTrip) {
  EthernetHeader h;
  h.src = MacAddress::FromId(7);
  h.dst = MacAddress::FromId(9);
  h.ethertype = EtherType::kIpv4;
  Bytes buf;
  ByteWriter w(buf);
  h.Serialize(w);
  ASSERT_EQ(buf.size(), EthernetHeader::kSize);
  ByteReader r(buf);
  auto parsed = EthernetHeader::Parse(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->ethertype, h.ethertype);
}

TEST(Ipv4Test, RoundTripAndChecksum) {
  Ipv4Header h;
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(10, 0, 0, 2);
  h.protocol = IpProto::kTcp;
  h.total_length = 40;
  h.ttl = 17;
  Bytes buf;
  ByteWriter w(buf);
  h.Serialize(w);
  ByteReader r(buf);
  auto parsed = Ipv4Header::Parse(r);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->ttl, 17);
  EXPECT_EQ(parsed->protocol, IpProto::kTcp);
}

TEST(Ipv4Test, CorruptChecksumRejected) {
  Ipv4Header h;
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(10, 0, 0, 2);
  h.total_length = 20;
  Bytes buf;
  ByteWriter w(buf);
  h.Serialize(w);
  buf[12] ^= 0xff;  // flip a source-address byte
  ByteReader r(buf);
  EXPECT_FALSE(Ipv4Header::Parse(r).has_value());
}

TEST(AddressTest, ParseFormats) {
  auto ip = Ipv4Address::Parse("192.168.1.77");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->ToString(), "192.168.1.77");
  EXPECT_FALSE(Ipv4Address::Parse("192.168.1").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("192.168.1.256").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("a.b.c.d").has_value());

  auto mac = MacAddress::Parse("02:00:00:00:00:2a");
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(*mac, MacAddress::FromId(42));
  EXPECT_FALSE(MacAddress::Parse("02:00:00:00:00").has_value());
  EXPECT_FALSE(MacAddress::Parse("zz:00:00:00:00:00").has_value());
}

TEST(AddressTest, PrefixContains) {
  auto p = net::Ipv4Prefix::Parse("10.1.2.0/24");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Contains(Ipv4Address(10, 1, 2, 200)));
  EXPECT_FALSE(p->Contains(Ipv4Address(10, 1, 3, 1)));
  EXPECT_TRUE(net::Ipv4Prefix::Any().Contains(Ipv4Address(1, 2, 3, 4)));
  auto host = net::Ipv4Prefix::Parse("10.1.2.3");
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->Length(), 32);
  EXPECT_TRUE(host->Contains(Ipv4Address(10, 1, 2, 3)));
  EXPECT_FALSE(host->Contains(Ipv4Address(10, 1, 2, 4)));
}

TEST(FrameTest, UdpRoundTrip) {
  const std::string payload = "hello iot";
  Bytes frame = BuildUdpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                              Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                              4444, kIotCtlPort, ToBytes(payload));
  auto parsed = ParseFrame(frame);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->HasUdp());
  EXPECT_EQ(parsed->udp->src_port, 4444);
  EXPECT_EQ(parsed->udp->dst_port, kIotCtlPort);
  EXPECT_EQ(ToString(parsed->payload), payload);
}

TEST(FrameTest, TcpRoundTrip) {
  TcpHeader tcp;
  tcp.src_port = 5555;
  tcp.dst_port = 80;
  tcp.seq = 1000;
  tcp.ack = 2000;
  tcp.flags = TcpFlags::kPsh | TcpFlags::kAck;
  Bytes frame = BuildTcpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                              Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                              tcp, ToBytes("GET / HTTP/1.1\r\n\r\n"));
  auto parsed = ParseFrame(frame);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->HasTcp());
  EXPECT_EQ(parsed->tcp->seq, 1000u);
  EXPECT_TRUE(parsed->tcp->Psh());
  EXPECT_TRUE(parsed->tcp->Ack());
  EXPECT_FALSE(parsed->tcp->Syn());
}

TEST(FrameTest, ReplacePayloadPreservesHeaders) {
  Bytes frame = BuildUdpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                              Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                              1234, 5678, ToBytes("short"));
  auto parsed = ParseFrame(frame);
  ASSERT_TRUE(parsed.has_value());
  Bytes rewritten = ReplacePayload(*parsed, ToBytes("a much longer payload"));
  auto reparsed = ParseFrame(rewritten);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->udp->src_port, 1234);
  EXPECT_EQ(reparsed->ip->src, parsed->ip->src);
  EXPECT_EQ(ToString(reparsed->payload), "a much longer payload");
}

TEST(HttpTest, RequestRoundTrip) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/admin/config";
  req.SetHeader("Host", "camera.local");
  req.SetHeader("Authorization", BasicAuthValue("admin", "admin"));
  req.body = "mode=night";
  Bytes wire = req.Serialize();
  auto parsed = HttpRequest::Parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->path, "/admin/config");
  EXPECT_EQ(parsed->body, "mode=night");
  auto auth = parsed->Header("authorization");
  ASSERT_TRUE(auth.has_value());
  auto creds = ParseBasicAuth(*auth);
  ASSERT_TRUE(creds.has_value());
  EXPECT_EQ(creds->first, "admin");
  EXPECT_EQ(creds->second, "admin");
}

TEST(HttpTest, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 401;
  resp.reason = "Unauthorized";
  resp.SetHeader("WWW-Authenticate", "Basic realm=\"cam\"");
  resp.body = "denied";
  auto parsed = HttpResponse::Parse(resp.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 401);
  EXPECT_EQ(parsed->reason, "Unauthorized");
  EXPECT_EQ(parsed->body, "denied");
}

TEST(HttpTest, MalformedRejected) {
  EXPECT_FALSE(HttpRequest::Parse(ToBytes("no crlf here")).has_value());
  EXPECT_FALSE(HttpRequest::Parse(ToBytes("GETONLY\r\n\r\n")).has_value());
  EXPECT_FALSE(HttpResponse::Parse(ToBytes("HTTP/1.1 banana\r\n\r\n")).has_value());
}

// Equivalence table for the HTTP codec: accept/reject and every parsed
// field on the edge cases a rewrite of the message splitter could drift
// on. Reject* rows leave the field columns unused.
struct HttpRequestCase {
  const char* name;
  std::string wire;
  bool accept;
  std::string method, path, version;
  HttpHeaders headers;
  std::string body;
};

HttpRequestCase RejectRequest(const char* name, std::string wire) {
  HttpRequestCase c{};
  c.name = name;
  c.wire = std::move(wire);
  return c;
}

TEST(HttpTest, RequestEquivalenceTable) {
  using std::string_literals::operator""s;
  const std::vector<HttpRequestCase> cases = {
      {"plain", "GET / HTTP/1.1\r\nHost: cam\r\n\r\n", true, "GET", "/",
       "HTTP/1.1", {{"Host", "cam"}}, ""},
      RejectRequest("bare LF throughout (no blank CRLF line)",
                    "GET / HTTP/1.1\nHost: cam\n\nbody"),
      {"bare LF header lines, CRLF terminator",
       "GET /x HTTP/1.0\nHost: cam\nX-A: 1\r\n\r\nhi", true, "GET", "/x",
       "HTTP/1.0", {{"Host", "cam"}, {"X-A", "1"}}, "hi"},
      RejectRequest("header without colon",
                    "GET / HTTP/1.1\r\nBadHeader\r\n\r\n"),
      RejectRequest("header without colon after a good one",
                    "GET / HTTP/1.1\r\nHost: a\r\nnope\r\n\r\n"),
      {"padded header name and value",
       "GET / HTTP/1.1\r\n  Host  :   cam.local  \r\n\tX-A\t:\tb c\t\r\n\r\n",
       true, "GET", "/", "HTTP/1.1",
       {{"Host", "cam.local"}, {"X-A", "b c"}}, ""},
      {"whitespace-only line skipped",
       "GET / HTTP/1.1\r\n   \r\nHost: a\r\n\r\n", true, "GET", "/",
       "HTTP/1.1", {{"Host", "a"}}, ""},
      {"colon in value, empty name, empty value",
       "GET / HTTP/1.1\r\nHost: a:80\r\n: v\r\nX-Empty:\r\n\r\n", true, "GET",
       "/", "HTTP/1.1", {{"Host", "a:80"}, {"", "v"}, {"X-Empty", ""}}, ""},
      RejectRequest("two-token request line", "GET /\r\n\r\n"),
      RejectRequest("four-token request line",
                    "GET / HTTP/1.1 extra\r\n\r\n"),
      RejectRequest("version without HTTP/ prefix",
                    "GET / FTP/1.1\r\n\r\n"),
      {"runs of spaces and tabs between tokens",
       "  GET \t /a/b   HTTP/1.1  \r\n\r\n", true, "GET", "/a/b", "HTTP/1.1",
       {}, ""},
      RejectRequest("empty head", "\r\n\r\n"),
      {"empty body, no headers", "DELETE /z HTTP/1.1\r\n\r\n", true, "DELETE",
       "/z", "HTTP/1.1", {}, ""},
      {"body containing CRLFCRLF",
       "POST /a HTTP/1.1\r\nContent-Length: 12\r\n\r\nab\r\n\r\ncdefgh", true,
       "POST", "/a", "HTTP/1.1", {{"Content-Length", "12"}},
       "ab\r\n\r\ncdefgh"},
      {"NUL bytes survive in body", "GET / HTTP/1.1\r\n\r\na\0b"s, true, "GET",
       "/", "HTTP/1.1", {}, "a\0b"s},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto req = HttpRequest::Parse(ToBytes(c.wire));
    ASSERT_EQ(req.has_value(), c.accept);
    if (!c.accept) continue;
    EXPECT_EQ(req->method, c.method);
    EXPECT_EQ(req->path, c.path);
    EXPECT_EQ(req->version, c.version);
    EXPECT_EQ(req->headers, c.headers);
    EXPECT_EQ(req->body, c.body);
  }
}

struct HttpResponseCase {
  const char* name;
  std::string wire;
  bool accept;
  int status;
  std::string reason, version;
  HttpHeaders headers;
  std::string body;
};

HttpResponseCase RejectResponse(const char* name, std::string wire) {
  HttpResponseCase c{};
  c.name = name;
  c.wire = std::move(wire);
  return c;
}

TEST(HttpTest, ResponseEquivalenceTable) {
  const std::vector<HttpResponseCase> cases = {
      {"plain", "HTTP/1.1 200 OK\r\nServer: cam\r\n\r\nbody", true, 200, "OK",
       "HTTP/1.1", {{"Server", "cam"}}, "body"},
      RejectResponse("bare LF throughout",
                     "HTTP/1.1 200 OK\nServer: cam\n\n"),
      {"bare LF header lines, CRLF terminator",
       "HTTP/1.0 404 Not Found\nA: 1\nB: 2\r\n\r\n", true, 404, "Not Found",
       "HTTP/1.0", {{"A", "1"}, {"B", "2"}}, ""},
      RejectResponse("header without colon",
                     "HTTP/1.1 200 OK\r\njunk\r\n\r\n"),
      {"padded header", "HTTP/1.1 200 OK\r\n\t Server \t:  cam  \r\n\r\n",
       true, 200, "OK", "HTTP/1.1", {{"Server", "cam"}}, ""},
      RejectResponse("status 99", "HTTP/1.1 99 Low\r\n\r\n"),
      RejectResponse("status 600", "HTTP/1.1 600 High\r\n\r\n"),
      {"status 100", "HTTP/1.1 100 Continue\r\n\r\n", true, 100, "Continue",
       "HTTP/1.1", {}, ""},
      {"status 599", "HTTP/1.1 599 Edge\r\n\r\n", true, 599, "Edge",
       "HTTP/1.1", {}, ""},
      {"missing reason phrase", "HTTP/1.1 204\r\n\r\n", true, 204, "",
       "HTTP/1.1", {}, ""},
      {"trailing space after status is trimmed", "HTTP/1.1 204 \r\n\r\n", true,
       204, "", "HTTP/1.1", {}, ""},
      {"reason with inner spaces", "HTTP/1.1 503 Service  Unavailable\r\n\r\n",
       true, 503, "Service  Unavailable", "HTTP/1.1", {}, ""},
      RejectResponse("double space before status",
                     "HTTP/1.1  200 OK\r\n\r\n"),
      RejectResponse("no space at all", "HTTP/1.1\r\n\r\n"),
      RejectResponse("version without HTTP/ prefix",
                     "HTTX/1.1 200 OK\r\n\r\n"),
      RejectResponse("signed status", "HTTP/1.1 +200 OK\r\n\r\n"),
      {"empty body", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", true,
       200, "OK", "HTTP/1.1", {{"Content-Length", "0"}}, ""},
      {"body containing CRLFCRLF", "HTTP/1.1 200 OK\r\n\r\n\r\n\r\ntail",
       true, 200, "OK", "HTTP/1.1", {}, "\r\n\r\ntail"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto resp = HttpResponse::Parse(ToBytes(c.wire));
    ASSERT_EQ(resp.has_value(), c.accept);
    if (!c.accept) continue;
    EXPECT_EQ(resp->status, c.status);
    EXPECT_EQ(resp->reason, c.reason);
    EXPECT_EQ(resp->version, c.version);
    EXPECT_EQ(resp->headers, c.headers);
    EXPECT_EQ(resp->body, c.body);
  }
}

// Reference splitter: the straightforward copy-everything HTTP parse
// (whole frame to a string, head substring, vector of lines, tokenised
// request line). The production codec must agree with it on every input.
std::optional<HttpRequest> ReferenceParseRequest(const std::string& text) {
  const auto head_end = text.find("\r\n\r\n");
  if (head_end == std::string::npos) return std::nullopt;
  const auto lines = Split(text.substr(0, head_end), '\n');
  HttpRequest req;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto line = Trim(lines[i]);
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    req.headers.emplace_back(std::string(Trim(line.substr(0, colon))),
                             std::string(Trim(line.substr(colon + 1))));
  }
  const auto parts = SplitWhitespace(Trim(lines[0]));
  if (parts.size() != 3 || !StartsWith(parts[2], "HTTP/")) return std::nullopt;
  req.method = parts[0];
  req.path = parts[1];
  req.version = parts[2];
  req.body = text.substr(head_end + 4);
  return req;
}

std::optional<HttpResponse> ReferenceParseResponse(const std::string& text) {
  const auto head_end = text.find("\r\n\r\n");
  if (head_end == std::string::npos) return std::nullopt;
  const auto lines = Split(text.substr(0, head_end), '\n');
  HttpResponse resp;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto line = Trim(lines[i]);
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    resp.headers.emplace_back(std::string(Trim(line.substr(0, colon))),
                              std::string(Trim(line.substr(colon + 1))));
  }
  const std::string start(Trim(lines[0]));
  const auto space1 = start.find(' ');
  if (space1 == std::string::npos) return std::nullopt;
  const auto space2 = start.find(' ', space1 + 1);
  resp.version = start.substr(0, space1);
  if (!StartsWith(resp.version, "HTTP/")) return std::nullopt;
  const std::string status_str =
      space2 == std::string::npos
          ? start.substr(space1 + 1)
          : start.substr(space1 + 1, space2 - space1 - 1);
  std::uint64_t status = 0;
  if (!ParseUint(status_str, status) || status < 100 || status > 599) {
    return std::nullopt;
  }
  resp.status = static_cast<int>(status);
  resp.reason = space2 == std::string::npos ? "" : start.substr(space2 + 1);
  resp.body = text.substr(head_end + 4);
  return resp;
}

class HttpDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

// Property: on seeded mutations of valid messages (structural characters
// inserted, bytes flipped, cut short) the codec accepts exactly what the
// reference accepts and yields the same fields.
TEST_P(HttpDifferentialTest, AgreesWithReferenceSplitter) {
  Rng rng(GetParam());
  const std::vector<std::string> seeds = {
      "GET /admin HTTP/1.1\r\nHost: cam\r\nAuthorization: Basic YTpi\r\n\r\n",
      "POST /cfg HTTP/1.0\r\nContent-Length: 9\r\n\r\nmode=\r\n\r\n",
      "HTTP/1.1 200 OK\r\nServer: cam\r\nContent-Length: 2\r\n\r\nok",
      "HTTP/1.1 401 Unauthorized Here\r\nWWW-Authenticate: Basic\r\n\r\n",
  };
  constexpr std::string_view kAlphabet = "\r\n: \t/HTP1059a";
  for (int iter = 0; iter < 400; ++iter) {
    std::string text = seeds[rng.NextBelow(seeds.size())];
    const int edits = 1 + static_cast<int>(rng.NextBelow(6));
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = rng.NextBelow(text.size() + 1);
      switch (rng.NextBelow(4)) {
        case 0:
          text.insert(at, 1, kAlphabet[rng.NextBelow(kAlphabet.size())]);
          break;
        case 1:
          if (at < text.size()) text.erase(at, 1);
          break;
        case 2:
          if (at < text.size()) {
            text[at] = static_cast<char>(rng.NextBelow(256));
          }
          break;
        default:
          text.resize(at);
          break;
      }
    }
    SCOPED_TRACE(::testing::PrintToString(text));
    const auto req = HttpRequest::Parse(ToBytes(text));
    const auto ref_req = ReferenceParseRequest(text);
    ASSERT_EQ(req.has_value(), ref_req.has_value());
    if (req) {
      EXPECT_EQ(req->method, ref_req->method);
      EXPECT_EQ(req->path, ref_req->path);
      EXPECT_EQ(req->version, ref_req->version);
      EXPECT_EQ(req->headers, ref_req->headers);
      EXPECT_EQ(req->body, ref_req->body);
    }
    const auto resp = HttpResponse::Parse(ToBytes(text));
    const auto ref_resp = ReferenceParseResponse(text);
    ASSERT_EQ(resp.has_value(), ref_resp.has_value());
    if (resp) {
      EXPECT_EQ(resp->status, ref_resp->status);
      EXPECT_EQ(resp->reason, ref_resp->reason);
      EXPECT_EQ(resp->version, ref_resp->version);
      EXPECT_EQ(resp->headers, ref_resp->headers);
      EXPECT_EQ(resp->body, ref_resp->body);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpDifferentialTest,
                         ::testing::Values(3, 17, 29, 41, 53, 67, 79, 97));

TEST(Base64Test, KnownVectors) {
  EXPECT_EQ(Base64Encode(""), "");
  EXPECT_EQ(Base64Encode("f"), "Zg==");
  EXPECT_EQ(Base64Encode("fo"), "Zm8=");
  EXPECT_EQ(Base64Encode("foo"), "Zm9v");
  EXPECT_EQ(Base64Encode("foobar"), "Zm9vYmFy");
  EXPECT_EQ(Base64Decode("Zm9vYmFy").value(), "foobar");
  EXPECT_FALSE(Base64Decode("Zm9vYmF").has_value());   // bad length
  EXPECT_FALSE(Base64Decode("Zm=vYmFy").has_value());  // data after pad
}

class Base64PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Base64PropertyTest, EncodeDecodeRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const auto len = static_cast<std::size_t>(rng.NextBelow(128));
    std::string raw;
    for (std::size_t i = 0; i < len; ++i) {
      raw += static_cast<char>(rng.NextBelow(256));
    }
    auto decoded = Base64Decode(Base64Encode(raw));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, raw);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Base64PropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 12345));

TEST(DnsTest, QueryResponseRoundTrip) {
  DnsMessage query;
  query.id = 0x1234;
  query.questions.push_back({"pool.ntp.org", DnsType::kAny});
  auto parsed_q = DnsMessage::Parse(query.Serialize());
  ASSERT_TRUE(parsed_q.has_value());
  EXPECT_FALSE(parsed_q->is_response);
  ASSERT_EQ(parsed_q->questions.size(), 1u);
  EXPECT_EQ(parsed_q->questions[0].name, "pool.ntp.org");

  DnsMessage resp;
  resp.id = 0x1234;
  resp.is_response = true;
  resp.recursion_available = true;
  resp.questions = query.questions;
  for (int i = 0; i < 10; ++i) {
    resp.answers.push_back(
        DnsRecord::MakeA("pool.ntp.org", net::Ipv4Address(1, 2, 3, i)));
    resp.answers.push_back(DnsRecord::MakeTxt(
        "pool.ntp.org", "padding-record-to-amplify-the-response-" +
                            std::to_string(i)));
  }
  Bytes wire = resp.Serialize();
  auto parsed_r = DnsMessage::Parse(wire);
  ASSERT_TRUE(parsed_r.has_value());
  EXPECT_TRUE(parsed_r->is_response);
  EXPECT_EQ(parsed_r->answers.size(), 20u);
  // Amplification: the response must be much larger than the query.
  EXPECT_GT(wire.size(), query.Serialize().size() * 5);
}

TEST(DnsTest, MalformedRejected) {
  EXPECT_FALSE(DnsMessage::Parse(ToBytes("xx")).has_value());
  Bytes truncated = []{
    DnsMessage q;
    q.questions.push_back({"a.b", DnsType::kA});
    return q.Serialize();
  }();
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(DnsMessage::Parse(truncated).has_value());
}

TEST(IotCtlTest, CommandRoundTrip) {
  IotCtlMessage msg;
  msg.type = IotMsgType::kCommand;
  msg.command = IotCommand::kTurnOn;
  msg.seq = 42;
  msg.SetAuthToken("wemo-secret");
  msg.Add(IotTag::kArgKey, "brightness");
  msg.Add(IotTag::kArgValue, "80");
  auto parsed = IotCtlMessage::Parse(msg.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->command, IotCommand::kTurnOn);
  EXPECT_EQ(parsed->seq, 42);
  EXPECT_FALSE(parsed->backdoor);
  EXPECT_EQ(parsed->AuthToken().value(), "wemo-secret");
  EXPECT_EQ(parsed->Find(IotTag::kArgKey).value(), "brightness");
}

TEST(IotCtlTest, BackdoorFlagSurvives) {
  IotCtlMessage msg;
  msg.command = IotCommand::kOpen;
  msg.backdoor = true;
  auto parsed = IotCtlMessage::Parse(msg.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->backdoor);
}

TEST(IotCtlTest, RejectsWrongMagic) {
  IotCtlMessage msg;
  Bytes wire = msg.Serialize();
  wire[0] = 0x00;
  EXPECT_FALSE(IotCtlMessage::Parse(wire).has_value());
}

TEST(TunnelTest, EncapDecapRoundTrip) {
  Bytes inner = BuildUdpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                              Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                              1111, 2222, ToBytes("inner"));
  TunnelHeader th;
  th.vni = 77;
  th.direction = TunnelDirection::kToUmbox;
  th.origin_switch = 3;
  Bytes outer = Encapsulate(MacAddress::FromId(100), MacAddress::FromId(200),
                            th, inner);
  auto decap = Decapsulate(outer);
  ASSERT_TRUE(decap.has_value());
  EXPECT_EQ(decap->header.vni, 77u);
  EXPECT_EQ(decap->header.origin_switch, 3u);
  EXPECT_EQ(decap->inner, inner);
  // The inner frame is still parseable.
  auto parsed = ParseFrame(decap->inner);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(ToString(parsed->payload), "inner");
}

TEST(TunnelTest, NonTunnelFrameRejected) {
  Bytes plain = BuildUdpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                              Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                              1, 2, ToBytes("x"));
  EXPECT_FALSE(Decapsulate(plain).has_value());
}

class FrameFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

// Property: ParseFrame never crashes or reads out of bounds on random
// mutations of a valid frame.
TEST_P(FrameFuzzTest, ParserRobustToMutation) {
  Rng rng(GetParam());
  Bytes frame = BuildUdpFrame(MacAddress::FromId(1), MacAddress::FromId(2),
                              Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                              1234, 5678, ToBytes("payload-bytes"));
  for (int iter = 0; iter < 200; ++iter) {
    Bytes mutated = frame;
    const int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    }
    if (rng.NextBool(0.3)) {
      mutated.resize(rng.NextBelow(mutated.size() + 1));
    }
    (void)ParseFrame(mutated);  // must not crash
    (void)Decapsulate(mutated);
    (void)IotCtlMessage::Parse(mutated);
    (void)DnsMessage::Parse(mutated);
    (void)HttpRequest::Parse(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace iotsec::proto

#include "rollout/manifest.h"

#include "common/hash.h"
#include "common/strings.h"

namespace iotsec::rollout {
namespace {

/// SipHash's second key word: the signing key is 64 bits, and this
/// constant keeps manifest MACs apart from any other use of that key.
constexpr std::uint64_t kManifestMacDomain = 0x696f747365632d6dull;

void PutU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (i * 8)) & 0xff);
}

void PutBytes(std::string& out, std::string_view bytes) {
  PutU64(out, bytes.size());
  out += bytes;
}

/// Every field but the signature, fixed-width or length-prefixed, so two
/// different manifests never encode to the same bytes.
std::string SignedBytes(const RulesetManifest& m) {
  std::string out;
  PutBytes(out, m.sku);
  PutU64(out, m.version);
  PutU64(out, m.content_hash);
  PutU64(out, m.parent_hash);
  PutU64(out, m.snapshot ? 1 : 0);
  PutU64(out, m.add.size());
  for (const auto& text : m.add) PutBytes(out, text);
  PutU64(out, m.remove.size());
  for (const std::uint64_t r : m.remove) PutU64(out, r);
  return out;
}

std::uint64_t Mac(const RulesetManifest& m, std::uint64_t key) {
  return hash::SipHash24(key, kManifestMacDomain, SignedBytes(m));
}

}  // namespace

std::uint64_t HashRuleText(std::string_view text) {
  return hash::Fnv1a(text, hash::kTruncatedFnvOffset);
}

std::uint64_t HashRuleList(const std::vector<std::string>& rule_texts) {
  // Commutative: per-rule hashes are scrambled then summed, plus the
  // count, so {A,B} == {B,A} but {A} != {A,A} != {A,B}.
  std::uint64_t h = 0x5CA1AB1Eull + rule_texts.size();
  for (const auto& text : rule_texts) h += hash::Fmix64(HashRuleText(text));
  return hash::Fmix64(h);
}

std::size_t RulesetManifest::WireBytes() const {
  // Header: sku + version + content/parent hashes + flags + signature +
  // the two list lengths.
  std::size_t bytes = sku.size() + 8 * 5 + 1 + 2 * 4;
  for (const auto& text : add) bytes += text.size() + 2;  // length prefix
  bytes += remove.size() * 8;
  return bytes;
}

void Sign(RulesetManifest& manifest, std::uint64_t key) {
  manifest.signature = Mac(manifest, key);
}

bool VerifySignature(const RulesetManifest& manifest, std::uint64_t key) {
  return manifest.signature == Mac(manifest, key);
}

bool RolloutPlan::KnowsVersion(std::uint64_t v, bool* is_signed) const {
  for (const auto& [version, signed_flag] : versions) {
    if (version == v) {
      if (is_signed != nullptr) *is_signed = signed_flag;
      return true;
    }
  }
  return false;
}

bool ParseRolloutPlan(const std::string& text, RolloutPlan* plan,
                      std::string* error) {
  *plan = RolloutPlan{};
  int line_no = 0;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + what;
    }
    return false;
  };
  for (const auto& raw : Split(text, '\n')) {
    ++line_no;
    auto line = Trim(raw);
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = Trim(line.substr(0, hash));
    }
    if (line.empty()) continue;
    const auto tokens = SplitWhitespace(line);
    const std::string& key = tokens.front();
    if (key == "sku") {
      if (tokens.size() != 2) return fail("expected: sku <name>");
      plan->sku = tokens[1];
    } else if (key == "target" || key == "rollback") {
      std::uint64_t v = 0;
      if (tokens.size() != 2 || !ParseUint(tokens[1], v)) {
        return fail("expected: " + key + " <version>");
      }
      if (key == "target") {
        plan->target = v;
      } else {
        plan->rollback = v;
        plan->has_rollback = true;
      }
    } else if (key == "stage") {
      // stage [<name>] <permille> [hold <duration>] — a non-numeric token
      // after "stage" is the stage's name. Range checks live in the R005
      // lint, not here.
      RolloutPlanStage stage;
      std::size_t next = 1;
      std::uint64_t permille = 0;
      if (tokens.size() >= 3 && !ParseUint(tokens[1], permille)) {
        stage.name = tokens[1];
        next = 2;
      }
      if (next >= tokens.size() || !ParseUint(tokens[next], permille) ||
          permille > 0xFFFFFFFFull) {
        return fail("expected: stage [<name>] <permille> [hold <duration>]");
      }
      stage.permille = static_cast<std::uint32_t>(permille);
      ++next;
      if (next != tokens.size()) {
        if (tokens.size() != next + 2 || tokens[next] != "hold") {
          return fail("expected 'hold <duration>' after permille");
        }
        stage.hold = tokens[next + 1];
      }
      plan->stages.push_back(std::move(stage));
    } else if (key == "version") {
      std::uint64_t v = 0;
      if (tokens.size() != 3 || !ParseUint(tokens[1], v) ||
          (tokens[2] != "signed" && tokens[2] != "unsigned")) {
        return fail("expected: version <n> signed|unsigned");
      }
      plan->versions.emplace_back(v, tokens[2] == "signed");
    } else {
      return fail("unknown directive: " + key);
    }
  }
  line_no = 0;
  if (plan->sku.empty()) return fail("plan has no 'sku' line");
  if (plan->target == 0) return fail("plan has no 'target' line");
  return true;
}

}  // namespace iotsec::rollout

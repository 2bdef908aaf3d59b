// Hostile input for the Click-lite front end. Seeded mutations of every
// canonical posture config, the shipped lint fixtures and the
// docs/LANGUAGES.md example run through MboxGraph::Build, the graph
// linter, the model checker's guard analysis and the crowd splice.
//
// Properties: nothing crashes (the sanitizer build runs this target too);
// every diagnostic points inside the input (a line:col that names a byte
// of it, or the end of that line); every element of a built
// graph has a declaration whose position lies inside the input; and the
// crowd splice of any buildable config builds with `crowd` as its entry,
// wired into the config's own entry, so every packet meets the crowd
// rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/postures.h"
#include "dataplane/graph.h"
#include "verify/graph_lint.h"
#include "verify/model_check.h"

namespace iotsec {
namespace {

using dataplane::MboxGraph;
using verify::GuardStrength;

constexpr char kBlockRule[] =
    "block udp any any -> any 5009 (msg:\"reboot abuse\"; sid:9400; "
    "iotcmd:reboot; )";

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The first fenced block under the Click-lite heading of the language
/// reference.
std::string DocExample() {
  const std::string doc = ReadFile(std::filesystem::path(IOTSEC_SOURCE_DIR) /
                                   "docs" / "LANGUAGES.md");
  const auto section = doc.find("## 1. Click-lite");
  const auto open = doc.find("```\n", section);
  const auto close = doc.find("```", open + 4);
  if (section == std::string::npos || open == std::string::npos ||
      close == std::string::npos) {
    return "";
  }
  return doc.substr(open + 4, close - open - 4);
}

struct Seed {
  std::string origin;
  std::string text;
};

std::vector<Seed> Seeds() {
  const auto lan = *net::Ipv4Prefix::Parse("10.0.0.0/24");
  std::vector<Seed> seeds;
  for (const auto& posture :
       {core::TrustPosture(), core::MonitorPosture(),
        core::QuarantinePosture(), core::FirewallPosture(lan),
        core::PasswordProxyPosture(net::Ipv4Address(10, 0, 0, 10), "admin",
                                   "N3w-Strong-Pass", "admin", "admin"),
        core::ContextGatePosture(proto::IotCommand::kTurnOn,
                                 "device.cam.state", "person_detected"),
        core::DnsGuardPosture(lan)}) {
    seeds.push_back({"posture " + posture.profile, posture.umbox_config});
  }
  const auto lint_dir =
      std::filesystem::path(IOTSEC_SOURCE_DIR) / "examples" / "lint";
  std::vector<std::filesystem::path> clicks;
  for (const auto& entry : std::filesystem::directory_iterator(lint_dir)) {
    if (entry.path().extension() == ".click") clicks.push_back(entry.path());
  }
  std::sort(clicks.begin(), clicks.end());
  for (const auto& path : clicks) {
    seeds.push_back({path.filename().string(), ReadFile(path)});
  }
  seeds.push_back({"docs/LANGUAGES.md", DocExample()});
  return seeds;
}

/// Element names declared in `text` ("name :: ..." at a line start).
std::vector<std::string> DeclaredNames(const std::string& text) {
  std::vector<std::string> names;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    const auto sep = line.find(" :: ");
    if (sep != std::string::npos && sep > 0) {
      const auto first = line.find_first_not_of(' ');
      names.push_back(line.substr(first, sep - first));
    }
  }
  return names;
}

std::size_t At(Rng& rng, const std::string& text) {
  return rng.NextBelow(text.size() + 1);
}

/// A random line start (0 or just past a newline).
std::size_t LineStart(Rng& rng, const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts[rng.NextBelow(starts.size())];
}

/// A random position next to a grammar character, so inserted tokens
/// land in names, keys, values and ports (a random position otherwise).
std::size_t NearGrammar(Rng& rng, const std::string& text) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (std::string_view(":()=,[]>\"").find(text[i]) != std::string::npos) {
      at.push_back(i);
      at.push_back(i + 1);
    }
  }
  return at.empty() ? At(rng, text) : at[rng.NextBelow(at.size())];
}

/// Positions strictly inside a double-quoted span, if any.
std::vector<std::size_t> QuotedPositions(const std::string& text) {
  std::vector<std::size_t> at;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '"') {
      quoted = !quoted;
    } else if (quoted) {
      at.push_back(i);
    }
  }
  return at;
}

/// One hostile edit: byte flips, truncation (anywhere or at a line
/// break), structural tokens and blanks (anywhere, at a line start or
/// next to a grammar character),
/// `entry` lines, newlines inside and outside quotes, NUL and high bytes.
void MutateOnce(Rng& rng, const std::vector<std::string>& names,
                std::string& text) {
  static const std::vector<std::string> kTokens = {
      "\"", "(", ")", "[", "]", "->", "::", "#", " ", "\t"};
  switch (rng.NextBelow(7)) {
    case 0:
      if (!text.empty()) {
        const auto i = rng.NextBelow(text.size());
        text[i] = static_cast<char>(text[i] ^
                                    static_cast<char>(1 + rng.NextBelow(255)));
      }
      break;
    case 1:
      if (rng.NextBool(0.5)) {
        text.resize(rng.NextBelow(text.size() + 1));
      } else if (const auto cut = LineStart(rng, text); cut > 0) {
        text.resize(cut - 1);
      }
      break;
    case 2: {
      const auto where = rng.NextBelow(3);
      // Half the insertions are quotes: a stray one is what desyncs
      // statements.
      text.insert(where == 0   ? At(rng, text)
                  : where == 1 ? LineStart(rng, text)
                               : NearGrammar(rng, text),
                  rng.NextBool(0.5) ? kTokens[0]
                                    : kTokens[rng.NextBelow(kTokens.size())]);
      break;
    }
    case 3: {
      std::string name = "nowhere";
      if (!names.empty() && rng.NextBool(0.8)) {
        name = names[rng.NextBelow(names.size())];
      }
      const std::string line = "entry " + name + "\n";
      if (rng.NextBool(0.5)) {
        text += line;
      } else {
        text.insert(At(rng, text), "\n" + line);
      }
      break;
    }
    case 4: {
      const auto quoted = QuotedPositions(text);
      const std::size_t at = !quoted.empty() && rng.NextBool(0.5)
                                 ? quoted[rng.NextBelow(quoted.size())]
                                 : At(rng, text);
      text.insert(at, 1, '\n');
      break;
    }
    case 5:
      text.insert(At(rng, text), 1,
                  rng.NextBool(0.3)
                      ? '\0'
                      : static_cast<char>(0x80 + rng.NextBelow(0x80)));
      break;
    default:
      if (!text.empty()) {
        text[rng.NextBelow(text.size())] =
            rng.NextBool(0.3) ? '\0'
                              : static_cast<char>(0x80 + rng.NextBelow(0x80));
      }
      break;
  }
}

int LineCount(const std::string& text) {
  return 1 + static_cast<int>(std::count(text.begin(), text.end(), '\n'));
}

/// True when 1-based `line`:`col` names a byte of `text`, or the end of
/// that line.
bool InsideText(const std::string& text, int line, int col) {
  std::size_t start = 0;
  for (int l = 1; l < line; ++l) {
    start = text.find('\n', start);
    if (start == std::string::npos) return false;
    ++start;
  }
  const auto end = std::min(text.find('\n', start), text.size());
  return col >= 1 && static_cast<std::size_t>(col) <= end - start + 1;
}

struct Tally {
  int built = 0;
  int rejected = 0;
};

/// Runs every property over one input.
void CheckConfig(const std::string& text, Tally& tally) {
  SCOPED_TRACE(::testing::PrintToString(text));
  const int lines = LineCount(text);

  dataplane::GraphDiag diag;
  const auto graph = MboxGraph::Build(text, {}, &diag);
  if (graph == nullptr) {
    ++tally.rejected;
    EXPECT_FALSE(diag.message.empty());
    if (diag.line != 0) {
      EXPECT_TRUE(InsideText(text, diag.line, diag.col)) << diag.ToString();
    }
  } else {
    ++tally.built;
    EXPECT_EQ(graph->config_text(), text);
    ASSERT_EQ(graph->declarations().size(), graph->elements().size());
    for (std::size_t i = 0; i < graph->elements().size(); ++i) {
      const auto& name = graph->elements()[i]->name();
      const auto& decl = graph->declarations()[i];
      ASSERT_LE(decl.begin, decl.end);
      ASSERT_LE(decl.end, text.size());
      EXPECT_EQ(decl.line,
                1 + std::count(text.begin(),
                               text.begin() +
                                   static_cast<std::ptrdiff_t>(decl.begin),
                               '\n'))
          << name;
      ASSERT_TRUE(InsideText(text, decl.line, decl.col)) << name;
      EXPECT_EQ(graph->StatementOf(decl).substr(
                    static_cast<std::size_t>(decl.col - 1), name.size()),
                name);
    }
  }

  verify::Report report;
  EXPECT_EQ(verify::LintGraphConfig(text, {}, "fuzz", report),
            graph != nullptr);
  for (const auto& f : report.findings()) {
    // G0xx positions index the config; the R0xx lint of an inline
    // ruleset counts lines of the rules value, which lies inside it.
    EXPECT_GE(f.line, 0) << f.ToString();
    EXPECT_LE(f.line, lines) << f.ToString();
    if (f.code[0] == 'G' && f.line != 0) {
      EXPECT_TRUE(InsideText(text, f.line, f.col)) << f.ToString();
    }
  }

  policy::Posture posture;
  posture.umbox_config = text;
  verify::GuardEvaluator crowd({}, {kBlockRule});
  const GuardStrength with_crowd = crowd.Strength(posture);

  if (graph == nullptr) {
    // Nothing launches, so the crowd rules guard nothing either.
    EXPECT_EQ(with_crowd, GuardStrength::kNone);
    return;
  }
  const std::string spliced =
      dataplane::SpliceCrowdMatcher(text, {kBlockRule});
  dataplane::GraphDiag spliced_diag;
  const auto spliced_graph = MboxGraph::Build(spliced, {}, &spliced_diag);
  ASSERT_NE(spliced_graph, nullptr) << spliced_diag.ToString() << "\n"
                                    << spliced;
  EXPECT_EQ(spliced_graph->elements().size(), graph->elements().size() + 1);
  ASSERT_EQ(spliced_graph->entry()->name(), dataplane::kCrowdElement);
  ASSERT_FALSE(spliced_graph->entry()->wires().empty());
  EXPECT_EQ(spliced_graph->entry()->wires()[0].next,
            spliced_graph->Find(graph->entry()->name()))
      << spliced;
  EXPECT_EQ(with_crowd, GuardStrength::kBlocking);
}

TEST(ClickLiteSeedsTest, EverySeedButTheEmptyOneBuilds) {
  const auto seeds = Seeds();
  ASSERT_FALSE(seeds.back().text.empty()) << "docs/LANGUAGES.md example";
  EXPECT_GE(seeds.size(), 7u + 4u + 1u) << "postures, lint fixtures, doc";
  for (const auto& seed : seeds) {
    if (seed.text.empty()) continue;  // TrustPosture: no µmbox
    std::string error;
    EXPECT_NE(MboxGraph::Build(seed.text, {}, &error), nullptr)
        << seed.origin << ": " << error;
  }
}

class ClickLiteFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ClickLiteFuzzTest, FrontEndSurvivesHostileConfigs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto seeds = Seeds();
  Tally tally;
  for (int iter = 0; iter < 2000; ++iter) {
    const Seed& seed = seeds[rng.NextBelow(seeds.size())];
    const auto names = DeclaredNames(seed.text);
    std::string text = seed.text;
    const int edits = 1 + static_cast<int>(rng.NextBelow(4));
    for (int e = 0; e < edits; ++e) MutateOnce(rng, names, text);
    SCOPED_TRACE(seed.origin);
    CheckConfig(text, tally);
    if (HasFatalFailure()) return;
  }
  // The mutations must leave both outcomes well represented.
  EXPECT_GT(tally.built, 150);
  EXPECT_GT(tally.rejected, 150);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClickLiteFuzzTest,
                         ::testing::Values(3, 17, 29, 41, 53, 67, 79, 97));

}  // namespace
}  // namespace iotsec

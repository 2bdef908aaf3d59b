// µmbox element graphs and the Click-lite config language.
//
// Grammar (one statement per line, '#' comments):
//
//   name :: Type(key=value, key2="quoted, value")   element declaration
//   a -> b -> c                                      wiring chain
//   a [1] -> b                                       from a's output port 1
//   a -> [2] b                                       into b's input port 2
//   entry a                                          packet injection point
//                                                    (default: first element;
//                                                    the last one wins)
//
// Element names are letters, digits and '_'. A double-quoted value may
// span lines: its newlines belong to the value. Nothing may follow a
// declaration's closing ')'. Ports run 0..255.
//
// Packets leaving any unconnected output port exit the graph through the
// egress callback; a port wired to a Discard drops instead.
//
// MboxGraph::Build holds the only parser of this language. Every other
// reader (the graph linter, the model checker's guard analysis, the crowd
// splice) consumes its output: the declarations a built graph keeps, or
// SpliceCrowdMatcher.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dataplane/element.h"

namespace iotsec::dataplane {

/// Parses "key=value, key2="a, quoted value"" into a ConfigMap.
/// Returns nullopt on syntax errors.
std::optional<ConfigMap> ParseConfigArgs(std::string_view args,
                                         std::string* error);

/// A build diagnostic with its source position. `line`/`col` are 1-based
/// into the config text; 0 means "whole config" (e.g. an empty graph).
struct GraphDiag {
  std::string message;
  int line = 0;
  int col = 0;

  /// "line 3:14: unknown element type: Foo" (position omitted when 0).
  [[nodiscard]] std::string ToString() const;
};

/// One element declaration as written, kept by the graph built from it.
/// Offsets index the graph's config_text(); the element holds the name
/// and type.
struct Declaration {
  ConfigMap config;
  std::size_t begin = 0;  // the declaration statement, [begin, end)
  std::size_t end = 0;
  int line = 0;  // 1-based position of the element name
  int col = 0;
};

class MboxGraph {
 public:
  /// Parses and builds a graph. Returns nullptr with *error on failure
  /// (unknown element type, bad config, bad wiring, no elements). The
  /// error string carries the line:col position (GraphDiag::ToString).
  static std::unique_ptr<MboxGraph> Build(std::string_view config_text,
                                          const ElementContext& ctx,
                                          std::string* error);

  /// Same, with the position preserved in structured form for tooling
  /// (the iotsec_lint graph linter threads it into G0xx findings).
  static std::unique_ptr<MboxGraph> Build(std::string_view config_text,
                                          const ElementContext& ctx,
                                          GraphDiag* diag);

  /// Injects a packet into the entry element.
  void Inject(net::PacketPtr pkt);

  /// Packets exiting the graph land here.
  void SetEgress(std::function<void(net::PacketPtr)> egress);
  /// Alerts raised by any element land here.
  void SetAlertSink(std::function<void(Alert)> sink);

  [[nodiscard]] Element* Find(const std::string& name) const;
  /// The packet injection point (never null after a successful Build).
  [[nodiscard]] Element* entry() const { return entry_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Element>>& elements()
      const {
    return elements_;
  }
  [[nodiscard]] const std::string& config_text() const {
    return config_text_;
  }
  /// declarations()[i] declared elements()[i].
  [[nodiscard]] const std::vector<Declaration>& declarations() const {
    return declarations_;
  }
  /// The statement text of one declaration (a view into config_text()).
  [[nodiscard]] std::string_view StatementOf(const Declaration& decl) const {
    return std::string_view(config_text_).substr(decl.begin,
                                                 decl.end - decl.begin);
  }

 private:
  MboxGraph() = default;

  std::vector<std::unique_ptr<Element>> elements_;
  std::vector<Declaration> declarations_;
  Element* entry_ = nullptr;
  std::string config_text_;
};

/// Name of the SignatureMatcher the crowd splice adds to a chain.
inline constexpr std::string_view kCrowdElement = "crowd";

/// The config a µmbox runs once crowd/OTA rules reach it: a SignatureMatcher
/// named kCrowdElement carrying `rule_texts` (one per line, their quotes
/// stripped) is declared ahead of `config`, wired into the chain's entry,
/// and made the entry, whether or not `config` declares its own. Returns
/// `config` unchanged when there are no rules, when it is empty, or when
/// it does not parse (it cannot launch either way).
std::string SpliceCrowdMatcher(std::string_view config,
                               const std::vector<std::string>& rule_texts);

}  // namespace iotsec::dataplane

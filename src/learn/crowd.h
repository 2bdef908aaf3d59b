// Crowd-sourced signature repository (§4.1).
//
// Users who deploy a given device SKU share the attack signatures they
// observe through an anonymous publish/subscribe repository. The three
// §4.1 challenges are implemented, not hand-waved:
//   incentives    - contributors earn priority notification (their
//                   subscriptions are delivered before free-riders');
//   privacy       - an anonymization pass strips contributor identity and
//                   generalizes IP/host observables before anything is
//                   stored or shared;
//   data quality  - per-contributor Beta reputation weights quorum voting;
//                   overbroad rules (the "blocks all traffic" DoS risk)
//                   are rejected at ingest.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "sig/rule.h"

namespace iotsec::learn {

struct SignatureReport {
  std::string sku;          // device SKU the signature applies to
  std::string rule_text;    // Snort-lite rule
  std::string contributor;  // stripped by anonymization before storage
  /// Free-form observables ("src_ip", "site", ...); anonymized.
  std::map<std::string, std::string> observables;
};

enum class SignatureStatus : std::uint8_t {
  kPending,   // published, awaiting quorum
  kAccepted,  // quorum of weighted up-votes
  kRejected,  // quorum of weighted down-votes or ingest validation failure
};

struct SharedSignature {
  std::uint64_t id = 0;
  std::string sku;
  sig::Rule rule;
  SignatureStatus status = SignatureStatus::kPending;
  double up_weight = 0;
  double down_weight = 0;
  /// Anonymized observables (contributor identity removed, IPs
  /// generalized to /16).
  std::map<std::string, std::string> observables;
};

/// Scrubs a report in place: drops the contributor, replaces values that
/// parse as IPv4 addresses with their /16 prefix, and hashes values under
/// keys marked sensitive ("user", "host", "email").
void AnonymizeReport(SignatureReport& report);

class CrowdRepo {
 public:
  struct Config {
    /// Weighted vote mass needed to accept/reject a pending signature.
    /// (Rules with no narrowing predicate at all are always rejected at
    /// ingest.)
    double quorum = 3.0;
  };

  CrowdRepo() = default;
  explicit CrowdRepo(Config config) : config_(config) {}

  using Notification = std::function<void(const SharedSignature&)>;

  /// Registers interest in a SKU. Notifications for newly *accepted*
  /// signatures are delivered contributors-first (the §4.1 incentive).
  void Subscribe(const std::string& sku, const std::string& subscriber,
                 Notification callback);

  struct PublishResult {
    bool accepted_for_review = false;
    std::uint64_t id = 0;
    std::string error;
  };
  /// Validates, anonymizes and stores a report; the contributor's
  /// publication count grows (driving notification priority). A report
  /// whose parsed rule is byte-identical (canonical text) to one already
  /// stored for the same SKU is deduplicated at ingest: the existing id
  /// is returned, nothing new is stored, and no contribution accrues —
  /// republishing the crowd's rule is not a contribution.
  PublishResult Publish(SignatureReport report);

  /// Weighted vote from `voter` on a pending signature. Voter reputation
  /// scales the vote; crossing the quorum flips the status and (on
  /// accept) notifies subscribers.
  bool Vote(std::uint64_t signature_id, const std::string& voter, bool up);

  /// Reputation feedback: after deploying a signature, a user reports
  /// whether it worked (true positive) or misfired; this adjusts the
  /// *original voters'* reputations, Beta-style.
  void ReportOutcome(std::uint64_t signature_id, bool was_correct);

  [[nodiscard]] std::vector<SharedSignature> AcceptedFor(
      const std::string& sku) const;

  [[nodiscard]] const SharedSignature* Find(std::uint64_t id) const;

  /// Beta-reputation mean for a contributor (0.5 for unknown).
  [[nodiscard]] double Reputation(const std::string& who) const;

  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t rejected_at_ingest = 0;
    std::uint64_t duplicates = 0;  // deduplicated at ingest (same SKU+rule)
    std::uint64_t accepted = 0;
    std::uint64_t rejected_by_vote = 0;
    std::uint64_t notifications = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Subscriber {
    std::string name;
    Notification callback;
  };
  struct ReputationState {
    double alpha = 1.0;  // successes + 1
    double beta = 1.0;   // failures + 1
  };
  struct VoteRecord {
    std::string voter;
    bool up = false;
  };

  void NotifyAccepted(const SharedSignature& signature);
  [[nodiscard]] static bool IsOverbroad(const sig::Rule& rule);

  Config config_;
  std::map<std::uint64_t, SharedSignature> signatures_;
  std::map<std::uint64_t, std::vector<VoteRecord>> votes_;
  std::map<std::string, std::vector<Subscriber>> subscribers_;  // by sku
  std::map<std::string, ReputationState> reputation_;
  std::map<std::string, std::uint64_t> contributions_;  // by subscriber name
  /// Ingest dedupe index: hash of (sku, canonical rule text) -> first id.
  std::map<std::uint64_t, std::uint64_t> content_index_;
  std::uint64_t next_id_ = 1;
  Stats stats_;
};

}  // namespace iotsec::learn

// Curated IoT signature corpus.
//
// One signature per vulnerability class of Table 1, written in the
// Snort-lite rule language. These are the rules the crowd-sourced
// repository (§4.1) distributes and the SignatureMatcher µmboxes load.
#pragma once

#include <string_view>
#include <vector>

#include "sig/rule.h"

namespace iotsec::sig {

/// Stable sids for the built-in corpus.
enum BuiltinSid : std::uint32_t {
  kSidDefaultPasswordLogin = 1001,  // Basic auth with a known default cred
  kSidHttpAuthMissing = 1002,       // management access with no credentials
  kSidIotBackdoor = 1003,           // IoTCtl backdoor channel use
  kSidDnsAmplification = 1004,      // DNS ANY query (open-resolver abuse)
  kSidFirmwareKeyExfil = 1005,      // RSA private-key material in payload
  kSidTrafficLightNoAuth = 1006,    // unauthenticated signal change
  kSidUnauthActuation = 1007,       // IoTCtl command with no auth token
  kSidTelnetDefaultCreds = 1008,    // "admin/admin" style logins in stream
};

/// The corpus as rule-language text (parsable by ParseRules): a view of
/// one static literal, so it costs no copy and its bytes never change.
std::string_view BuiltinRulesText();

/// The corpus parsed; aborts the process if the built-in text is invalid
/// (that would be a programming error, covered by tests).
std::vector<Rule> BuiltinRules();

}  // namespace iotsec::sig

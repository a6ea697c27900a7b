// Reading protocol replies without a full parse, and the reference
// renderings they are compared against byte for byte.

#ifndef PERFBENCH_REPLIES_H_
#define PERFBENCH_REPLIES_H_

#include <string>
#include <string_view>

#include "core/config.h"
#include "schema/schema.h"
#include "thesaurus/thesaurus.h"

namespace perfbench {

/// The `"leaf_mapping":{...},"nonleaf_mapping":{...}` part of a match
/// reply, push frame or MatchResponse::ToJson; empty if absent.
std::string_view MappingSection(std::string_view json);

/// The `"hits":[...]` part of a search reply or SearchResponse::ToJson.
std::string_view HitsSection(std::string_view json);

/// Scalar after the first `"key":` (the reply header precedes the
/// mappings, so the first occurrence is the header field).
bool FieldBool(std::string_view json, std::string_view key);
double FieldNumber(std::string_view json, std::string_view key,
                   double fallback = -1);

/// MappingSection of CupidMatcher::Match(source, target) under the
/// server's default request configuration (no "config": one thread per
/// match), rendered exactly as the server renders a response. Empty with
/// `error` set if the match fails.
std::string ReferenceMappings(const cupid::Thesaurus& thesaurus,
                              const cupid::Schema& source,
                              const cupid::Schema& target, std::string* error);

/// The configuration the server applies to requests without "config".
cupid::CupidConfig DefaultRequestConfig();

}  // namespace perfbench

#endif  // PERFBENCH_REPLIES_H_

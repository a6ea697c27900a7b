#include "replies.h"

#include <cstdlib>

#include "core/cupid_matcher.h"
#include "service/match_service.h"

namespace perfbench {

namespace {

/// Index one past the JSON object or array that opens at `open`; npos if
/// unterminated.
size_t SkipComposite(std::string_view s, size_t open) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = open; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string_view::npos;
}

/// Start of the value after the first `"key":`, or npos.
size_t ValueStart(std::string_view json, std::string_view key) {
  std::string pattern = "\"" + std::string(key) + "\":";
  size_t pos = json.find(pattern);
  return pos == std::string_view::npos ? pos : pos + pattern.size();
}

}  // namespace

std::string_view MappingSection(std::string_view json) {
  size_t begin = json.find("\"leaf_mapping\":");
  size_t nonleaf = ValueStart(json, "nonleaf_mapping");
  if (begin == std::string_view::npos || nonleaf == std::string_view::npos) {
    return {};
  }
  size_t end = SkipComposite(json, nonleaf);
  if (end == std::string_view::npos) return {};
  return json.substr(begin, end - begin);
}

std::string_view HitsSection(std::string_view json) {
  size_t value = ValueStart(json, "hits");
  if (value == std::string_view::npos) return {};
  size_t end = SkipComposite(json, value);
  if (end == std::string_view::npos) return {};
  size_t begin = value - std::string_view("\"hits\":").size();
  return json.substr(begin, end - begin);
}

bool FieldBool(std::string_view json, std::string_view key) {
  size_t value = ValueStart(json, key);
  return value != std::string_view::npos &&
         json.substr(value, 4) == std::string_view("true");
}

double FieldNumber(std::string_view json, std::string_view key,
                   double fallback) {
  size_t value = ValueStart(json, key);
  if (value == std::string_view::npos) return fallback;
  std::string token(json.substr(value, 32));
  char* end = nullptr;
  double parsed = std::strtod(token.c_str(), &end);
  return end == token.c_str() ? fallback : parsed;
}

cupid::CupidConfig DefaultRequestConfig() {
  cupid::CupidConfig config;
  config.SetNumThreads(1);
  return config;
}

std::string ReferenceMappings(const cupid::Thesaurus& thesaurus,
                              const cupid::Schema& source,
                              const cupid::Schema& target, std::string* error) {
  cupid::CupidMatcher matcher(&thesaurus, DefaultRequestConfig());
  auto result = matcher.Match(source, target);
  if (!result.ok()) {
    *error = result.status().ToString();
    return "";
  }
  cupid::MatchResponse response;
  response.leaf_mapping = std::move(result->leaf_mapping);
  response.nonleaf_mapping = std::move(result->nonleaf_mapping);
  return std::string(MappingSection(response.ToJson(true)));
}

}  // namespace perfbench

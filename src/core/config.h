// CupidConfig — every tunable of the algorithm in one place, defaulted to
// the "typical values" of Table 1 of the paper.

#ifndef CUPID_CORE_CONFIG_H_
#define CUPID_CORE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "linguistic/linguistic_matcher.h"
#include "mapping/mapping_generator.h"
#include "structural/tree_match.h"
#include "tree/tree_builder.h"
#include "util/status.h"

namespace cupid {

/// A user-supplied hint that two elements correspond (Section 8.4 "Initial
/// mappings"). Paths are dotted containment paths in the respective schemas.
struct InitialMappingEntry {
  std::string source_path;
  std::string target_path;
};

/// A set of hints; the result map of a previous run, possibly corrected by
/// the user, can be fed back through this.
using InitialMapping = std::vector<InitialMappingEntry>;

/// Full configuration of a Cupid match run.
struct CupidConfig {
  LinguisticOptions linguistic;
  TreeBuildOptions tree_build;
  TreeMatchOptions tree_match;
  MappingGeneratorOptions mapping;
  TypeCompatibilityTable type_compatibility =
      TypeCompatibilityTable::Default();
  /// lsim assigned to pairs named in an initial mapping ("initialized to a
  /// predefined maximum value", Section 8.4).
  double initial_mapping_boost = 1.0;

  /// \brief Does nothing: every match runs on the calling thread. Kept
  /// only so existing callers still compile; do not add new ones.
  void SetNumThreads(int /*n*/) {}

  /// \brief Range-checks every parameter; keeps Table 1's ordering
  /// constraints (th_low <= th_accept <= th_high).
  Status Validate() const;
};

/// \brief Renders the Table 1 parameters of `config` as an aligned text
/// table (used by bench_table1_parameters and diagnostics).
std::string DescribeParameters(const CupidConfig& config);

/// \brief Stable 64-bit digest of every result-affecting tunable (all
/// thresholds, weights, flags, the type-compatibility table, cardinality
/// and scope). Two configs with equal fingerprints produce identical match
/// results on identical inputs, so the fingerprint is a safe result-cache
/// key component (service/match_service.h).
uint64_t ConfigFingerprint(const CupidConfig& config);

}  // namespace cupid

#endif  // CUPID_CORE_CONFIG_H_

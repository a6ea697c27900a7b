// Shared helpers of the differential test harnesses (tests/incremental_test.cc,
// tests/property_test.cc, tests/structural_test.cc, tests/perf_test.cc): a
// from-scratch match whose linguistic phase is the naive oracle, bitwise
// comparison of a MatchSession result against a from-scratch run, bitwise
// comparison of a structural phase against the full-grid reference sweep,
// and a seeded random schema-edit generator covering every supported edit
// kind.

#ifndef CUPID_TESTS_MATCH_DIFF_TESTUTIL_H_
#define CUPID_TESTS_MATCH_DIFF_TESTUTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/cupid_matcher.h"
#include "incremental/schema_edit.h"
#include "linguistic/linguistic_matcher.h"
#include "structural/tree_match.h"
#include "tree/tree_builder.h"
#include "util/random.h"

namespace cupid {

/// A from-scratch match of `source` against `target` whose linguistic phase
/// is the naive LinguisticMatchReference (no interning, memo or cache) and
/// whose later phases are the library's: the oracle the cached, cold and
/// incremental pipelines must equal bit for bit.
inline Result<MatchResult> ReferenceMatch(const Thesaurus* thesaurus,
                                          const CupidConfig& config,
                                          const Schema& source,
                                          const Schema& target) {
  CUPID_ASSIGN_OR_RETURN(
      LinguisticResult lres,
      LinguisticMatchReference(thesaurus, config.linguistic, source, target));
  CUPID_ASSIGN_OR_RETURN(SchemaTree source_tree,
                         BuildSchemaTree(source, config.tree_build));
  CUPID_ASSIGN_OR_RETURN(SchemaTree target_tree,
                         BuildSchemaTree(target, config.tree_build));
  CUPID_ASSIGN_OR_RETURN(
      TreeMatchResult tm,
      TreeMatch(source_tree, target_tree, lres.lsim,
                config.type_compatibility, config.tree_match));
  CUPID_RETURN_NOT_OK(RecomputeNonLeafSimilarities(
      source_tree, target_tree, config.tree_match, &tm));
  Mapping leaf, nonleaf;
  CUPID_RETURN_NOT_OK(GenerateStandardMappings(source_tree, target_tree, tm,
                                               config, &leaf, &nonleaf));
  return MatchResult{std::move(source_tree), std::move(target_tree),
                     std::move(lres),        std::move(tm),
                     std::move(leaf),        std::move(nonleaf)};
}

/// Bitwise comparison of a session result against a from-scratch run:
/// element lsim, all three node-similarity matrices, and both mappings,
/// value for value. Returns on the first mismatch to keep failure output
/// readable.
inline void ExpectIdenticalResults(const MatchResult& inc,
                                   const MatchResult& ref,
                                   const std::string& context) {
  ASSERT_EQ(inc.linguistic.lsim.rows(), ref.linguistic.lsim.rows()) << context;
  ASSERT_EQ(inc.linguistic.lsim.cols(), ref.linguistic.lsim.cols()) << context;
  for (int64_t i = 0; i < inc.linguistic.lsim.rows(); ++i) {
    for (int64_t j = 0; j < inc.linguistic.lsim.cols(); ++j) {
      ASSERT_EQ(inc.linguistic.lsim(i, j), ref.linguistic.lsim(i, j))
          << context << " element lsim(" << i << "," << j << ")";
    }
  }
  const NodeSimilarities& a = inc.tree_match.sims;
  const NodeSimilarities& b = ref.tree_match.sims;
  ASSERT_EQ(a.source_nodes(), b.source_nodes()) << context;
  ASSERT_EQ(a.target_nodes(), b.target_nodes()) << context;
  for (TreeNodeId s = 0; s < a.source_nodes(); ++s) {
    for (TreeNodeId t = 0; t < a.target_nodes(); ++t) {
      ASSERT_EQ(a.lsim(s, t), b.lsim(s, t))
          << context << " lsim(" << s << "," << t << ")";
      ASSERT_EQ(a.ssim(s, t), b.ssim(s, t))
          << context << " ssim(" << s << "," << t << ") "
          << inc.source_tree.PathName(s) << " / "
          << inc.target_tree.PathName(t);
      ASSERT_EQ(a.wsim(s, t), b.wsim(s, t))
          << context << " wsim(" << s << "," << t << ") "
          << inc.source_tree.PathName(s) << " / "
          << inc.target_tree.PathName(t);
    }
  }
  auto expect_mapping = [&](const Mapping& m1, const Mapping& m2,
                            const char* which) {
    ASSERT_EQ(m1.size(), m2.size()) << context << " " << which;
    for (size_t i = 0; i < m1.size(); ++i) {
      ASSERT_EQ(m1.elements[i].source_path, m2.elements[i].source_path)
          << context << " " << which << "[" << i << "]";
      ASSERT_EQ(m1.elements[i].target_path, m2.elements[i].target_path)
          << context << " " << which << "[" << i << "]";
      ASSERT_EQ(m1.elements[i].wsim, m2.elements[i].wsim)
          << context << " " << which << "[" << i << "]";
      ASSERT_EQ(m1.elements[i].ssim, m2.elements[i].ssim)
          << context << " " << which << "[" << i << "]";
      ASSERT_EQ(m1.elements[i].lsim, m2.elements[i].lsim)
          << context << " " << which << "[" << i << "]";
    }
  };
  expect_mapping(inc.leaf_mapping, ref.leaf_mapping, "leaf mapping");
  expect_mapping(inc.nonleaf_mapping, ref.nonleaf_mapping,
                 "nonleaf mapping");
}

/// Bitwise comparison of two structural results: the lsim/ssim/wsim node
/// matrices and the feedback events in firing order. Returns on the first mismatch.
inline void ExpectIdenticalStructural(const TreeMatchResult& got,
                                      const TreeMatchResult& want,
                                      const std::string& context) {
  const NodeSimilarities& a = got.sims;
  const NodeSimilarities& b = want.sims;
  ASSERT_EQ(a.source_nodes(), b.source_nodes()) << context;
  ASSERT_EQ(a.target_nodes(), b.target_nodes()) << context;
  for (TreeNodeId s = 0; s < a.source_nodes(); ++s) {
    for (TreeNodeId t = 0; t < a.target_nodes(); ++t) {
      ASSERT_EQ(a.lsim(s, t), b.lsim(s, t))
          << context << " lsim(" << s << "," << t << ")";
      ASSERT_EQ(a.ssim(s, t), b.ssim(s, t))
          << context << " ssim(" << s << "," << t << ")";
      ASSERT_EQ(a.wsim(s, t), b.wsim(s, t))
          << context << " wsim(" << s << "," << t << ")";
    }
  }
  ASSERT_EQ(got.events.size(), want.events.size()) << context << " events";
  for (size_t i = 0; i < got.events.size(); ++i) {
    ASSERT_EQ(got.events[i].source, want.events[i].source)
        << context << " events[" << i << "]";
    ASSERT_EQ(got.events[i].target, want.events[i].target)
        << context << " events[" << i << "]";
    ASSERT_EQ(got.events[i].direction, want.events[i].direction)
        << context << " events[" << i << "]";
  }
}

/// The structural phase of `result` must equal the full-grid reference
/// sweep and recompute run on the same trees and linguistic similarities.
inline void ExpectMatchesReferenceSweep(const MatchResult& result,
                                        const CupidConfig& config,
                                        const std::string& context) {
  auto ref = TreeMatchReference(result.source_tree, result.target_tree,
                                result.linguistic.lsim,
                                config.type_compatibility, config.tree_match);
  ASSERT_TRUE(ref.ok()) << context << ": " << ref.status().ToString();
  ASSERT_TRUE(RecomputeNonLeafSimilaritiesReference(
                  result.source_tree, result.target_tree, config.tree_match,
                  &*ref)
                  .ok())
      << context;
  ExpectIdenticalStructural(result.tree_match, *ref,
                            context + " (vs reference sweep)");
}

/// A random edit over the current schemas: every kind is exercised,
/// including renames onto vocabulary words (thesaurus hits), type drift,
/// fresh subtrees, and removals.
inline SchemaEdit RandomSessionEdit(SplitMix64* rng, const Schema& source,
                                    const Schema& target, int counter) {
  EditSide side = rng->NextBounded(2) == 0 ? EditSide::kSource
                                           : EditSide::kTarget;
  const Schema& schema = side == EditSide::kSource ? source : target;
  auto random_element = [&](bool allow_root) {
    // Root is id 0; non-root elements start at 1 (if any exist).
    if (schema.num_elements() <= 1) {
      return allow_root ? ElementId{0} : kNoElement;
    }
    return allow_root
               ? static_cast<ElementId>(rng->NextBounded(
                     static_cast<uint64_t>(schema.num_elements())))
               : static_cast<ElementId>(
                     1 + rng->NextBounded(
                             static_cast<uint64_t>(schema.num_elements() - 1)));
  };
  static const char* kNames[] = {"Qty",        "CustomerNumber", "UnitPrice",
                                 "ShipToCity", "OrderDate",      "Amount",
                                 "ContactPhone", "PostalCode"};
  static const DataType kTypes[] = {DataType::kString,  DataType::kInteger,
                                    DataType::kDecimal, DataType::kMoney,
                                    DataType::kDate,    DataType::kBoolean};
  switch (rng->NextBounded(4)) {
    case 0: {  // rename: occasionally onto a vocabulary name (collisions OK)
      ElementId id = random_element(/*allow_root=*/false);
      if (id == kNoElement || schema.FindByPath(schema.PathName(id)) != id) {
        break;  // path-ambiguous element (duplicate sibling names): skip
      }
      std::string name =
          rng->NextBernoulli(0.5)
              ? std::string(kNames[rng->NextBounded(8)])
              : schema.element(id).name + "X" + std::to_string(counter);
      return SchemaEdit::RenameElement(side, schema.PathName(id),
                                       std::move(name));
    }
    case 1: {  // retype a random element
      ElementId id = random_element(/*allow_root=*/false);
      if (id == kNoElement || schema.FindByPath(schema.PathName(id)) != id) {
        break;
      }
      return SchemaEdit::ChangeDataType(side, schema.PathName(id),
                                        kTypes[rng->NextBounded(6)]);
    }
    case 2: {  // add a leaf under a random element (leaves become containers)
      ElementId parent = random_element(/*allow_root=*/true);
      if (schema.FindByPath(schema.PathName(parent)) != parent) break;
      Element leaf;
      leaf.name = std::string(kNames[rng->NextBounded(8)]) +
                  std::to_string(counter);
      leaf.kind = ElementKind::kAtomic;
      leaf.data_type = kTypes[rng->NextBounded(6)];
      leaf.optional = rng->NextBernoulli(0.3);
      return SchemaEdit::AddElement(side, schema.PathName(parent),
                                    std::move(leaf));
    }
    default: {  // remove a random subtree (keep schemas from emptying out)
      if (schema.num_elements() > 10) {
        ElementId id = random_element(/*allow_root=*/false);
        if (schema.FindByPath(schema.PathName(id)) != id) break;
        return SchemaEdit::RemoveElement(side, schema.PathName(id));
      }
      break;
    }
  }
  // Fallback: benign rename of the root (dirties everything — also a case
  // worth covering).
  return SchemaEdit::RenameElement(side, schema.PathName(0),
                                   schema.name() + "R");
}

}  // namespace cupid

#endif  // CUPID_TESTS_MATCH_DIFF_TESTUTIL_H_

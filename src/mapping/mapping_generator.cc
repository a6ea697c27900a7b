#include "mapping/mapping_generator.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

namespace cupid {

namespace {

bool InScope(const SchemaTree& tree, TreeNodeId n, MappingScope scope) {
  switch (scope) {
    case MappingScope::kLeaves:
      return tree.IsLeaf(n);
    case MappingScope::kNonLeaves:
      return !tree.IsLeaf(n);
    case MappingScope::kAll:
      return true;
  }
  return false;
}

/// Secondary ordering for wsim ties. Saturated similarities (the c_inc cap)
/// can leave several sources tied at the same wsim for one target — e.g.
/// identically-named leaves under two type-substitution contexts. The
/// context disambiguates: prefer the candidate whose *parent pair* has the
/// higher wsim, then the higher lsim.
class CandidateRank {
 public:
  CandidateRank(const SchemaTree& source, const SchemaTree& target,
                const NodeSimilarities& sims)
      : source_(source), target_(target), sims_(sims) {}

  double ParentWsim(TreeNodeId s, TreeNodeId t) const {
    TreeNodeId ps = source_.node(s).parent;
    TreeNodeId pt = target_.node(t).parent;
    if (ps == kNoTreeNode || pt == kNoTreeNode) return 0.0;
    return sims_.wsim(ps, pt);
  }

  /// Ranking key: wsim first, then context (parent-pair wsim), then lsim.
  std::tuple<double, double, double> Key(TreeNodeId s, TreeNodeId t) const {
    return {sims_.wsim(s, t), ParentWsim(s, t), sims_.lsim(s, t)};
  }

  /// True if (s1,t) ranks strictly better than (s2,t).
  bool Better(TreeNodeId s1, TreeNodeId s2, TreeNodeId t) const {
    return Key(s1, t) > Key(s2, t);
  }

 private:
  const SchemaTree& source_;
  const SchemaTree& target_;
  const NodeSimilarities& sims_;
};

MappingElement MakeElement(const SchemaTree& source, const SchemaTree& target,
                           const NodeSimilarities& sims, TreeNodeId s,
                           TreeNodeId t) {
  MappingElement e;
  e.source = s;
  e.target = t;
  e.source_path = source.PathName(s);
  e.target_path = target.PathName(t);
  e.wsim = sims.wsim(s, t);
  e.ssim = sims.ssim(s, t);
  e.lsim = sims.lsim(s, t);
  return e;
}

/// The paper's naive scheme: best acceptable source per target node.
/// Source rows stream in ascending id (sequential wsim reads) while each
/// target keeps its best candidate so far, so every target sees its
/// candidates in the same order as a per-target column scan would and the
/// selected pairs are identical to the naive double loop's.
void GenerateOneToMany(const SchemaTree& source, const SchemaTree& target,
                       const NodeSimilarities& sims,
                       const MappingGeneratorOptions& opt, Mapping* out) {
  CandidateRank rank(source, target, sims);
  std::vector<TreeNodeId> tgts;
  for (TreeNodeId t = 0; t < target.num_nodes(); ++t) {
    if (InScope(target, t, opt.scope)) tgts.push_back(t);
  }
  std::vector<TreeNodeId> best(tgts.size(), kNoTreeNode);
  for (TreeNodeId s = 0; s < source.num_nodes(); ++s) {
    if (!InScope(source, s, opt.scope)) continue;
    const float* wsim_row = sims.wsim_matrix().row(s);
    for (size_t ti = 0; ti < tgts.size(); ++ti) {
      if (static_cast<double>(wsim_row[tgts[ti]]) < opt.th_accept) continue;
      if (best[ti] == kNoTreeNode || rank.Better(s, best[ti], tgts[ti])) {
        best[ti] = s;
      }
    }
  }
  out->elements.reserve(tgts.size());
  for (size_t ti = 0; ti < tgts.size(); ++ti) {
    if (best[ti] != kNoTreeNode) {
      out->elements.push_back(
          MakeElement(source, target, sims, best[ti], tgts[ti]));
    }
  }
}

void GenerateOneToOneGreedy(const SchemaTree& source, const SchemaTree& target,
                            const NodeSimilarities& sims,
                            const MappingGeneratorOptions& opt, Mapping* out) {
  struct Candidate {
    TreeNodeId s, t;
    double wsim;
  };
  CandidateRank rank(source, target, sims);
  std::vector<Candidate> candidates;
  for (TreeNodeId s = 0; s < source.num_nodes(); ++s) {
    if (!InScope(source, s, opt.scope)) continue;
    for (TreeNodeId t = 0; t < target.num_nodes(); ++t) {
      if (!InScope(target, t, opt.scope)) continue;
      double w = sims.wsim(s, t);
      if (w >= opt.th_accept) candidates.push_back({s, t, w});
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](const Candidate& a, const Candidate& b) {
                     return std::make_pair(a.wsim,
                                           rank.ParentWsim(a.s, a.t)) >
                            std::make_pair(b.wsim,
                                           rank.ParentWsim(b.s, b.t));
                   });
  std::vector<bool> used_s(static_cast<size_t>(source.num_nodes()), false);
  std::vector<bool> used_t(static_cast<size_t>(target.num_nodes()), false);
  for (const Candidate& c : candidates) {
    if (used_s[static_cast<size_t>(c.s)] || used_t[static_cast<size_t>(c.t)]) {
      continue;
    }
    used_s[static_cast<size_t>(c.s)] = used_t[static_cast<size_t>(c.t)] = true;
    out->elements.push_back(MakeElement(source, target, sims, c.s, c.t));
  }
}

/// Gale-Shapley with target nodes proposing; preference = wsim, pairs below
/// th_accept excluded.
void GenerateOneToOneStable(const SchemaTree& source, const SchemaTree& target,
                            const NodeSimilarities& sims,
                            const MappingGeneratorOptions& opt, Mapping* out) {
  std::vector<TreeNodeId> targets, sources;
  for (TreeNodeId t = 0; t < target.num_nodes(); ++t) {
    if (InScope(target, t, opt.scope)) targets.push_back(t);
  }
  for (TreeNodeId s = 0; s < source.num_nodes(); ++s) {
    if (InScope(source, s, opt.scope)) sources.push_back(s);
  }

  // Preference lists for targets: acceptable sources, best (wsim, then
  // context) first.
  CandidateRank rank(source, target, sims);
  std::vector<std::vector<TreeNodeId>> prefs(targets.size());
  // Row-major candidate collection (sequential wsim reads); per-target push
  // order stays ascending source id, so the stable sorts see the same
  // input sequence as a per-target column scan would.
  for (TreeNodeId s : sources) {
    for (size_t ti = 0; ti < targets.size(); ++ti) {
      if (sims.wsim(s, targets[ti]) >= opt.th_accept) {
        prefs[ti].push_back(s);
      }
    }
  }
  for (size_t ti = 0; ti < targets.size(); ++ti) {
    std::stable_sort(prefs[ti].begin(), prefs[ti].end(),
                     [&](TreeNodeId a, TreeNodeId b) {
                       return rank.Better(a, b, targets[ti]);
                     });
  }

  std::vector<size_t> next_proposal(targets.size(), 0);
  // source node -> index into `targets` currently engaged, or npos.
  constexpr size_t kFree = static_cast<size_t>(-1);
  std::vector<size_t> engaged_to(static_cast<size_t>(source.num_nodes()),
                                 kFree);
  std::vector<size_t> queue;
  for (size_t ti = 0; ti < targets.size(); ++ti) queue.push_back(ti);

  while (!queue.empty()) {
    size_t ti = queue.back();
    queue.pop_back();
    while (next_proposal[ti] < prefs[ti].size()) {
      TreeNodeId s = prefs[ti][next_proposal[ti]++];
      size_t current = engaged_to[static_cast<size_t>(s)];
      if (current == kFree) {
        engaged_to[static_cast<size_t>(s)] = ti;
        break;
      }
      if (sims.wsim(s, targets[ti]) > sims.wsim(s, targets[current])) {
        engaged_to[static_cast<size_t>(s)] = ti;
        queue.push_back(current);  // displaced target proposes again
        break;
      }
    }
  }

  for (TreeNodeId s : sources) {
    size_t ti = engaged_to[static_cast<size_t>(s)];
    if (ti != kFree) {
      out->elements.push_back(
          MakeElement(source, target, sims, s, targets[ti]));
    }
  }
  std::stable_sort(out->elements.begin(), out->elements.end(),
                   [](const MappingElement& a, const MappingElement& b) {
                     return a.target < b.target;
                   });
}

}  // namespace

Result<Mapping> GenerateMapping(const SchemaTree& source,
                                const SchemaTree& target,
                                const TreeMatchResult& result,
                                const MappingGeneratorOptions& options) {
  if (options.th_accept < 0.0 || options.th_accept > 1.0) {
    return Status::InvalidArgument("th_accept must be within [0,1]");
  }
  if (result.sims.source_nodes() != source.num_nodes() ||
      result.sims.target_nodes() != target.num_nodes()) {
    return Status::InvalidArgument(
        "similarity matrix does not match the trees");
  }
  Mapping out;
  out.source_schema = source.schema().name();
  out.target_schema = target.schema().name();
  switch (options.cardinality) {
    case MappingCardinality::kOneToMany:
      GenerateOneToMany(source, target, result.sims, options, &out);
      break;
    case MappingCardinality::kOneToOneGreedy:
      GenerateOneToOneGreedy(source, target, result.sims, options, &out);
      break;
    case MappingCardinality::kOneToOneStable:
      GenerateOneToOneStable(source, target, result.sims, options, &out);
      break;
  }
  return out;
}

}  // namespace cupid

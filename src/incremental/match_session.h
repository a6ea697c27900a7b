// MatchSession — incremental re-matching over an evolving schema pair.
//
// Section 8.4 of the paper envisions feeding a (possibly corrected)
// previous mapping back into a re-run; the serving pattern behind it is a
// schema repository whose schemas change a few elements at a time. A
// session owns one source/target pair plus its similarity snapshots, and
// reads name-level state (token interner, token-pair memo, name-pair table)
// from an LsimCache: its own, or one shared with other sessions of the same
// source schema (MatchService shares one per source). After each batch of
// edits it recomputes only what those edits dirtied:
//
//   * linguistic phase — name-pair similarities persist in the LsimCache;
//     names no session of the cache has seen miss, everything else is a
//     table read;
//   * structural phase — TreeMatch warm-starts from the previous run's
//     similarity snapshots, handed over as a TreeMatchPast
//     (structural/tree_match.h), via a node correspondence and a dirty
//     leaf-pair bitset it builds itself;
//   * mapping generation — always re-derived (cheap, similarity-driven).
//
// Rematch runs the pipeline of CupidMatcher::Match (core/match_pipeline.h)
// with the previous run as its past.
//
// Rematch() output is bit-identical to a from-scratch CupidMatcher::Match
// on the session's current schemas (asserted by tests/incremental_test.cc
// and bench/bench_incremental.cc). Configurations outside the warm-start
// subset (see SupportsIncrementalTreeMatch), and trees with join-view /
// view augmentation nodes, fall back to a full recompute — still correct,
// just not faster.
//
// Quickstart:
//
//     MatchSession session(&thesaurus, std::move(po), std::move(order));
//     CUPID_ASSIGN_OR_RETURN(const MatchResult* r0, session.Rematch());
//     session.ApplyEdit(SchemaEdit::RenameElement(
//         EditSide::kSource, "PO.POLines.Item.Qty", "Quantity"));
//     CUPID_ASSIGN_OR_RETURN(const MatchResult* r1, session.Rematch());

#ifndef CUPID_INCREMENTAL_MATCH_SESSION_H_
#define CUPID_INCREMENTAL_MATCH_SESSION_H_

#include <memory>
#include <vector>

#include "core/match_pipeline.h"
#include "incremental/schema_edit.h"
#include "linguistic/lsim_cache.h"

namespace cupid {

/// How the last Rematch ran (diagnostics; drives bench assertions).
struct RematchStats {
  /// The TreeMatch sweep warm-started (TreeMatchStats::warm): false on
  /// the first run, after unsupported configs, and when join views or a
  /// correspondence the sweep cannot replay force the cold sweep.
  bool incremental = false;
  /// TreeMatch stats of the run (sweep + recompute combined). For warm
  /// starts, pairs_reused counts node pairs served from the snapshots.
  TreeMatchStats tree_match;
  /// Cumulative distinct name pairs memoized by the session's LsimCache —
  /// with a shared cache, by every session of that cache.
  int64_t lsim_cached_pairs = 0;
  /// Lsim rows copied from the previous run by the gather: one per source
  /// element whose lsim-relevant features are unchanged (0 on cold runs).
  int64_t lsim_gathered_rows = 0;
};

/// \brief A stateful matching session over one evolving schema pair.
class MatchSession {
 public:
  /// `thesaurus` must outlive the session; the schemas are owned by it.
  /// Name-level state is read and filled through `lsim_cache`, which other
  /// sessions may share: it must be bound to `thesaurus` and to
  /// `config.linguistic`'s name-similarity options (Rematch fails
  /// otherwise), and its side 1 holds source names. Null = a private
  /// cache. Results are bit-identical either way.
  MatchSession(const Thesaurus* thesaurus, Schema source, Schema target,
               CupidConfig config = {},
               std::shared_ptr<LsimCache> lsim_cache = nullptr);
  /// Starts from shared schemas, each with its artifact when one exists
  /// (built under `thesaurus` and `config.tree_build`); the first Rematch
  /// builds the missing ones, and only an edit copies a schema.
  MatchSession(const Thesaurus* thesaurus, MatchSide source, MatchSide target,
               CupidConfig config, std::shared_ptr<LsimCache> lsim_cache);

  MatchSession(const MatchSession&) = delete;
  MatchSession& operator=(const MatchSession&) = delete;

  /// \brief Queues `edit` against the current schemas. Takes effect
  /// immediately on source()/target(); similarity state is refreshed by the
  /// next Rematch().
  Status ApplyEdit(const SchemaEdit& edit);

  /// \brief (Re)matches the current schemas. The returned result is owned
  /// by the session and valid until the next successful Rematch(); it is
  /// bit-identical to CupidMatcher(thesaurus, config).Match(source(),
  /// target()). Serves the cached result if nothing was edited.
  Result<const MatchResult*> Rematch();

  const Schema& source() const;
  const Schema& target() const;
  /// Last Rematch result; null before the first Rematch.
  const MatchResult* last_result() const { return result_.get(); }
  const RematchStats& last_stats() const { return stats_; }
  const CupidConfig& config() const { return config_; }
  /// The artifact of `side`'s last matched schema (before the first
  /// Rematch: the one given, or null).
  const std::shared_ptr<const SchemaArtifact>& artifact(EditSide side) const {
    return side == EditSide::kSource ? source_.artifact : target_.artifact;
  }

 private:
  const Thesaurus* thesaurus_;
  CupidConfig config_;
  std::shared_ptr<LsimCache> lsim_cache_;  // never null

  /// The sides of the last match (before the first: the given ones). Their
  /// artifacts keep the schemas result_ references alive.
  MatchSide source_, target_;
  /// Edited copies not yet matched; null while a side is unedited. Per
  /// element of an edited copy, its id in the side's last matched schema
  /// (or kNoElement if added since), composed from each edit's id map.
  std::shared_ptr<Schema> work_source_, work_target_;
  std::vector<ElementId> work_source_ids_, work_target_ids_;
  /// Last match output plus the snapshot the next warm start seeds from
  /// (result_->tree_match.sims is the *final*, post-recompute state; only
  /// the sweep-stage ssim matrix is consulted across runs, so only it is
  /// kept).
  std::unique_ptr<MatchResult> result_;
  MatchSnapshot snapshot_;
  RematchStats stats_;
};

}  // namespace cupid

#endif  // CUPID_INCREMENTAL_MATCH_SESSION_H_

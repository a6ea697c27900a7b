#include "incremental/match_session.h"

#include <utility>

#include "core/match_pipeline.h"

namespace cupid {

MatchSession::MatchSession(const Thesaurus* thesaurus, Schema source,
                           Schema target, CupidConfig config,
                           std::shared_ptr<LsimCache> lsim_cache)
    : MatchSession(thesaurus,
                   MatchSide{std::make_shared<const Schema>(std::move(source)),
                             nullptr},
                   MatchSide{std::make_shared<const Schema>(std::move(target)),
                             nullptr},
                   std::move(config), std::move(lsim_cache)) {}

MatchSession::MatchSession(const Thesaurus* thesaurus, MatchSide source,
                           MatchSide target, CupidConfig config,
                           std::shared_ptr<LsimCache> lsim_cache)
    : thesaurus_(thesaurus),
      config_(std::move(config)),
      lsim_cache_(lsim_cache != nullptr
                      ? std::move(lsim_cache)
                      : std::make_shared<LsimCache>(thesaurus,
                                                    config_.linguistic)),
      source_(std::move(source)),
      target_(std::move(target)) {}

const Schema& MatchSession::source() const {
  return work_source_ ? *work_source_ : *source_.schema;
}

const Schema& MatchSession::target() const {
  return work_target_ ? *work_target_ : *target_.schema;
}

Status MatchSession::ApplyEdit(const SchemaEdit& edit) {
  // Copy only the edited side: the other keeps its artifact, so Rematch
  // reuses its tree and analysis wholesale.
  const bool src = edit.side == EditSide::kSource;
  std::shared_ptr<Schema>& work = src ? work_source_ : work_target_;
  std::vector<ElementId>& ids = src ? work_source_ids_ : work_target_ids_;
  if (!work) {
    work = std::make_shared<Schema>(src ? source() : target());
    ids.resize(static_cast<size_t>(work->num_elements()));
    for (ElementId e = 0; e < work->num_elements(); ++e) {
      ids[static_cast<size_t>(e)] = e;
    }
  }
  std::vector<ElementId> prior;
  CUPID_RETURN_NOT_OK(ApplySchemaEdit(work.get(), edit, &prior));
  for (ElementId& p : prior) {
    if (p != kNoElement) p = ids[static_cast<size_t>(p)];
  }
  ids = std::move(prior);
  return Status::OK();
}

Result<const MatchResult*> MatchSession::Rematch() {
  if (result_ != nullptr && !work_source_ && !work_target_) {
    return result_.get();  // nothing edited since the last run
  }

  // This run's sides: edited copies (whose artifacts the run builds) where
  // present, otherwise the matched ones. A failed run keeps the edited
  // copies, so it loses no queued edits.
  auto side = [](const std::shared_ptr<Schema>& work, const MatchSide& cur) {
    return work ? MatchSide{work, nullptr} : cur;
  };
  MatchPast past{result_.get(), &snapshot_,
                 work_source_ ? &work_source_ids_ : nullptr,
                 work_target_ ? &work_target_ids_ : nullptr};
  MatchSnapshot snapshot;
  Result<MatchResult> run = RunMatchPipeline(
      thesaurus_, config_, side(work_source_, source_),
      side(work_target_, target_), /*hints=*/{}, lsim_cache_.get(),
      result_ != nullptr ? &past : nullptr, &snapshot, "session.rematch");
  if (!run.ok()) return run.status();

  // Commit. The old result and the artifacts only it used die here.
  result_ = std::make_unique<MatchResult>(std::move(*run));
  snapshot_ = std::move(snapshot);
  source_ = MatchSide{snapshot_.source->schema, snapshot_.source};
  target_ = MatchSide{snapshot_.target->schema, snapshot_.target};
  work_source_.reset();
  work_target_.reset();
  stats_.incremental = snapshot_.warm;
  stats_.tree_match = result_->tree_match.stats;
  stats_.lsim_cached_pairs = lsim_cache_->num_cached_pairs();
  stats_.lsim_gathered_rows = result_->linguistic.gathered_rows;
  return result_.get();
}

}  // namespace cupid

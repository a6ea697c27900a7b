#include "incremental/match_session.h"

#include <utility>

#include "core/match_pipeline.h"

namespace cupid {

MatchSession::MatchSession(const Thesaurus* thesaurus, Schema source,
                           Schema target, CupidConfig config)
    : MatchSession(thesaurus, std::move(source), std::move(target),
                   std::move(config), nullptr) {}

MatchSession::MatchSession(const Thesaurus* thesaurus, Schema source,
                           Schema target, CupidConfig config,
                           std::shared_ptr<LsimCache> lsim_cache)
    : thesaurus_(thesaurus),
      config_(std::move(config)),
      lsim_cache_(lsim_cache != nullptr
                      ? std::move(lsim_cache)
                      : std::make_shared<LsimCache>(thesaurus,
                                                    config_.linguistic)),
      work_source_(std::make_unique<Schema>(std::move(source))),
      work_target_(std::make_unique<Schema>(std::move(target))) {}

const Schema& MatchSession::source() const {
  return work_source_ ? *work_source_ : *cur_source_;
}

const Schema& MatchSession::target() const {
  return work_target_ ? *work_target_ : *cur_target_;
}

void MatchSession::EnsureEditable(EditSide side) {
  // Copy only the edited side: the other schema object stays identical, so
  // Rematch can reuse its tree wholesale.
  if (side == EditSide::kSource) {
    if (!work_source_) work_source_ = std::make_unique<Schema>(*cur_source_);
  } else {
    if (!work_target_) work_target_ = std::make_unique<Schema>(*cur_target_);
  }
}

Status MatchSession::ApplyEdit(const SchemaEdit& edit) {
  EnsureEditable(edit.side);
  Schema* schema = edit.side == EditSide::kSource ? work_source_.get()
                                                  : work_target_.get();
  return ApplySchemaEdit(schema, edit);
}

Result<const MatchResult*> MatchSession::Rematch() {
  if (result_ != nullptr && !work_source_ && !work_target_) {
    return result_.get();  // nothing edited since the last run
  }

  // Adopt this run's schemas: edited copies where present, otherwise the
  // already-matched ones, whose trees the pipeline then reuses. A failed
  // run puts the edited copies back, so it neither loses queued edits nor
  // leaves source()/target() dangling before the first successful run.
  std::unique_ptr<Schema> src_owner = std::move(work_source_);
  std::unique_ptr<Schema> tgt_owner = std::move(work_target_);
  const Schema& s = src_owner ? *src_owner : *cur_source_;
  const Schema& t = tgt_owner ? *tgt_owner : *cur_target_;
  MatchPast past{cur_source_.get(), cur_target_.get(), result_.get(),
                 &sweep_ssim_};
  MatchSnapshot snapshot;
  Result<MatchResult> run = RunMatchPipeline(
      thesaurus_, config_, s, t, /*hints=*/{}, lsim_cache_.get(),
      result_ != nullptr ? &past : nullptr, &snapshot, "session.rematch");
  if (!run.ok()) {
    work_source_ = std::move(src_owner);
    work_target_ = std::move(tgt_owner);
    return run.status();
  }

  // Commit. The old result (and the old schemas it references) die here.
  result_ = std::make_unique<MatchResult>(std::move(*run));
  sweep_ssim_ = std::move(snapshot.sweep_ssim);
  if (src_owner) cur_source_ = std::move(src_owner);
  if (tgt_owner) cur_target_ = std::move(tgt_owner);
  stats_.incremental = snapshot.warm;
  stats_.tree_match = result_->tree_match.stats;
  stats_.lsim_cached_pairs = lsim_cache_->num_cached_pairs();
  stats_.lsim_gathered_rows = result_->linguistic.gathered_rows;
  return result_.get();
}

}  // namespace cupid

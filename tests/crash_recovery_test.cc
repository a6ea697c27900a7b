// Crash-recovery property test: a durable SchemaRepository is crashed at
// EVERY injected filesystem syscall of a scripted 22-mutation stream
// (2 registrations + 20 random edits), then recovered, and the recovered
// state must equal exactly the acknowledged prefix — bit-identical
// schemas, intact edit lineage, and a warm incremental Rematch that is
// value-for-value identical to a from-scratch CupidMatcher run.
//
// This is the kill-point sweep from the LevelDB/RocksDB playbook: if any
// single crash point can lose an acknowledged mutation, resurrect an
// unacknowledged one, or corrupt lineage, some iteration of the sweep
// fails and names the offending syscall index.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/cupid_matcher.h"
#include "eval/datasets.h"
#include "incremental/match_session.h"
#include "schema/schema_printer.h"
#include "service/schema_repository.h"
#include "storage/fault_injection_env.h"
#include "tests/match_diff_testutil.h"
#include "thesaurus/default_thesaurus.h"
#include "util/random.h"

namespace cupid {
namespace {

struct ScriptedMutation {
  bool is_register = false;
  std::string name;
  Schema schema{"unused"};  // registers
  SchemaEdit edit;          // edits
};

struct Script {
  std::vector<ScriptedMutation> mutations;
  /// Per schema: PrintSchema of every version, in prefix order — the
  /// ground truth the recovered repository is compared against.
  std::vector<std::vector<std::string>> prints_after;  // [mutation][version]
};

/// Generates the deterministic mutation stream shared by every sweep
/// iteration: register "src" and "tgt", then `num_edits` random edits that
/// are guaranteed to apply (regenerated until valid against shadows).
Script MakeScript(int num_edits) {
  Script script;
  Schema src = Fig2Po();
  Schema tgt = Fig2PurchaseOrder();
  auto push = [&script](ScriptedMutation m) {
    script.mutations.push_back(std::move(m));
  };
  ScriptedMutation reg_src;
  reg_src.is_register = true;
  reg_src.name = "src";
  reg_src.schema = src;
  push(std::move(reg_src));
  ScriptedMutation reg_tgt;
  reg_tgt.is_register = true;
  reg_tgt.name = "tgt";
  reg_tgt.schema = tgt;
  push(std::move(reg_tgt));

  SplitMix64 rng(0xC0FFEE);
  int counter = 0;
  for (int i = 0; i < num_edits; ++i) {
    for (;;) {
      SchemaEdit edit = RandomSessionEdit(&rng, src, tgt, counter++);
      Schema& shadow = edit.side == EditSide::kSource ? src : tgt;
      Schema applied = shadow;
      if (!ApplySchemaEdit(&applied, edit).ok()) continue;
      shadow = std::move(applied);
      ScriptedMutation m;
      m.name = edit.side == EditSide::kSource ? "src" : "tgt";
      m.edit = std::move(edit);
      push(std::move(m));
      break;
    }
  }

  // Shadow version history per prefix: simply replay and snapshot prints.
  std::vector<std::string> src_prints, tgt_prints;
  Schema src_state = Fig2Po();
  Schema tgt_state = Fig2PurchaseOrder();
  for (const ScriptedMutation& m : script.mutations) {
    if (m.is_register) {
      (m.name == "src" ? src_prints : tgt_prints)
          .push_back(PrintSchema(m.schema));
    } else {
      Schema& state = m.name == "src" ? src_state : tgt_state;
      EXPECT_TRUE(ApplySchemaEdit(&state, m.edit).ok());
      (m.name == "src" ? src_prints : tgt_prints).push_back(PrintSchema(state));
    }
    script.prints_after.push_back({});  // placeholder, filled below
    script.prints_after.back() = src_prints;
    script.prints_after.back().insert(script.prints_after.back().end(),
                                      tgt_prints.begin(), tgt_prints.end());
  }
  return script;
}

/// Versions of `name` in `repo` as PrintSchema strings, v1..latest.
std::vector<std::string> RepoPrints(const SchemaRepository& repo,
                                    const std::string& name) {
  std::vector<std::string> prints;
  for (int v = 1; v <= repo.LatestVersion(name); ++v) {
    auto schema = repo.Get(name, v);
    if (!schema.ok()) {
      ADD_FAILURE() << name << "@" << v << ": " << schema.status().ToString();
      return prints;
    }
    prints.push_back(PrintSchema(**schema));
  }
  return prints;
}

/// Asserts the recovered repository serves a warm incremental Rematch
/// bit-identical to a from-scratch match: a session opened on version 1 of
/// both schemas is fast-forwarded along the *recovered* edit lineage.
void ExpectWarmRematchIdentical(const SchemaRepository& repo,
                                const Thesaurus& thesaurus) {
  int src_latest = repo.LatestVersion("src");
  int tgt_latest = repo.LatestVersion("tgt");
  if (src_latest == 0 || tgt_latest == 0) return;  // crashed before both
  auto src_v1 = repo.Get("src", 1);
  auto tgt_v1 = repo.Get("tgt", 1);
  ASSERT_TRUE(src_v1.ok() && tgt_v1.ok());
  CupidConfig config;
  MatchSession session(&thesaurus, **src_v1, **tgt_v1, config);
  ASSERT_TRUE(session.Rematch().ok());

  auto replay = [&session, &repo](const std::string& name, int latest,
                                  EditSide side) {
    auto chain = repo.EditChain(name, 1, latest);
    ASSERT_TRUE(chain.has_value())
        << name << " lineage 1.." << latest << " lost in recovery";
    for (SchemaEdit edit : *chain) {
      edit.side = side;
      ASSERT_TRUE(session.ApplyEdit(edit).ok());
    }
  };
  replay("src", src_latest, EditSide::kSource);
  replay("tgt", tgt_latest, EditSide::kTarget);

  auto warm = session.Rematch();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  if (src_latest + tgt_latest > 2) {
    EXPECT_TRUE(session.last_stats().incremental);
  }
  // The fast-forwarded session must land on the repository's latest
  // versions (element ids may differ — a snapshot reparse numbers elements
  // in document order — so compare the printed trees, not ids)...
  auto src_now = repo.Get("src");
  auto tgt_now = repo.Get("tgt");
  ASSERT_TRUE(src_now.ok() && tgt_now.ok());
  EXPECT_EQ(PrintSchema(session.source()), PrintSchema(**src_now));
  EXPECT_EQ(PrintSchema(session.target()), PrintSchema(**tgt_now));
  // ...and its warm result must be bit-identical to a from-scratch match.
  CupidMatcher matcher(&thesaurus, config);
  auto ref = matcher.Match(session.source(), session.target());
  ASSERT_TRUE(ref.ok());
  ExpectIdenticalResults(**warm, *ref, "post-recovery warm rematch");
}

/// Runs the script against a fresh durable repository on `env`, stopping
/// at the first failed mutation. Returns the number acknowledged.
int RunScript(const Script& script, FaultInjectionEnv* env,
              int snapshot_every) {
  DurabilityOptions options;
  options.env = env;
  options.snapshot_every_records = snapshot_every;
  auto repo = SchemaRepository::Recover("wal", options);
  if (!repo.ok()) return 0;
  int acked = 0;
  for (const ScriptedMutation& m : script.mutations) {
    Result<int> r = m.is_register ? repo->Register(m.name, m.schema)
                                  : repo->ApplyEdit(m.name, m.edit);
    if (!r.ok()) break;
    ++acked;
  }
  return acked;
}

TEST(CrashRecoveryTest, KillPointSweepRecoversAcknowledgedPrefix) {
  const int kNumEdits = 20;
  const int kSnapshotEvery = 5;  // several compactions inside the stream
  Script script = MakeScript(kNumEdits);
  Thesaurus thesaurus = DefaultThesaurus();

  // Dry run: count the mutating filesystem ops of a fault-free stream;
  // that is the sweep's upper bound.
  FaultInjectionEnv clean_env;
  int total = static_cast<int>(script.mutations.size());
  ASSERT_EQ(RunScript(script, &clean_env, kSnapshotEvery), total);
  const int64_t num_ops = clean_env.mutating_ops();
  // The stream must actually exercise the interesting machinery: WAL
  // appends/syncs plus several snapshot compactions' worth of file ops.
  ASSERT_GT(num_ops, 100) << "fault coverage shrank unexpectedly";
  std::printf("kill-point sweep: crashing at each of %lld mutating ops\n",
              static_cast<long long>(num_ops));

  int64_t verified_points = 0;
  for (int64_t kill_at = 1; kill_at <= num_ops; ++kill_at) {
    FaultInjectionEnv env;
    FaultInjectionEnv::FailPolicy policy;
    policy.fail_after_ops = kill_at;
    policy.crash_on_failure = true;
    env.SetFailPolicy(policy);
    int acked = RunScript(script, &env, kSnapshotEvery);
    env.Heal();

    DurabilityOptions options;
    options.env = &env;
    options.snapshot_every_records = kSnapshotEvery;
    auto recovered = SchemaRepository::Recover("wal", options);
    ASSERT_TRUE(recovered.ok())
        << "kill_at=" << kill_at << ": " << recovered.status().ToString();

    // Exactly the acknowledged prefix: nothing lost, nothing resurrected.
    std::vector<std::string> expected;
    if (acked > 0) expected = script.prints_after[acked - 1];
    std::vector<std::string> got = RepoPrints(*recovered, "src");
    std::vector<std::string> got_tgt = RepoPrints(*recovered, "tgt");
    got.insert(got.end(), got_tgt.begin(), got_tgt.end());
    ASSERT_EQ(got, expected) << "kill_at=" << kill_at << " acked=" << acked;

    // The recovered repository must also be writable again...
    ASSERT_TRUE(recovered
                    ->Register("probe", Fig2Po())
                    .ok())
        << "kill_at=" << kill_at;
    ++verified_points;
  }
  EXPECT_EQ(verified_points, num_ops);

  // Full warm-rematch equivalence at the crash points where it is most
  // interesting (every prefix length shows up somewhere in the sweep; the
  // bitwise session check is costly, so sample the sweep rather than
  // running it at all num_ops points).
  for (int64_t kill_at = 7; kill_at <= num_ops; kill_at += 13) {
    FaultInjectionEnv env;
    FaultInjectionEnv::FailPolicy policy;
    policy.fail_after_ops = kill_at;
    policy.crash_on_failure = true;
    env.SetFailPolicy(policy);
    RunScript(script, &env, kSnapshotEvery);
    env.Heal();
    DurabilityOptions options;
    options.env = &env;
    options.snapshot_every_records = kSnapshotEvery;
    auto recovered = SchemaRepository::Recover("wal", options);
    ASSERT_TRUE(recovered.ok()) << "kill_at=" << kill_at;
    ExpectWarmRematchIdentical(*recovered, thesaurus);
  }

  // And once with no crash at all: the full 22-mutation lineage re-warms.
  auto final_repo = SchemaRepository::Recover("wal", [&] {
    DurabilityOptions options;
    options.env = &clean_env;
    options.snapshot_every_records = kSnapshotEvery;
    return options;
  }());
  ASSERT_TRUE(final_repo.ok());
  EXPECT_EQ(final_repo->LatestVersion("src") + final_repo->LatestVersion("tgt"),
            2 + kNumEdits);
  ExpectWarmRematchIdentical(*final_repo, thesaurus);
}

}  // namespace
}  // namespace cupid

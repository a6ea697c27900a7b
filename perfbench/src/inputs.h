// Workload inputs, generated from the seed before any clock starts: the
// schemas (as the native-format text the client registers, and as the
// parsed schema the server will hold), and the fixed request sequences of
// the set-up and timed phases. The same seed gives the same inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "incremental/schema_edit.h"
#include "schema/schema.h"

namespace perfbench {

enum class Workload { kColdMatch, kEvolve, kCorpusSearch };

/// A timed phase is reported as the median over this many consecutive
/// blocks, and every block holds whole periods of the request stream (each
/// cold_match pair, each evolve pair at every edit kind, each probe equally
/// often), so blocks differ only in when they ran.
constexpr size_t kBlocks = 5;

/// Workload sizes. The defaults are the benchmark; Tiny() is the smoke
/// configuration that checks the benchmark builds and verifies in seconds.
struct Sizes {
  // cold_match
  int cold_sources = 12;
  int cold_targets = 12;
  int cold_elements = 256;
  int cold_warmup = 64;         ///< untimed requests that fill the session LRU
  double cold_per_second = 60;  ///< timed requests per second of --seconds
  // evolve
  int evolve_pairs = 16;
  int evolve_elements = 512;
  double evolve_per_second = 53;  ///< edit steps per second of --seconds
  int evolve_reads_per_step = 3;
  // corpus_search
  int corpus_targets = 100;
  int corpus_probes = 8;
  int corpus_rounds_per_block = 3;  ///< every probe this often per block
  double corpus_per_second = 10;  ///< searches per second of --seconds

  static Sizes Tiny();
};

struct SchemaInput {
  std::string name;    ///< repository name
  std::string text;    ///< native-format text sent in "register"
  cupid::Schema schema{"unset"};  ///< ParseSchemaText(text): what the server holds
};

/// A (source, target) pair of schema indices.
struct PairInput {
  int source = 0;
  int target = 0;
};

/// One evolve step: an edit of one schema of pair `pair`, then cached
/// reads of other pairs.
struct EditStep {
  int pair = 0;
  int schema = 0;           ///< index of the edited schema
  int version_after = 0;    ///< that schema's version once the edit applied
  cupid::SchemaEdit edit;   ///< side = the schema's side in its pair
  std::string line;         ///< the "edit" request
  std::vector<int> reads;   ///< pairs read after the push
};

struct Inputs {
  Workload workload = Workload::kColdMatch;
  std::vector<SchemaInput> schemas;
  std::vector<PairInput> pairs;
  /// cold_match: pair per untimed warm-up request (not result-cached).
  std::vector<int> warmup;
  /// cold_match: pair per timed request; corpus_search: probe per search
  /// (index into `probes`).
  std::vector<int> primary;
  /// evolve: the timed steps (every pair is subscribed in set-up).
  std::vector<EditStep> steps;
  /// corpus_search: schema index of each probe of the fixed set.
  std::vector<int> probes;
};

const char* WorkloadName(Workload w);

/// Builds every input of `workload` from `seed`; the timed-phase length is
/// `seconds` times the workload's nominal rate, rounded to whole blocks, so
/// it is a fixed count for a given --seconds, whatever the program's speed.
Inputs MakeInputs(Workload workload, uint64_t seed, double seconds,
                  const Sizes& sizes);

/// Request lines.
std::string MatchLine(const Inputs& in, int pair, bool use_result_cache);
std::string SearchLine(const Inputs& in, int probe);
std::string RegisterLine(const SchemaInput& schema);
std::string SubscribeLine(const Inputs& in, int pair);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_

#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "eval/synthetic.h"
#include "importers/native_format.h"
#include "importers/schema_io.h"
#include "schema/data_type.h"
#include "util/json.h"
#include "util/random.h"

namespace perfbench {

namespace {

using cupid::SplitMix64;

/// The schemas of every workload come from this constant; --seed draws the
/// request streams over them (order, edit targets, reads, probe order).
/// With seed-drawn schemas, the work per run moved with the corpus a seed
/// happened to draw (peak RSS of corpus_search by 20% across five seeds),
/// which would hide the changes the benchmark exists to show.
constexpr uint64_t kSchemaSeed = 2001;

/// Independent stream per (seed, purpose, index).
uint64_t SubSeed(uint64_t seed, uint64_t purpose, uint64_t index) {
  SplitMix64 mix(seed ^ (purpose * 0x9e3779b97f4a7c15ULL) ^
                 (index * 0xbf58476d1ce4e5b9ULL));
  return mix.Next();
}

template <typename T>
void Shuffle(std::vector<T>* v, SplitMix64* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng->NextBounded(i));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

/// `seconds` x `per_second` requests, rounded to kBlocks blocks of whole
/// `period`s (at least one period per block).
int TimedCount(double seconds, double per_second, int period) {
  const int per_block = static_cast<int>(kBlocks) * period;
  const long blocks = std::lround(seconds * per_second / per_block);
  return per_block * static_cast<int>(std::max(1L, blocks));
}

SchemaInput MakeSchemaInput(const std::string& name, cupid::Schema schema) {
  // The repository stores what the importer makes of the text, so that is
  // the schema every reference computation starts from.
  SchemaInput in;
  in.name = name;
  in.text = cupid::SerializeNativeSchema(schema);
  auto parsed = cupid::ParseSchemaText(cupid::SchemaFormat::kNative, name,
                                       in.text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: generated schema %s does not parse: %s\n",
                 name.c_str(), parsed.status().ToString().c_str());
    std::exit(2);
  }
  in.schema = std::move(parsed).ValueOrDie();
  return in;
}

cupid::SyntheticPair GeneratePair(uint64_t seed, int elements) {
  cupid::SyntheticOptions options;
  options.num_elements = elements;
  options.seed = seed;
  return cupid::GenerateSyntheticPair(options);
}

void MakeColdMatch(uint64_t seed, double seconds, const Sizes& sizes,
                   Inputs* in) {
  // Sources and targets come from distinct generated pairs, so the grid
  // mixes related (i == j) and unrelated schemas.
  const int n = std::max(sizes.cold_sources, sizes.cold_targets);
  std::vector<cupid::SyntheticPair> generated;
  for (int i = 0; i < n; ++i) {
    generated.push_back(
        GeneratePair(SubSeed(kSchemaSeed, 1, i), sizes.cold_elements));
  }
  for (int i = 0; i < sizes.cold_sources; ++i) {
    in->schemas.push_back(MakeSchemaInput("cs" + std::to_string(i),
                                          generated[i].source));
  }
  for (int j = 0; j < sizes.cold_targets; ++j) {
    in->schemas.push_back(MakeSchemaInput("ct" + std::to_string(j),
                                          generated[j].target));
  }
  for (int i = 0; i < sizes.cold_sources; ++i) {
    for (int j = 0; j < sizes.cold_targets; ++j) {
      in->pairs.push_back({i, sizes.cold_sources + j});
    }
  }
  // One fixed cyclic order over all pairs. The cycle is longer than both
  // the result LRU (128) and the session LRU (64), so every timed request
  // misses both.
  SplitMix64 rng(SubSeed(seed, 2, 0));
  std::vector<int> order(in->pairs.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = static_cast<int>(k);
  Shuffle(&order, &rng);
  const int cycle = static_cast<int>(order.size());
  const int timed = TimedCount(seconds, sizes.cold_per_second, cycle);
  // Warm-up: the tail of the cycle, so the sessions it leaves are evicted
  // before the timed phase comes back to them.
  const int warmup = std::min(sizes.cold_warmup, cycle);
  for (int k = cycle - warmup; k < cycle; ++k) in->warmup.push_back(order[k]);
  for (int k = 0; k < timed; ++k) in->primary.push_back(order[k % cycle]);
}

std::vector<cupid::ElementId> ElementsWhere(
    const cupid::Schema& schema, bool (*pred)(const cupid::Schema&,
                                              cupid::ElementId)) {
  std::vector<cupid::ElementId> out;
  for (cupid::ElementId id : schema.AllElements()) {
    if (pred(schema, id)) out.push_back(id);
  }
  return out;
}

/// Edits address elements by path; a path through a duplicated sibling
/// name resolves to the first one, so only elements whose path leads back
/// to themselves are edited.
bool Addressable(const cupid::Schema& s, cupid::ElementId id) {
  return s.FindByPath(s.PathName(id)) == id;
}

bool IsEditableLeaf(const cupid::Schema& s, cupid::ElementId id) {
  return s.element(id).kind == cupid::ElementKind::kAtomic && s.IsLeaf(id) &&
         s.element(id).name.rfind("Added", 0) != 0 && Addressable(s, id);
}

bool IsContainer(const cupid::Schema& s, cupid::ElementId id) {
  cupid::ElementKind k = s.element(id).kind;
  return (k == cupid::ElementKind::kContainer ||
          k == cupid::ElementKind::kRoot) &&
         Addressable(s, id);
}

constexpr cupid::DataType kEditTypes[] = {
    cupid::DataType::kString, cupid::DataType::kInteger,
    cupid::DataType::kDecimal, cupid::DataType::kDate,
    cupid::DataType::kBoolean};
constexpr const char* kRenameWords[] = {"Total", "Amount", "Code",   "Label",
                                        "Status", "Price", "Region", "Note"};

std::string EditLine(const std::string& name, const cupid::SchemaEdit& edit) {
  cupid::JsonWriter w;
  w.BeginObject();
  w.Key("cmd");
  w.String("edit");
  w.Key("name");
  w.String(name);
  w.Key("op");
  switch (edit.kind) {
    case cupid::SchemaEdit::Kind::kRenameElement:
      w.String("rename");
      w.Key("path");
      w.String(edit.path);
      w.Key("to");
      w.String(edit.new_name);
      break;
    case cupid::SchemaEdit::Kind::kChangeDataType:
      w.String("retype");
      w.Key("path");
      w.String(edit.path);
      w.Key("type");
      w.String(cupid::DataTypeName(edit.new_type));
      break;
    case cupid::SchemaEdit::Kind::kAddElement:
      w.String("add");
      w.Key("parent");
      w.String(edit.path);
      w.Key("leaf");
      w.String(edit.element.name);
      w.Key("type");
      w.String(cupid::DataTypeName(edit.element.data_type));
      break;
    case cupid::SchemaEdit::Kind::kRemoveElement:
      w.String("remove");
      w.Key("path");
      w.String(edit.path);
      break;
  }
  w.EndObject();
  return std::move(w).str();
}

void MakeEvolve(uint64_t seed, double seconds, const Sizes& sizes,
                Inputs* in) {
  const int pairs = sizes.evolve_pairs;
  for (int p = 0; p < pairs; ++p) {
    cupid::SyntheticPair g =
        GeneratePair(SubSeed(kSchemaSeed, 3, p), sizes.evolve_elements);
    in->schemas.push_back(MakeSchemaInput("es" + std::to_string(p), g.source));
    in->schemas.push_back(MakeSchemaInput("et" + std::to_string(p), g.target));
    in->pairs.push_back({2 * p, 2 * p + 1});
  }
  // Working copies the generator edits to pick valid paths; version 1 is
  // the registered schema.
  std::vector<cupid::Schema> current;
  std::vector<int> version(in->schemas.size(), 1);
  std::vector<std::string> added_path(in->schemas.size());
  for (const SchemaInput& s : in->schemas) current.push_back(s.schema);

  SplitMix64 rng(SubSeed(seed, 4, 0));
  std::vector<int> order(static_cast<size_t>(pairs));
  for (int p = 0; p < pairs; ++p) order[static_cast<size_t>(p)] = p;
  Shuffle(&order, &rng);

  // One period: every pair through the whole eight-edit cycle.
  const int steps = TimedCount(seconds, sizes.evolve_per_second, pairs * 8);
  for (int k = 0; k < steps; ++k) {
    EditStep step;
    step.pair = order[static_cast<size_t>(k % pairs)];
    // Per pair, a cycle of eight edits: rename, retype, add, remove, each
    // on the source and then the target. The remove takes back the leaf
    // the add made, so schema sizes stay constant.
    const int turn = (k / pairs) % 8;
    const bool target_side = turn % 2 == 1;
    step.schema = target_side ? in->pairs[step.pair].target
                              : in->pairs[step.pair].source;
    const cupid::EditSide side =
        target_side ? cupid::EditSide::kTarget : cupid::EditSide::kSource;
    cupid::Schema& schema = current[static_cast<size_t>(step.schema)];
    std::vector<cupid::ElementId> leaves = ElementsWhere(schema, IsEditableLeaf);
    auto pick = [&rng](const std::vector<cupid::ElementId>& ids) {
      return ids[static_cast<size_t>(rng.NextBounded(ids.size()))];
    };
    switch (turn / 2) {
      case 0: {
        cupid::ElementId leaf = pick(leaves);
        std::string to =
            std::string(kRenameWords[rng.NextBounded(8)]) + std::to_string(k);
        step.edit = cupid::SchemaEdit::RenameElement(
            side, schema.PathName(leaf), to);
        break;
      }
      case 1: {
        cupid::ElementId leaf = pick(leaves);
        cupid::DataType type = schema.element(leaf).data_type;
        cupid::DataType to = type;
        while (to == type) to = kEditTypes[rng.NextBounded(5)];
        step.edit = cupid::SchemaEdit::ChangeDataType(
            side, schema.PathName(leaf), to);
        break;
      }
      case 2: {
        cupid::ElementId parent = pick(ElementsWhere(schema, IsContainer));
        cupid::Element leaf;
        leaf.name = "Added" + std::to_string(k);
        leaf.kind = cupid::ElementKind::kAtomic;
        leaf.data_type = kEditTypes[rng.NextBounded(5)];
        added_path[static_cast<size_t>(step.schema)] =
            schema.PathName(parent) + "." + leaf.name;
        step.edit = cupid::SchemaEdit::AddElement(
            side, schema.PathName(parent), std::move(leaf));
        break;
      }
      default:
        step.edit = cupid::SchemaEdit::RemoveElement(
            side, added_path[static_cast<size_t>(step.schema)]);
        break;
    }
    cupid::Status applied = cupid::ApplySchemaEdit(&schema, step.edit);
    if (!applied.ok()) {
      std::fprintf(stderr, "perfbench: generated edit %d fails: %s\n", k,
                   applied.ToString().c_str());
      std::exit(2);
    }
    step.version_after = ++version[static_cast<size_t>(step.schema)];
    step.line =
        EditLine(in->schemas[static_cast<size_t>(step.schema)].name, step.edit);
    // Reads of other pairs: their latest results are in the result LRU.
    std::vector<int> others;
    for (int p = 0; p < pairs; ++p) {
      if (p != step.pair) others.push_back(p);
    }
    Shuffle(&others, &rng);
    const int reads = std::min<int>(sizes.evolve_reads_per_step,
                                    static_cast<int>(others.size()));
    step.reads.assign(others.begin(), others.begin() + reads);
    in->steps.push_back(std::move(step));
  }
}

void MakeCorpusSearch(uint64_t seed, double seconds, const Sizes& sizes,
                      Inputs* in) {
  cupid::SyntheticCorpusOptions options;
  options.num_targets = sizes.corpus_targets;
  options.seed = SubSeed(kSchemaSeed, 5, 0);
  cupid::SyntheticCorpus corpus = cupid::GenerateSyntheticCorpus(options);
  in->schemas.push_back(MakeSchemaInput("probe", corpus.source));
  for (size_t t = 0; t < corpus.targets.size(); ++t) {
    in->schemas.push_back(MakeSchemaInput(corpus.names[t], corpus.targets[t]));
  }
  // The fixed probe set: the generated probe plus evenly spaced stored
  // schemas.
  const int probes = std::min<int>(sizes.corpus_probes,
                                   static_cast<int>(in->schemas.size()));
  const int stride = std::max(1, sizes.corpus_targets / std::max(1, probes));
  for (int p = 0; p < probes; ++p) in->probes.push_back(p == 0 ? 0 : p * stride);
  // Every probe equally often, in a seeded order: runs on different seeds
  // search the same mix.
  SplitMix64 rng(SubSeed(seed, 6, 0));
  const int searches = TimedCount(seconds, sizes.corpus_per_second,
                                  probes * sizes.corpus_rounds_per_block);
  std::vector<int> round(static_cast<size_t>(probes));
  for (int p = 0; p < probes; ++p) round[static_cast<size_t>(p)] = p;
  for (int k = 0; k < searches; ++k) {
    if (k % probes == 0) Shuffle(&round, &rng);
    in->primary.push_back(round[static_cast<size_t>(k % probes)]);
  }
}

}  // namespace

Sizes Sizes::Tiny() {
  Sizes s;
  // cold_match keeps its 144-pair cycle (it must outrun both LRUs) with
  // small schemas.
  s.cold_elements = 24;
  s.evolve_pairs = 3;
  s.evolve_elements = 60;
  s.evolve_reads_per_step = 2;
  s.corpus_targets = 20;
  s.corpus_probes = 3;
  s.corpus_rounds_per_block = 1;
  return s;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kColdMatch:
      return "cold_match";
    case Workload::kEvolve:
      return "evolve";
    case Workload::kCorpusSearch:
      return "corpus_search";
  }
  return "?";
}

Inputs MakeInputs(Workload workload, uint64_t seed, double seconds,
                  const Sizes& sizes) {
  Inputs in;
  in.workload = workload;
  switch (workload) {
    case Workload::kColdMatch:
      MakeColdMatch(seed, seconds, sizes, &in);
      break;
    case Workload::kEvolve:
      MakeEvolve(seed, seconds, sizes, &in);
      break;
    case Workload::kCorpusSearch:
      MakeCorpusSearch(seed, seconds, sizes, &in);
      break;
  }
  return in;
}

std::string MatchLine(const Inputs& in, int pair, bool use_result_cache) {
  const PairInput& p = in.pairs[static_cast<size_t>(pair)];
  cupid::JsonWriter w;
  w.BeginObject();
  w.Key("cmd");
  w.String("match");
  w.Key("source");
  w.String(in.schemas[static_cast<size_t>(p.source)].name);
  w.Key("target");
  w.String(in.schemas[static_cast<size_t>(p.target)].name);
  if (!use_result_cache) {
    w.Key("use_result_cache");
    w.Bool(false);
  }
  w.EndObject();
  return std::move(w).str();
}

std::string SearchLine(const Inputs& in, int probe) {
  cupid::JsonWriter w;
  w.BeginObject();
  w.Key("cmd");
  w.String("search");
  w.Key("source");
  w.String(in.schemas[static_cast<size_t>(in.probes[static_cast<size_t>(probe)])]
               .name);
  w.EndObject();
  return std::move(w).str();
}

std::string RegisterLine(const SchemaInput& schema) {
  cupid::JsonWriter w;
  w.BeginObject();
  w.Key("cmd");
  w.String("register");
  w.Key("name");
  w.String(schema.name);
  w.Key("format");
  w.String("native");
  w.Key("text");
  w.String(schema.text);
  w.EndObject();
  return std::move(w).str();
}

std::string SubscribeLine(const Inputs& in, int pair) {
  const PairInput& p = in.pairs[static_cast<size_t>(pair)];
  cupid::JsonWriter w;
  w.BeginObject();
  w.Key("cmd");
  w.String("subscribe");
  w.Key("source");
  w.String(in.schemas[static_cast<size_t>(p.source)].name);
  w.Key("target");
  w.String(in.schemas[static_cast<size_t>(p.target)].name);
  w.EndObject();
  return std::move(w).str();
}

}  // namespace perfbench

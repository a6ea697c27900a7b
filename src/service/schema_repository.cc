#include "service/schema_repository.h"

#include <algorithm>

#include "importers/native_format.h"
#include "obs/metrics.h"
#include "schema/schema_printer.h"
#include "storage/edit_codec.h"
#include "util/crc32.h"
#include "util/json.h"
#include "util/strings.h"

namespace cupid {

namespace {

/// Repository names become map keys, session-key components and on-disk
/// filenames; reject anything that could collide or traverse. Control
/// bytes cover the service's '\x1f' session-key separator (reachable via
/// JSONL unicode escapes), separators/dot-names cover SaveTo/LoadFrom
/// paths.
Status ValidateRepositoryName(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("empty schema name");
  if (name == "." || name == "..") {
    return Status::InvalidArgument("invalid schema name: " + name);
  }
  for (char c : name) {
    if (static_cast<unsigned char>(c) < 0x20 || c == '/' || c == '\\') {
      return Status::InvalidArgument(
          "schema name must not contain control characters or path "
          "separators: " +
          name);
    }
  }
  return Status::OK();
}

std::string WalFileName(uint64_t first_seq) {
  return StringFormat("wal-%020llu.log",
                      static_cast<unsigned long long>(first_seq));
}

std::string SnapshotDirName(uint64_t applied_seq) {
  return StringFormat("snapshot-%020llu",
                      static_cast<unsigned long long>(applied_seq));
}

/// Extracts the zero-padded sequence number from "wal-<seq>.log" /
/// "snapshot-<seq>" names; nullopt for anything else.
std::optional<uint64_t> ParseSeqFromName(std::string_view name,
                                         std::string_view prefix,
                                         std::string_view suffix) {
  if (!StartsWith(name, prefix) || !EndsWith(name, suffix)) {
    return std::nullopt;
  }
  std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty() || digits.size() > 20) return std::nullopt;
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

std::string ParentDir(const std::string& path) {
  auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Writes `content` to `path` through `env`, fsync'd.
Status WriteFileSynced(StorageEnv* env, const std::string& path,
                       const std::string& content) {
  CUPID_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                         env->NewWritableFile(path, /*truncate=*/true));
  CUPID_RETURN_NOT_OK(file->Append(content));
  CUPID_RETURN_NOT_OK(file->Sync());
  return file->Close();
}

constexpr const char* kManifestName = "MANIFEST.jsonl";
constexpr const char* kCurrentName = "CURRENT";

}  // namespace

SchemaRepository::~SchemaRepository() = default;

Result<int> SchemaRepository::Register(const std::string& name,
                                       Schema schema) {
  CUPID_RETURN_NOT_OK(ValidateRepositoryName(name));
  CUPID_RETURN_NOT_OK(schema.Validate());
  MutexLock lock(&mu_);
  CUPID_RETURN_NOT_OK(CheckWritableLocked());
  if (dur_ != nullptr) {
    // A durable registration is persisted in the native text format; a
    // schema the format cannot represent (e.g. view elements) would come
    // back different after recovery, breaking the bit-identical re-match
    // guarantee. Reject it up front instead of logging it lossily.
    std::string text = SerializeNativeSchema(schema);
    Result<Schema> reparsed = ParseNativeSchema(text);
    if (!reparsed.ok() || PrintSchema(schema) != PrintSchema(*reparsed)) {
      return Status::Unsupported(
          "schema '" + name +
          "' does not round-trip through the native format and cannot be "
          "stored durably" +
          (reparsed.ok() ? "" : ": " + reparsed.status().ToString()));
    }
    JsonWriter w;
    w.BeginObject();
    w.Key("op");
    w.String("register");
    w.Key("name");
    w.String(name);
    w.Key("schema");
    w.String(text);
    w.EndObject();
    CUPID_RETURN_NOT_OK(LogMutationLocked(w.str()));
    int version = RegisterLocked(name, std::move(schema));
    MaybeCompactLocked();
    NotifyMutationLocked(name, version);
    return version;
  }
  int version = RegisterLocked(name, std::move(schema));
  NotifyMutationLocked(name, version);
  return version;
}

int SchemaRepository::RegisterLocked(const std::string& name, Schema schema) {
  std::vector<VersionEntry>& versions = schemas_[name];
  VersionEntry entry;
  entry.schema = std::make_shared<const Schema>(std::move(schema));
  entry.parent_version = 0;  // fresh lineage
  versions.push_back(std::move(entry));
  return static_cast<int>(versions.size());
}

Result<int> SchemaRepository::RegisterFile(const std::string& name,
                                           const std::string& path) {
  CUPID_ASSIGN_OR_RETURN(Schema schema, LoadSchemaFileAuto(path));
  return Register(name, std::move(schema));
}

Result<int> SchemaRepository::RegisterText(const std::string& name,
                                           SchemaFormat format,
                                           const std::string& text) {
  CUPID_ASSIGN_OR_RETURN(Schema schema, ParseSchemaText(format, name, text));
  return Register(name, std::move(schema));
}

Result<int> SchemaRepository::ApplyEdit(const std::string& name,
                                        const SchemaEdit& edit) {
  MutexLock lock(&mu_);
  CUPID_RETURN_NOT_OK(CheckWritableLocked());
  auto it = schemas_.find(name);
  if (it == schemas_.end() || it->second.empty()) {
    return Status::NotFound("no such schema: " + name);
  }
  // Copy-on-edit: versions are immutable, so mutate a private copy. The
  // edit is validated *before* it is logged — a rejected edit must never
  // reach the WAL (replay applies records unconditionally).
  Schema edited = *it->second.back().schema;
  CUPID_RETURN_NOT_OK(ApplySchemaEdit(&edited, edit));
  if (dur_ != nullptr) {
    JsonWriter w;
    w.BeginObject();
    w.Key("op");
    w.String("edit");
    w.Key("name");
    w.String(name);
    w.Key("edit");
    WriteSchemaEditJson(edit, &w);
    w.EndObject();
    CUPID_RETURN_NOT_OK(LogMutationLocked(w.str()));
  }
  VersionEntry entry;
  entry.schema = std::make_shared<const Schema>(std::move(edited));
  entry.parent_version = static_cast<int>(it->second.size());
  entry.edits.push_back(edit);
  it->second.push_back(std::move(entry));
  int version = static_cast<int>(it->second.size());
  MaybeCompactLocked();
  NotifyMutationLocked(name, version);
  return version;
}

void SchemaRepository::SetMutationListener(
    std::function<void(const std::string&, int)> listener) {
  MutexLock lock(&mu_);
  mutation_listener_ = std::move(listener);
}

void SchemaRepository::NotifyMutationLocked(const std::string& name,
                                            int version) {
  if (mutation_listener_) mutation_listener_(name, version);
}

Result<SchemaRepository::SchemaSnapshot> SchemaRepository::Resolve(
    const std::string& name, int version) const {
  MutexLock lock(&mu_);
  auto it = schemas_.find(name);
  if (it == schemas_.end() || it->second.empty()) {
    return Status::NotFound("no such schema: " + name);
  }
  int latest = static_cast<int>(it->second.size());
  int v = version == 0 ? latest : version;
  if (v < 1 || v > latest) {
    return Status::NotFound(StringFormat("%s has no version %d (latest %d)",
                                         name.c_str(), version, latest));
  }
  return SchemaSnapshot{v, it->second[static_cast<size_t>(v - 1)].schema};
}

Result<std::shared_ptr<const Schema>> SchemaRepository::Get(
    const std::string& name, int version) const {
  CUPID_ASSIGN_OR_RETURN(SchemaSnapshot snap, Resolve(name, version));
  return snap.schema;
}

int SchemaRepository::LatestVersion(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = schemas_.find(name);
  return it == schemas_.end() ? 0 : static_cast<int>(it->second.size());
}

std::vector<std::string> SchemaRepository::Names() const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  out.reserve(schemas_.size());
  for (const auto& [name, versions] : schemas_) {
    if (!versions.empty()) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::vector<SchemaEdit>> SchemaRepository::EditChain(
    const std::string& name, int from_version, int to_version) const {
  MutexLock lock(&mu_);
  auto it = schemas_.find(name);
  if (it == schemas_.end()) return std::nullopt;
  int latest = static_cast<int>(it->second.size());
  if (from_version < 1 || to_version < from_version || to_version > latest) {
    return std::nullopt;
  }
  std::vector<SchemaEdit> chain;
  // Walk backwards via parent links; every hop must be an edit derivation.
  int v = to_version;
  std::vector<const VersionEntry*> hops;
  while (v > from_version) {
    const VersionEntry& entry = it->second[static_cast<size_t>(v - 1)];
    if (entry.parent_version != v - 1) return std::nullopt;  // re-registered
    hops.push_back(&entry);
    v = entry.parent_version;
  }
  for (auto hop = hops.rbegin(); hop != hops.rend(); ++hop) {
    chain.insert(chain.end(), (*hop)->edits.begin(), (*hop)->edits.end());
  }
  return chain;
}

// ---------------------------------------------------------------------------
// Persistence: SaveTo / LoadFrom (snapshot format, also used by the WAL's
// compaction snapshots).

Status SchemaRepository::SaveContentsLocked(const std::string& dir,
                                            StorageEnv* env) const {
  CUPID_RETURN_NOT_OK(env->CreateDirs(dir));
  // Sorted for reproducible manifests.
  std::vector<std::string> names;
  for (const auto& [name, versions] : schemas_) names.push_back(name);
  std::sort(names.begin(), names.end());
  std::string manifest;
  for (const std::string& name : names) {
    const std::vector<VersionEntry>& versions = schemas_.at(name);
    for (size_t i = 0; i < versions.size(); ++i) {
      const VersionEntry& entry = versions[i];
      std::string file =
          StringFormat("%s@v%d.cupid", name.c_str(), static_cast<int>(i + 1));
      std::string content = SerializeNativeSchema(*entry.schema);
      CUPID_RETURN_NOT_OK(WriteFileSynced(env, dir + "/" + file, content));
      JsonWriter w;
      w.BeginObject();
      w.Key("name");
      w.String(name);
      w.Key("version");
      w.Int(static_cast<int64_t>(i + 1));
      w.Key("file");
      w.String(file);
      w.Key("crc");
      w.String(StringFormat("%08x", Crc32(content)));
      w.Key("parent");
      w.Int(entry.parent_version);
      w.Key("edits");
      w.BeginArray();
      for (const SchemaEdit& edit : entry.edits) WriteSchemaEditJson(edit, &w);
      w.EndArray();
      w.EndObject();
      manifest += w.str();
      manifest += '\n';
    }
  }
  CUPID_RETURN_NOT_OK(
      WriteFileSynced(env, dir + "/" + kManifestName, manifest));
  return env->SyncDir(dir);
}

Status SchemaRepository::SaveTo(const std::string& dir) const {
  return SaveTo(dir, DefaultStorageEnv());
}

Status SchemaRepository::SaveTo(const std::string& dir,
                                StorageEnv* env) const {
  // Assemble in a temp directory and rename into place: a crash mid-save
  // leaves either the old state at `dir`, or the old state at `dir`.old
  // with the new one complete at `dir` — never a half-written snapshot
  // under the published name.
  const std::string tmp = dir + ".tmp";
  const std::string old = dir + ".old";
  (void)env->RemoveAll(tmp);
  {
    MutexLock lock(&mu_);
    CUPID_RETURN_NOT_OK(SaveContentsLocked(tmp, env));
  }
  if (env->FileExists(dir)) {
    (void)env->RemoveAll(old);
    CUPID_RETURN_NOT_OK(env->RenameFile(dir, old));
  }
  CUPID_RETURN_NOT_OK(env->RenameFile(tmp, dir));
  CUPID_RETURN_NOT_OK(env->SyncDir(ParentDir(dir)));
  (void)env->RemoveAll(old);
  return Status::OK();
}

Status SchemaRepository::LoadInto(const std::string& dir, StorageEnv* env,
                                  VersionMap* schemas) {
  CUPID_ASSIGN_OR_RETURN(std::string manifest,
                         env->ReadFile(dir + "/" + kManifestName));
  int line_number = 0;
  size_t pos = 0;
  while (pos <= manifest.size()) {
    size_t eol = manifest.find('\n', pos);
    std::string line = manifest.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? manifest.size() + 1 : eol + 1;
    ++line_number;
    if (TrimWhitespace(line).empty()) continue;
    auto parsed = ParseJson(line);
    if (!parsed.ok()) {
      return Status::ParseError(
          StringFormat("manifest line %d: %s", line_number,
                       parsed.status().ToString().c_str()));
    }
    auto line_error = [line_number](const Status& status) {
      return Status::ParseError(StringFormat(
          "manifest line %d: %s", line_number, status.ToString().c_str()));
    };
    std::string name = parsed->GetString("name");
    Result<int> version_field = parsed->GetCheckedInt("version");
    if (!version_field.ok()) return line_error(version_field.status());
    const int version = *version_field;
    std::string file = parsed->GetString("file");
    if (name.empty() || version < 1 || file.empty()) {
      return Status::ParseError(StringFormat(
          "manifest line %d: need name/version/file", line_number));
    }
    CUPID_RETURN_NOT_OK(ValidateRepositoryName(name));
    // SaveTo only ever writes `name@vN.cupid` next to the manifest; any
    // other 'file' value is corruption (a flipped byte in the name field
    // would otherwise serve history under the wrong schema) or hostile
    // input (a traversing path).
    if (file != StringFormat("%s@v%d.cupid", name.c_str(), version)) {
      return Status::ParseError(StringFormat(
          "manifest line %d: file %s does not match %s@v%d", line_number,
          file.c_str(), name.c_str(), version));
    }
    CUPID_ASSIGN_OR_RETURN(std::string content,
                           env->ReadFile(dir + "/" + file));
    std::string crc = parsed->GetString("crc");
    if (!crc.empty() && crc != StringFormat("%08x", Crc32(content))) {
      return Status::ParseError(
          StringFormat("manifest line %d: checksum mismatch for %s",
                       line_number, file.c_str()));
    }
    auto schema = ParseNativeSchema(content);
    if (!schema.ok()) return schema.status();
    Result<int> parent_field = parsed->GetCheckedInt("parent", 0);
    if (!parent_field.ok()) return line_error(parent_field.status());
    const int parent = *parent_field;
    if (parent != 0 && parent != version - 1) {
      return Status::ParseError(
          StringFormat("manifest line %d: %s@v%d has invalid parent %d",
                       line_number, name.c_str(), version, parent));
    }
    VersionEntry entry;
    entry.schema = std::make_shared<const Schema>(std::move(*schema));
    entry.parent_version = parent;
    if (const JsonValue* edits = parsed->Find("edits");
        edits != nullptr && edits->is_array()) {
      for (const JsonValue& e : edits->array) {
        auto edit = ParseSchemaEditJson(e);
        if (!edit.ok()) {
          return Status::ParseError(
              StringFormat("manifest line %d: %s", line_number,
                           edit.status().ToString().c_str()));
        }
        entry.edits.push_back(std::move(*edit));
      }
    }
    // Manifests are written in version order; appending reproduces it.
    std::vector<VersionEntry>& versions = (*schemas)[name];
    if (static_cast<int>(versions.size()) + 1 != version) {
      return Status::ParseError(StringFormat(
          "manifest line %d: %s versions out of order (expected %d, got %d)",
          line_number, name.c_str(), static_cast<int>(versions.size()) + 1,
          version));
    }
    versions.push_back(std::move(entry));
  }
  return Status::OK();
}

Result<SchemaRepository> SchemaRepository::LoadFrom(const std::string& dir) {
  return LoadFrom(dir, DefaultStorageEnv());
}

Result<SchemaRepository> SchemaRepository::LoadFrom(const std::string& dir,
                                                    StorageEnv* env) {
  VersionMap schemas;
  CUPID_RETURN_NOT_OK(LoadInto(dir, env, &schemas));
  SchemaRepository repo;
  {
    MutexLock lock(&repo.mu_);
    repo.schemas_ = std::move(schemas);
  }
  return repo;
}

// ---------------------------------------------------------------------------
// Durability: WAL write path, snapshot compaction, crash recovery.

Status SchemaRepository::CheckWritableLocked() const {
  if (dur_ != nullptr && dur_->degraded) {
    return Status::Unavailable(
        "schema repository is in degraded read-only mode after a log-write "
        "failure; reopen it with Recover to resume mutations");
  }
  return Status::OK();
}

Status SchemaRepository::LogMutationLocked(const std::string& payload) {
  Status logged =
      dur_->wal->Append(payload, dur_->options.sync_every_commit);
  if (!logged.ok()) {
    // The log file may now hold a torn frame; recovery tolerates that, but
    // this process must not acknowledge further mutations it cannot make
    // durable. Degrade to read-only instead of aborting.
    dur_->degraded = true;
    return Status::Unavailable("log write failed (" + logged.message() +
                               "); schema repository is now read-only");
  }
  ++dur_->applied_seq;
  return Status::OK();
}

void SchemaRepository::MaybeCompactLocked() {
  if (dur_ == nullptr || dur_->degraded) return;
  const DurabilityOptions& opts = dur_->options;
  uint64_t uncompacted = dur_->applied_seq - dur_->snapshot_seq;
  int64_t live_bytes = dur_->carried_wal_bytes + dur_->wal->bytes_written();
  bool want =
      (opts.snapshot_every_records > 0 &&
       uncompacted >= static_cast<uint64_t>(opts.snapshot_every_records)) ||
      (opts.snapshot_every_bytes > 0 && live_bytes >= opts.snapshot_every_bytes);
  if (!want) return;
  Status snap = WriteSnapshotLocked();
  // A failed compaction is not a failed mutation: the triggering record is
  // already durable in the log. Count it and retry at the next threshold.
  if (!snap.ok()) {
    ++dur_->snapshot_failures;
    obs::MetricsRegistry::Default()
        ->GetCounter("cupid.repo.snapshot_failures",
                     "Compactions that failed (retried at next threshold)")
        ->Increment();
  }
}

Status SchemaRepository::WriteSnapshotLocked() {
  Durability* d = dur_.get();
  if (d->applied_seq == d->snapshot_seq) return Status::OK();  // nothing new
  StorageEnv* env = d->env;
  const std::string snap_name = SnapshotDirName(d->applied_seq);
  const std::string snap_dir = d->dir + "/" + snap_name;
  const std::string tmp_dir = snap_dir + ".tmp";
  (void)env->RemoveAll(tmp_dir);
  CUPID_RETURN_NOT_OK(SaveContentsLocked(tmp_dir, env));
  // Rename is the commit point; CURRENT (also temp+rename) makes the new
  // snapshot authoritative for recovery.
  CUPID_RETURN_NOT_OK(env->RenameFile(tmp_dir, snap_dir));
  CUPID_RETURN_NOT_OK(env->SyncDir(d->dir));
  const std::string current_tmp = d->dir + "/" + kCurrentName + ".tmp";
  CUPID_RETURN_NOT_OK(WriteFileSynced(env, current_tmp, snap_name + "\n"));
  CUPID_RETURN_NOT_OK(
      env->RenameFile(current_tmp, d->dir + "/" + kCurrentName));
  CUPID_RETURN_NOT_OK(env->SyncDir(d->dir));
  // Rotate to a fresh log segment. On failure the old writer stays in
  // place — its records are all <= the published snapshot and recovery
  // skips them, so state remains consistent either way.
  const std::string old_wal = d->wal->path();
  const std::string new_wal = d->dir + "/" + WalFileName(d->applied_seq + 1);
  CUPID_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> writer,
                         WalWriter::Create(env, new_wal, d->applied_seq + 1));
  d->wal = std::move(writer);
  d->snapshot_seq = d->applied_seq;
  d->carried_wal_bytes = 0;
  ++d->snapshots_written;
  obs::MetricsRegistry::Default()
      ->GetCounter("cupid.repo.compactions",
                   "Snapshots written and WAL segments rotated")
      ->Increment();
  // Best-effort GC of segments and snapshots the new snapshot supersedes;
  // leftovers only cost disk and are skipped or re-collected on recovery.
  if (auto entries = env->ListDir(d->dir); entries.ok()) {
    for (const std::string& entry : *entries) {
      const std::string path = d->dir + "/" + entry;
      if (auto seq = ParseSeqFromName(entry, "wal-", ".log");
          seq.has_value() && *seq <= d->snapshot_seq && path != new_wal) {
        (void)env->RemoveFile(path);
      } else if (auto snap_seq = ParseSeqFromName(entry, "snapshot-", "");
                 snap_seq.has_value() && *snap_seq < d->snapshot_seq) {
        (void)env->RemoveAll(path);
      } else if (EndsWith(entry, ".tmp") && path != tmp_dir) {
        (void)env->RemoveAll(path);
      }
    }
  }
  return Status::OK();
}

Status SchemaRepository::ApplyWalRecordLocked(const WalRecord& record) {
  auto prefix = [&record](const std::string& detail) {
    return StringFormat("WAL record %llu: %s",
                        static_cast<unsigned long long>(record.seq),
                        detail.c_str());
  };
  auto parsed = ParseJson(record.payload);
  if (!parsed.ok()) {
    return Status::ParseError(prefix(parsed.status().ToString()));
  }
  std::string op = parsed->GetString("op");
  std::string name = parsed->GetString("name");
  CUPID_RETURN_NOT_OK(ValidateRepositoryName(name));
  if (op == "register") {
    auto schema = ParseNativeSchema(parsed->GetString("schema"));
    if (!schema.ok()) {
      return Status::ParseError(prefix(schema.status().ToString()));
    }
    RegisterLocked(name, std::move(*schema));
    return Status::OK();
  }
  if (op == "edit") {
    const JsonValue* edit_json = parsed->Find("edit");
    if (edit_json == nullptr) {
      return Status::ParseError(prefix("missing 'edit' payload"));
    }
    auto edit = ParseSchemaEditJson(*edit_json);
    if (!edit.ok()) {
      return Status::ParseError(prefix(edit.status().ToString()));
    }
    auto it = schemas_.find(name);
    if (it == schemas_.end() || it->second.empty()) {
      return Status::ParseError(prefix("edit of unknown schema " + name));
    }
    Schema edited = *it->second.back().schema;
    Status applied = ApplySchemaEdit(&edited, *edit);
    if (!applied.ok()) return Status::ParseError(prefix(applied.ToString()));
    VersionEntry entry;
    entry.schema = std::make_shared<const Schema>(std::move(edited));
    entry.parent_version = static_cast<int>(it->second.size());
    entry.edits.push_back(std::move(*edit));
    it->second.push_back(std::move(entry));
    return Status::OK();
  }
  return Status::ParseError(prefix("unknown op '" + op + "'"));
}

Result<SchemaRepository> SchemaRepository::Recover(const std::string& dir,
                                                   DurabilityOptions options) {
  StorageEnv* env = options.env != nullptr ? options.env : DefaultStorageEnv();
  CUPID_RETURN_NOT_OK(env->CreateDirs(dir));
  CUPID_ASSIGN_OR_RETURN(std::vector<std::string> entries, env->ListDir(dir));
  std::vector<std::pair<uint64_t, std::string>> snapshots;  // (seq, name)
  std::vector<std::pair<uint64_t, std::string>> wals;       // (first seq, name)
  std::vector<std::string> leftovers;
  for (const std::string& entry : entries) {
    if (EndsWith(entry, ".tmp")) {
      leftovers.push_back(entry);
    } else if (auto snap_seq = ParseSeqFromName(entry, "snapshot-", "")) {
      snapshots.emplace_back(*snap_seq, entry);
    } else if (auto wal_seq = ParseSeqFromName(entry, "wal-", ".log")) {
      wals.emplace_back(*wal_seq, entry);
    }
  }
  std::sort(snapshots.begin(), snapshots.end());
  std::sort(wals.begin(), wals.end());

  SchemaRepository repo;
  // The repository is private to this thread until returned, but its
  // members are lock-annotated, so recovery holds the (uncontended) lock;
  // released before the return statement's move construction relocks it.
  {
    MutexLock lock(&repo.mu_);
    repo.dur_ = std::make_unique<Durability>();
    Durability* d = repo.dur_.get();
    d->options = options;
    d->env = env;
    d->dir = dir;

    // Pick the snapshot: the CURRENT pointer first, then any other snapshot
    // newest-first. If snapshots exist but none loads, fail hard — silently
    // recovering from an older state would drop acknowledged mutations.
    std::string current_target;
    if (env->FileExists(dir + "/" + kCurrentName)) {
      if (auto current = env->ReadFile(dir + "/" + kCurrentName);
          current.ok()) {
        current_target = std::string(TrimWhitespace(*current));
      }
    }
    std::vector<std::pair<uint64_t, std::string>> candidates;
    if (!current_target.empty()) {
      if (auto seq = ParseSeqFromName(current_target, "snapshot-", "")) {
        candidates.emplace_back(*seq, current_target);
      }
    }
    for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
      if (it->second != current_target) candidates.push_back(*it);
    }
    bool loaded = false;
    Status last_error = Status::OK();
    for (const auto& [seq, name] : candidates) {
      VersionMap fresh;
      Status status = LoadInto(dir + "/" + name, env, &fresh);
      if (status.ok()) {
        repo.schemas_ = std::move(fresh);
        d->snapshot_seq = seq;
        loaded = true;
        break;
      }
      last_error = status;
    }
    if (!loaded && !snapshots.empty()) {
      return Status::IoError(StringFormat(
          "no loadable snapshot among %d candidates in %s (last error: %s); "
          "refusing to discard data",
          static_cast<int>(snapshots.size()), dir.c_str(),
          last_error.ToString().c_str()));
    }
    d->applied_seq = d->snapshot_seq;

    // Replay the log tail. Segments are contiguous by construction (each is
    // named after its first sequence number); a hole means lost segments.
    for (size_t i = 0; i < wals.size(); ++i) {
      const auto& [first_seq, name] = wals[i];
      if (first_seq > d->applied_seq + 1) {
        return Status::IoError(StringFormat(
            "WAL gap in %s: segment %s starts at record %llu but only %llu "
            "recovered",
            dir.c_str(), name.c_str(),
            static_cast<unsigned long long>(first_seq),
            static_cast<unsigned long long>(d->applied_seq)));
      }
      CUPID_ASSIGN_OR_RETURN(WalReadResult read,
                             ReadWal(env, dir + "/" + name, first_seq));
      for (const WalRecord& record : read.records) {
        if (record.seq <= d->applied_seq) continue;  // covered by the snapshot
        CUPID_RETURN_NOT_OK(repo.ApplyWalRecordLocked(record));
        ++d->applied_seq;
        ++d->recovered_records;
        if (record.seq > d->snapshot_seq) {
          d->carried_wal_bytes += static_cast<int64_t>(kWalFrameHeaderSize +
                                                       record.payload.size());
        }
      }
      if (read.tail_dropped) {
        d->recovered_bytes_dropped += read.bytes_dropped;
        d->recovered_tail_dropped = true;
        // A torn tail is only acceptable where a crash can produce one: in
        // the final segment, or where the next segment continues exactly at
        // the accepted boundary (rotation after an earlier torn append).
        if (i + 1 < wals.size() && wals[i + 1].first != d->applied_seq + 1) {
          return Status::IoError(
              "WAL corruption is not confined to the tail: " +
              read.drop_reason);
        }
      }
    }

    // Start a fresh segment for new mutations; the torn tail (if any) stays
    // behind in the old segment, which the next compaction garbage-collects.
    const std::string new_wal = dir + "/" + WalFileName(d->applied_seq + 1);
    CUPID_ASSIGN_OR_RETURN(
        d->wal, WalWriter::Create(env, new_wal, d->applied_seq + 1));
    CUPID_RETURN_NOT_OK(env->SyncDir(dir));
    obs::MetricsRegistry::Default()
        ->GetCounter("cupid.repo.recovered_records",
                     "WAL records replayed during recovery across opens")
        ->Add(static_cast<int64_t>(d->recovered_records));
  }
  for (const std::string& leftover : leftovers) {
    (void)env->RemoveAll(dir + "/" + leftover);
  }
  return repo;
}

Status SchemaRepository::ForceSnapshot() {
  MutexLock lock(&mu_);
  if (dur_ == nullptr) return Status::OK();
  return WriteSnapshotLocked();
}

bool SchemaRepository::durable() const {
  MutexLock lock(&mu_);
  return dur_ != nullptr;
}

DurabilityStats SchemaRepository::durability_stats() const {
  MutexLock lock(&mu_);
  DurabilityStats stats;
  if (dur_ == nullptr) return stats;
  stats.durable = true;
  stats.degraded = dur_->degraded;
  stats.applied_seq = dur_->applied_seq;
  stats.snapshot_seq = dur_->snapshot_seq;
  stats.wal_records = dur_->applied_seq - dur_->snapshot_seq;
  stats.wal_bytes = dur_->carried_wal_bytes + dur_->wal->bytes_written();
  stats.snapshots_written = dur_->snapshots_written;
  stats.snapshot_failures = dur_->snapshot_failures;
  stats.recovered_records = dur_->recovered_records;
  stats.recovered_bytes_dropped = dur_->recovered_bytes_dropped;
  stats.recovered_tail_dropped = dur_->recovered_tail_dropped;
  return stats;
}

}  // namespace cupid

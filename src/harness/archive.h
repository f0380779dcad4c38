// Append-only, content-hash-keyed archive of ATPG run reports.
//
// Every report written by harness/report is deterministic (DESIGN.md §5/§6),
// so its byte content is its identity: the archive keys stored reports by
// the FNV-1a 64 hash of the full report text. add() is idempotent — the
// same report text always maps to the same hash, the stored file is written
// once, and the JSONL index gains at most one line per distinct report.
// Nothing in the store is ever rewritten or timestamped, so archiving the
// same runs in any order on any machine produces the same files.
//
// Layout under the archive directory (default "runs/", git-ignored):
//   runs/index.jsonl     one JSON object per line, append-only
//   runs/<hash>.json     the verbatim report text
//
// Each index line records the report's identity triple (circuit, engine,
// schema) plus a config digest — the hash of the engine/seed configuration
// alone (archive_config) — so tooling can find "the same configuration,
// different code version" pairs to diff, and `satpg inspect --trend` can
// join profile sidecars to their reports.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace satpg {

class JsonValue;

/// The pre-digest configuration string of any document carrying the
/// shared circuit/engine identity blocks (report or profile sidecar):
/// circuit name, engine kind, limits and seed — deliberately no result
/// field. Missing blocks or keys render as "?" / 0.
std::string archive_config(const JsonValue& root);

struct ArchiveEntry {
  std::string hash;           ///< 16-hex FNV-1a of the report text
  std::string schema;         ///< kAtpgRunSchema or "satpg.profile.*"
  std::string circuit;        ///< circuit name from the report
  std::string engine;         ///< engine kind from the report
  std::string config_digest;  ///< 16-hex hash of circuit+engine+seed config
  std::string path;           ///< stored report path (within the archive dir)
};

class RunArchive {
 public:
  explicit RunArchive(std::string dir = "runs");

  const std::string& dir() const { return dir_; }

  /// Validate `report_text` (a kAtpgRunSchema report or a satpg.profile.*
  /// sidecar; any other schema, older reports included, is refused), store
  /// it under its content hash, and append an index line unless the hash
  /// is already indexed. Throws std::runtime_error on malformed input or
  /// I/O failure. Idempotent.
  ArchiveEntry add(const std::string& report_text);

  /// Index entries in append order. Malformed index lines are skipped.
  std::vector<ArchiveEntry> list() const;

  /// Resolve a full hash or unique prefix (>= 4 hex digits). Empty when
  /// not found or ambiguous.
  std::optional<ArchiveEntry> find(const std::string& hash_prefix) const;

  /// Stored report text for an entry. Throws std::runtime_error when the
  /// stored file is missing.
  std::string load(const ArchiveEntry& entry) const;

 private:
  std::string index_path() const;
  std::string report_path(const std::string& hash) const;

  std::string dir_;
};

/// Resolve a report spec the way the CLI accepts one: a readable file path
/// wins, otherwise `spec` is treated as an archive hash (or unique prefix).
/// Returns the report text; throws std::runtime_error when neither works.
std::string load_report_spec(const RunArchive& archive,
                             const std::string& spec);

}  // namespace satpg

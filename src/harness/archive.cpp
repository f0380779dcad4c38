#include "harness/archive.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "base/json.h"
#include "base/strutil.h"
#include "harness/report.h"

namespace satpg {

namespace {

std::string read_file_or_throw(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Identity fields pulled out of a report or profile sidecar: the
/// identity triple plus the config digest, which hashes archive_config —
/// the pieces that define "the same experiment". Profile sidecars carry
/// the same circuit/engine identity blocks as the reports they ride along
/// with, so the same digest joins the two planes.
ArchiveEntry identity_of(const std::string& report_text) {
  JsonValue root;
  std::string err;
  if (!json_parse(report_text, &root, &err))
    throw std::runtime_error("report is not valid JSON: " + err);
  if (!root.is_object())
    throw std::runtime_error("report is not a JSON object");
  ArchiveEntry e;
  e.schema = root.str_or("schema", "");
  if (e.schema != kAtpgRunSchema && e.schema.rfind("satpg.profile.", 0) != 0)
    throw std::runtime_error(std::string("not a ") + kAtpgRunSchema +
                             " report or profile (schema \"" + e.schema +
                             "\")");
  const JsonValue* circuit = root.find("circuit");
  const JsonValue* engine = root.find("engine");
  if (circuit == nullptr || engine == nullptr)
    throw std::runtime_error("report lacks circuit/engine identity");
  e.circuit = circuit->str_or("name", "?");
  e.engine = engine->str_or("kind", "?");
  e.config_digest = fnv1a64_hex(archive_config(root));
  e.hash = fnv1a64_hex(report_text);
  return e;
}

std::string index_line(const ArchiveEntry& e) {
  return "{\"hash\": \"" + json_escape(e.hash) + "\", \"schema\": \"" +
         json_escape(e.schema) + "\", \"circuit\": \"" +
         json_escape(e.circuit) + "\", \"engine\": \"" +
         json_escape(e.engine) + "\", \"config\": \"" +
         json_escape(e.config_digest) + "\", \"path\": \"" +
         json_escape(e.path) + "\"}";
}

}  // namespace

std::string archive_config(const JsonValue& root) {
  std::string circuit = "?";
  if (const JsonValue* c = root.find("circuit"))
    circuit = c->str_or("name", "?");
  static const JsonValue kEmpty;
  const JsonValue* e = root.find("engine");
  if (e == nullptr) e = &kEmpty;
  return circuit + "|" +
         strprintf(
             "%s eval=%llu bt=%llu fwd=%llu bwd=%llu seed=%llu",
             e->str_or("kind", "?").c_str(),
             static_cast<unsigned long long>(e->uint_or("eval_limit", 0)),
             static_cast<unsigned long long>(e->uint_or("backtrack_limit", 0)),
             static_cast<unsigned long long>(
                 e->uint_or("max_forward_frames", 0)),
             static_cast<unsigned long long>(
                 e->uint_or("max_backward_frames", 0)),
             static_cast<unsigned long long>(e->uint_or("seed", 0)));
}

RunArchive::RunArchive(std::string dir) : dir_(std::move(dir)) {}

std::string RunArchive::index_path() const { return dir_ + "/index.jsonl"; }

std::string RunArchive::report_path(const std::string& hash) const {
  return dir_ + "/" + hash + ".json";
}

ArchiveEntry RunArchive::add(const std::string& report_text) {
  ArchiveEntry e = identity_of(report_text);
  e.path = e.hash + ".json";

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) throw std::runtime_error("cannot create " + dir_);

  // Idempotence: an already-indexed hash means both the file and the index
  // line exist (the file is written before the line) — nothing to do.
  for (const ArchiveEntry& have : list())
    if (have.hash == e.hash) return have;

  const std::string stored = report_path(e.hash);
  if (!std::filesystem::exists(stored)) {
    std::ofstream os(stored, std::ios::binary);
    if (!os) throw std::runtime_error("cannot write " + stored);
    os << report_text;
    if (!os.good()) throw std::runtime_error("write failed: " + stored);
  }
  std::ofstream os(index_path(), std::ios::app);
  if (!os) throw std::runtime_error("cannot append " + index_path());
  os << index_line(e) << "\n";
  if (!os.good())
    throw std::runtime_error("append failed: " + index_path());
  return e;
}

std::vector<ArchiveEntry> RunArchive::list() const {
  std::vector<ArchiveEntry> out;
  std::ifstream is(index_path());
  if (!is) return out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    JsonValue v;
    if (!json_parse(line, &v, nullptr) || !v.is_object()) continue;
    ArchiveEntry e;
    e.hash = v.str_or("hash", "");
    e.schema = v.str_or("schema", "");
    e.circuit = v.str_or("circuit", "");
    e.engine = v.str_or("engine", "");
    e.config_digest = v.str_or("config", "");
    e.path = v.str_or("path", "");
    if (!e.hash.empty()) out.push_back(std::move(e));
  }
  return out;
}

std::optional<ArchiveEntry> RunArchive::find(
    const std::string& hash_prefix) const {
  if (hash_prefix.size() < 4) return std::nullopt;
  std::optional<ArchiveEntry> match;
  for (const ArchiveEntry& e : list()) {
    if (e.hash.rfind(hash_prefix, 0) != 0) continue;
    if (e.hash == hash_prefix) return e;  // exact beats prefix
    if (match.has_value() && match->hash != e.hash) return std::nullopt;
    match = e;
  }
  return match;
}

std::string RunArchive::load(const ArchiveEntry& entry) const {
  return read_file_or_throw(dir_ + "/" + entry.path);
}

std::string load_report_spec(const RunArchive& archive,
                             const std::string& spec) {
  if (std::ifstream probe(spec, std::ios::binary); probe)
    return read_file_or_throw(spec);
  if (const auto entry = archive.find(spec)) return archive.load(*entry);
  throw std::runtime_error("\"" + spec + "\" is neither a readable file nor " +
                           "a unique hash in " + archive.dir() + "/");
}

}  // namespace satpg

#include "campaign/cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace dramstress::campaign {

namespace fs = std::filesystem;
namespace util = dramstress::util;
using verify::Code;
using verify::Diagnostic;
using verify::Severity;

namespace {

/// E310 with Warning severity: cache/journal corruption is recoverable
/// (the unit is recomputed), so it must not fail a strict run.
void corrupt(verify::VerifyReport* report, const std::string& message) {
  if (report == nullptr) return;
  Diagnostic d;
  d.code = Code::CacheCorrupt;
  d.severity = Severity::Warning;
  d.message = message;
  report->add(d);
}

}  // namespace

std::string CacheKey::hex() const {
  return util::format("%016llx", static_cast<unsigned long long>(hash));
}

KeyHasher& KeyHasher::feed(const std::string& fragment) {
  for (const char c : fragment) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;  // FNV prime
  }
  // Separator byte so ("ab","c") and ("a","bc") hash differently.
  hash_ ^= 0xff;
  hash_ *= 1099511628211ull;
  return *this;
}

KeyHasher& KeyHasher::feed(double value) {
  return feed(util::format("%.17g", value));
}

KeyHasher& KeyHasher::feed(long value) {
  return feed(util::format("%ld", value));
}

KeyHasher& KeyHasher::feed(bool value) {
  return feed(std::string(value ? "1" : "0"));
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "objects", ec);
  if (ec)
    throw ModelError("campaign cache: cannot create " + dir_ + ": " +
                     ec.message());
}

std::string ResultCache::object_path(const CacheKey& key) const {
  return (fs::path(dir_) / "objects" / (key.hex() + ".json")).string();
}

bool ResultCache::contains(const CacheKey& key) const {
  std::error_code ec;
  return fs::exists(object_path(key), ec);
}

std::optional<std::string> ResultCache::load(
    const CacheKey& key, verify::VerifyReport* report) const {
  const std::string path = object_path(key);
  std::ifstream f(path);
  if (!f.good()) return std::nullopt;
  std::ostringstream text;
  text << f.rdbuf();
  util::json::Value root;
  try {
    root = util::json::parse(text.str());
  } catch (const Error& e) {
    corrupt(report, "cache object " + path + " is corrupt (" + e.what() +
                        "); recomputing");
    return std::nullopt;
  }
  const util::json::Value* version =
      root.find("dramstress_cache_version");
  const util::json::Value* stored_key = root.find("key");
  const util::json::Value* payload = root.find("payload");
  if (version == nullptr || !version->is_number() ||
      static_cast<int>(version->number) != kCacheVersion ||
      stored_key == nullptr || !stored_key->is_string() ||
      payload == nullptr) {
    corrupt(report, "cache object " + path +
                        " has an unexpected wrapper; recomputing");
    return std::nullopt;
  }
  if (stored_key->string != key.hex()) {
    corrupt(report, "cache object " + path + " claims key " +
                        stored_key->string + "; recomputing");
    return std::nullopt;
  }
  util::json::Writer w;
  util::json::append(w, *payload);
  return w.str();
}

void ResultCache::store(const CacheKey& key,
                        const std::string& payload_json) const {
  util::json::Writer w;
  w.begin_object();
  w.key("dramstress_cache_version").value(kCacheVersion);
  w.key("key").value(key.hex());
  w.key("payload");
  util::json::append(w, util::json::parse(payload_json));
  w.end_object();

  const std::string path = object_path(key);
  const std::string tmp = path + ".tmp";
  // Fault point (docs/SERVICE.md): a `corrupt` action damages the object
  // on its way to disk while this call still reports success -- the
  // silent-bit-rot scenario the E310 load-time check exists for.
  const bool corrupt_object =
      util::fault::hit("campaign.cache.store") == util::fault::Action::Corrupt;
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f.good())
      throw ModelError("campaign cache: cannot write " + tmp);
    if (corrupt_object)
      f << w.str().substr(0, w.str().size() / 2) << "<<corrupt";
    else
      f << w.str() << '\n';
    f.flush();
    if (!f.good())
      throw ModelError("campaign cache: write to " + tmp + " failed");
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec)
    throw ModelError("campaign cache: cannot rename " + tmp + ": " +
                     ec.message());
}

int ResultCache::sweep(const std::map<std::string, bool>& live) const {
  int removed = 0;
  std::error_code ec;
  for (const fs::directory_entry& e :
       fs::directory_iterator(fs::path(dir_) / "objects", ec)) {
    const std::string stem = e.path().stem().string();
    if (e.path().extension() == ".json" && live.count(stem) == 0) {
      std::error_code rm;
      fs::remove(e.path(), rm);
      if (!rm) ++removed;
    }
  }
  return removed;
}

Journal::Journal(std::string path) : path_(std::move(path)) {
  // A crash mid-append leaves an unterminated final record.  End that line
  // now, or the next record would fuse with the fragment and be lost to
  // replay (which would then recompute and re-append it on every resume).
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  if (!in.good() || in.tellg() <= 0) return;
  in.seekg(-1, std::ios::end);
  if (in.get() == '\n') return;
  std::ofstream out(path_, std::ios::app);
  out << '\n';
  if (!out.flush())
    throw ModelError("campaign journal: cannot repair " + path_);
}

void Journal::append(const JournalEntry& entry) {
  util::json::Writer w;
  w.begin_object();
  w.key("unit").value(entry.unit_id);
  w.key("key").value(entry.key_hex);
  w.key("status").value(entry.status);
  w.key("attempts").value(entry.attempts);
  if (!entry.error.empty()) w.key("error").value(entry.error);
  w.end_object();
  // One record per line: the pretty-printed object is collapsed so a torn
  // write can only damage the final record, never a framing boundary.
  std::string line;
  line.reserve(w.str().size());
  for (const char c : w.str())
    if (c != '\n') line += c;

  // Serialize the append+flush pair: O_APPEND makes single writes atomic,
  // but the stream buffer could otherwise interleave partial lines from
  // two workers finishing at once.
  util::MutexLock lock(mu_);
  std::ofstream f(path_, std::ios::app);
  if (!f.good()) throw ModelError("campaign journal: cannot append " + path_);
  // Fault point (docs/SERVICE.md): a `tear` action reproduces a crash
  // mid-write -- half a record lands on disk (no newline), then the
  // "process" dies (Injected propagates out of the run like a kill would).
  // Replay must shrug the torn line off as an E310 warning.
  if (util::fault::hit("campaign.journal.append") ==
      util::fault::Action::Tear) {
    f << line.substr(0, line.size() / 2);
    f.flush();
    throw util::fault::Injected(
        "fault injected at campaign.journal.append (journal line torn)");
  }
  f << line << '\n';
  f.flush();
  if (!f.good())
    throw ModelError("campaign journal: write to " + path_ + " failed");
}

std::map<std::string, JournalEntry> Journal::replay(
    const std::string& path, verify::VerifyReport* report) {
  std::map<std::string, JournalEntry> entries;
  std::ifstream f(path);
  if (!f.good()) return entries;
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    util::json::Value v;
    try {
      v = util::json::parse(line);
    } catch (const Error& e) {
      corrupt(report, util::format("journal %s record %d is corrupt (%s); "
                                   "the unit will be recomputed",
                                   path.c_str(), lineno, e.what()));
      continue;
    }
    const util::json::Value* unit = v.find("unit");
    const util::json::Value* key = v.find("key");
    const util::json::Value* status = v.find("status");
    if (unit == nullptr || !unit->is_string() || key == nullptr ||
        !key->is_string() || status == nullptr || !status->is_string() ||
        (status->string != "done" && status->string != "quarantined")) {
      corrupt(report,
              util::format("journal %s record %d has an unexpected shape; "
                           "the unit will be recomputed",
                           path.c_str(), lineno));
      continue;
    }
    JournalEntry entry;
    entry.unit_id = unit->string;
    entry.key_hex = key->string;
    entry.status = status->string;
    if (const util::json::Value* a = v.find("attempts");
        a != nullptr && a->is_number())
      entry.attempts = static_cast<int>(a->number);
    if (const util::json::Value* e = v.find("error");
        e != nullptr && e->is_string())
      entry.error = e->string;
    entries[entry.key_hex] = std::move(entry);
  }
  return entries;
}

}  // namespace dramstress::campaign

#include "util/fault.hpp"

#include <csignal>
#include <cstdlib>
#include <vector>

#include "util/annotations.hpp"
#include "util/strings.hpp"

namespace dramstress::util::fault {

namespace {

struct Entry {
  std::string point;
  Action action = Action::Throw;
  int fire_at = 1;  // 1-based hit index this entry fires on
  int hits = 0;     // hits of the point seen by this entry so far
  bool fired = false;
};

util::Mutex g_mu;
std::vector<Entry> g_entries DS_GUARDED_BY(g_mu);

Action parse_action(const std::string& s) {
  if (s == "throw") return Action::Throw;
  if (s == "kill") return Action::Kill;
  if (s == "tear") return Action::Tear;
  if (s == "corrupt") return Action::Corrupt;
  throw ModelError("fault spec: unknown action \"" + s +
                   "\" (throw|kill|tear|corrupt)");
}

Entry parse_entry(const std::string& item) {
  const size_t eq = item.find('=');
  if (eq == std::string::npos || eq == 0)
    throw ModelError("fault spec: expected point=action[@N], got \"" + item +
                     "\"");
  Entry e;
  e.point = item.substr(0, eq);
  std::string action = item.substr(eq + 1);
  const size_t at = action.find('@');
  if (at != std::string::npos) {
    const std::string count = action.substr(at + 1);
    action = action.substr(0, at);
    char* end = nullptr;
    const long n = std::strtol(count.c_str(), &end, 10);
    if (end == count.c_str() || *end != '\0' || n < 1)
      throw ModelError("fault spec: bad hit index \"" + count + "\" in \"" +
                       item + "\"");
    e.fire_at = static_cast<int>(n);
  }
  e.action = parse_action(action);
  return e;
}

}  // namespace

namespace detail {

bool g_armed = false;

Action hit_armed(const char* point) {
  Action pending = Action::None;
  {
    util::MutexLock lock(g_mu);
    // Every matching entry counts the hit (so `p=throw@1,p=throw@2` fires
    // on hits 1 and 2); the first entry that is due fires.
    Entry* due = nullptr;
    for (Entry& e : g_entries) {
      if (e.point != point) continue;
      ++e.hits;
      if (due == nullptr && !e.fired && e.hits >= e.fire_at) due = &e;
    }
    if (due != nullptr) {
      due->fired = true;
      pending = due->action;
    }
  }
  switch (pending) {
    case Action::None:
    case Action::Tear:
    case Action::Corrupt:
      return pending;  // data faults are applied by the planting site
    case Action::Throw:
      throw Injected(util::format("fault injected at %s", point));
    case Action::Kill:
      std::raise(SIGKILL);
      return Action::None;  // unreachable
  }
  return Action::None;
}

}  // namespace detail

void arm(const std::string& spec) {
  std::vector<Entry> entries;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    if (!item.empty()) entries.push_back(parse_entry(item));
    pos = comma + 1;
  }
  {
    util::MutexLock lock(g_mu);
    g_entries = std::move(entries);
  }
  detail::g_armed = !spec.empty();
}

void arm_from_env() {
  // Gates failure *injection*, never configuration: results are only
  // affected when a test or the CI service job armed the process on
  // purpose, so the manifest-capture rationale of D505 does not apply.
  // detlint:allow(D505 test-only fault arming, not run configuration)
  const char* spec = std::getenv("DRAMSTRESS_FAULTS");
  if (spec != nullptr && spec[0] != '\0') arm(spec);
}

void disarm() { arm(""); }

}  // namespace dramstress::util::fault

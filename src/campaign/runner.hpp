// `dramstress campaign run`: one campaign in this process, as a single
// session of a private Scheduler (scheduler.hpp).
//
// The Scheduler is the only campaign executor -- dependency gates,
// futile-optimize skips, quarantine restore, cache lookups, bounded
// retries and journaling all live there -- so this facade adds just what
// a user-picked run directory needs on top of a daemon session: it
// refuses to reuse a directory that already holds a journal unless asked
// to resume, and it turns a failed session (torn journal, disk full) into
// an exception.  Unit failures never throw; they quarantine.
//
// Determinism: report.json is byte-identical across resumes, thread
// counts, and the daemon (scheduler.hpp, "Determinism"), quarantine
// timing aside -- the wall-clock timeout only fires on units that are
// already failing.
#pragma once

#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/unit_exec.hpp"
#include "dram/technology.hpp"
#include "verify/diagnostic.hpp"

namespace dramstress::campaign {

struct RunnerOptions {
  /// Scheduler workers; 0 = util::default_threads().  Units run their
  /// inner sweeps serially, so this is the only parallelism level -- no
  /// oversubscription.
  int threads = 0;
  /// Replay an existing journal instead of refusing to reuse the run
  /// directory.
  bool resume = false;
};

struct CampaignResult {
  std::vector<UnitOutcome> outcomes;  // indexed like plan.units
  int done = 0;
  int cached = 0;
  int retried = 0;  // total extra attempts across all units
  int quarantined = 0;
  int skipped = 0;

  /// Diagnostics collected while reading cache/journal (E310 corruption
  /// warnings); spec diagnostics are reported at parse time.
  verify::VerifyReport diagnostics;

  std::string report_path;
  std::string failure_report_path;
};

class CampaignRunner {
public:
  /// `run_dir` holds the journal and the reports; `cache_dir` the shared
  /// result cache (several campaigns and runs may share one).
  CampaignRunner(CampaignPlan plan, const dram::TechnologyParams& tech,
                 std::string run_dir, std::string cache_dir,
                 RunnerOptions opt);

  /// Execute the campaign.  Throws ModelError when the run directory has
  /// a journal and resume is off, and when the session fails (its error
  /// is the message).  Unit failures never throw -- they quarantine.
  CampaignResult run();

private:
  CampaignPlan plan_;
  dram::TechnologyParams tech_;
  std::string run_dir_;
  std::string cache_dir_;
  RunnerOptions opt_;
};

}  // namespace dramstress::campaign

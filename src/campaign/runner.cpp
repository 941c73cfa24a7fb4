#include "campaign/runner.hpp"

#include <filesystem>

#include "campaign/cache_index.hpp"
#include "campaign/scheduler.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace dramstress::campaign {

namespace fs = std::filesystem;

CampaignRunner::CampaignRunner(CampaignPlan plan,
                               const dram::TechnologyParams& tech,
                               std::string run_dir, std::string cache_dir,
                               RunnerOptions opt)
    : plan_(std::move(plan)),
      tech_(tech),
      run_dir_(std::move(run_dir)),
      cache_dir_(std::move(cache_dir)),
      opt_(opt) {}

CampaignResult CampaignRunner::run() {
  OBS_SPAN("campaign.run");
  if (!opt_.resume && fs::exists(fs::path(run_dir_) / "journal.jsonl"))
    throw ModelError(
        "campaign: " + run_dir_ +
        " already holds a journal; pass --resume to continue the "
        "interrupted run or pick a fresh --out directory");

  constexpr const char* kSession = "run";
  SharedCache cache(cache_dir_);
  SchedulerOptions so;
  so.workers = opt_.threads;
  Scheduler sched(tech_, &cache, so);
  sched.submit("campaign-run", plan_, run_dir_, kSession);
  sched.wait_finished(kSession, 0);
  const SessionStatus st = sched.session(kSession).value();
  if (st.state == "failed") throw ModelError("campaign: " + st.error);

  SessionOutcomes finished = sched.outcomes(kSession).value();
  CampaignResult result;
  result.outcomes = std::move(finished.outcomes);
  result.diagnostics = std::move(finished.diagnostics);
  result.done = st.done;
  result.cached = st.cached;
  result.retried = st.retried;
  result.quarantined = st.quarantined;
  result.skipped = st.skipped;
  result.report_path = st.report_path;
  result.failure_report_path = st.failure_report_path;
  return result;
}

}  // namespace dramstress::campaign

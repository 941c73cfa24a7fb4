// table1_campaign: `CampaignRunner::run` on a slice of the Table 1 border
// matrix (an open, a short and a bridge, both bitlines, Vdd 2.1/2.4/2.7 V)
// with the default surrogate, a fresh cache and run directory and 2
// threads.  One op is one border unit.
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "campaign/plan.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "dram/column.hpp"
#include "dram/technology.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ds = dramstress;
namespace campaign = ds::campaign;

const char* const kAllDefects[] = {"o1", "o2", "o3", "sg", "sv", "b1", "b2"};
const double kVdds[] = {2.1, 2.4, 2.7};

std::string spec_text(const std::string& name,
                      const std::vector<std::string>& defects,
                      const std::vector<double>& vdds) {
  std::string s = "{\"name\": \"" + name + "\", \"defects\": [";
  for (size_t i = 0; i < defects.size(); ++i)
    s += (i ? ", \"" : "\"") + defects[i] + "\", \"" + defects[i] + "/comp\"";
  s += "], \"points\": [";
  for (size_t i = 0; i < vdds.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s{\"name\": \"vdd%.1f\", \"vdd\": %.1f}",
                  i ? ", " : "", vdds[i], vdds[i]);
    s += buf;
  }
  return s + "], \"analyses\": [\"border\"]}";
}

campaign::CampaignPlan plan_of(const std::string& text) {
  ds::verify::VerifyReport report;
  const std::optional<campaign::CampaignSpec> spec =
      campaign::parse_spec(text, &report);
  if (!spec.has_value())
    throw std::runtime_error("table1 spec rejected: " + report.str());
  ds::dram::DramColumn column;
  return campaign::expand(*spec, column);
}

struct Border {
  bool done = false;
  std::optional<double> br;
  bool fails_everywhere = false;
  std::string condition;
};

Border border_of(const campaign::UnitOutcome& out) {
  Border b;
  b.done = out.status == campaign::UnitStatus::Done ||
           out.status == campaign::UnitStatus::Cached;
  if (!b.done) return b;
  const json::Value v = json::parse(out.payload);
  const json::Value* r = campaign::payload_result(v);
  if (const json::Value* br = r->find("br"); br && br->is_number())
    b.br = br->number;
  if (const json::Value* fe = r->find("fails_everywhere"); fe && fe->is_bool())
    b.fails_everywhere = fe->boolean;
  if (const json::Value* c = r->find("condition"); c && c->is_string())
    b.condition = c->string;
  return b;
}

/// The condition with every written/read data value inverted: what the
/// complement bitline needs to expose the same fault.
std::string mirrored(std::string cond) {
  for (size_t i = 1; i < cond.size(); ++i)
    if ((cond[i - 1] == 'w' || cond[i - 1] == 'r') &&
        (cond[i] == '0' || cond[i] == '1'))
      cond[i] = cond[i] == '0' ? '1' : '0';
  return cond;
}

double decades(double a, double b) { return std::abs(std::log10(a / b)); }

campaign::CampaignResult run_campaign(campaign::CampaignPlan plan,
                                      const std::string& run_dir,
                                      const std::string& cache_dir) {
  campaign::RunnerOptions ro;
  ro.threads = kThreads;
  campaign::CampaignRunner runner(std::move(plan),
                                  ds::dram::default_technology(), run_dir,
                                  cache_dir, ro);
  Span span("campaign.CampaignRunner.run");
  return runner.run();
}

}  // namespace

void run_table1(const Args& args, Pass* pass) {
  const json::Value ref = load_reference("table1_campaign.json");
  const double tol = ref.find("br_tolerance_decades")->number;
  const json::Value& units = *ref.find("units");

  // The slice is the same for every seed, so every seed does the same
  // simulation work; the seed names the campaign (report.json carries it).
  // Costliest defect first, cheapest last: the two threads then finish
  // within one short unit of each other.
  const std::vector<std::string> defects =
      args.size == Size::Smoke ? std::vector<std::string>{"sg"}
                               : std::vector<std::string>{"o3", "b1", "sg"};
  const std::vector<double> vdds =
      args.size == Size::Smoke ? std::vector<double>{2.4}
                               : std::vector<double>(std::begin(kVdds),
                                                     std::end(kVdds));
  const std::string text =
      spec_text("table1-" + std::to_string(args.seed), defects, vdds);

  // Set-up: spec parse, plan expansion and the run/cache directories.
  std::optional<campaign::CampaignPlan> plan;
  std::string run_dir, cache_dir;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pause_between_setups();
    const double t0 = now_s();
    plan = plan_of(text);
    run_dir = fresh_dir("table1-run");
    cache_dir = fresh_dir("table1-cache");
    setup_times.push_back(now_s() - t0);
  }
  pass->setup_s = median(setup_times);

  if (pass->traced) pass->window.begin();
  pass->measured.start();
  const campaign::CampaignPlan& p = *plan;
  const campaign::CampaignResult result =
      run_campaign(p, run_dir, cache_dir);

  // Per-unit check against the reference, then the pairwise invariant.
  std::vector<Border> got;
  std::vector<char> ok;
  for (const campaign::WorkUnit& u : p.units) {
    got.push_back(border_of(result.outcomes[u.index]));
    const Border& b = got.back();
    const json::Value* want = units.find(u.id);
    bool good = b.done && want != nullptr;
    if (good) {
      const json::Value* wbr = want->find("br");
      good = b.fails_everywhere == want->find("fails_everywhere")->boolean &&
             b.br.has_value() == wbr->is_number();
      if (good && b.br.has_value()) {
        double ref_br = wbr->number;
        if (args.perturb_reference) ref_br *= std::pow(10.0, 3 * tol);
        good = decades(*b.br, ref_br) <= tol;
      }
    }
    ok.push_back(good);
  }
  // True/comp pairs: units come defect-major (true then comp), point-minor.
  long asymmetric = 0;
  const size_t n_points = p.spec.points.size();
  for (size_t i = 0; i < p.units.size(); ++i) {
    const campaign::WorkUnit& u = p.units[i];
    if (p.defect_of(u).side != ds::dram::Side::True) continue;
    const size_t j = i + n_points;  // the complement unit, same point
    const Border& t = got[i];
    const Border& c = got[j];
    if (!t.done || !c.done) continue;
    if (mirrored(t.condition) != c.condition) {
      ++asymmetric;  // different conditions: the invariant does not apply
      continue;
    }
    const bool agree = t.br.has_value() == c.br.has_value() &&
                       (!t.br.has_value() || decades(*t.br, *c.br) <= tol);
    if (!agree) ok[i] = ok[j] = 0;
  }
  pass->measured.stop();
  if (pass->traced) pass->window.end();

  for (size_t i = 0; i < p.units.size(); ++i) {
    ++pass->attempted;
    if (!ok[i]) {
      ++pass->failed;
      std::fprintf(stderr, "table1_campaign: %s failed its check\n",
                   p.units[i].id.c_str());
    }
  }
  pass->layer["analysis.side_asymmetric_pairs"] = {
      static_cast<double>(asymmetric), "count"};

  if (pass->traced) {
    std::vector<std::string> tokens;
    for (const std::string& d : defects) {
      tokens.push_back(d);
      tokens.push_back(d + "/comp");
    }
    probe_service(args, cache_dir, tokens, vdds, pass);
  }
}

void emit_table1_reference() {
  const std::vector<std::string> all(std::begin(kAllDefects),
                                     std::end(kAllDefects));
  const campaign::CampaignPlan plan = plan_of(spec_text(
      "table1", all, std::vector<double>(std::begin(kVdds), std::end(kVdds))));
  const campaign::CampaignResult result = run_campaign(
      plan, fresh_dir("table1-run"), fresh_dir("table1-cache"));
  std::printf("{\n  \"br_tolerance_decades\": 0.02,\n  \"units\": {");
  const char* sep = "\n";
  for (const campaign::WorkUnit& u : plan.units) {
    const Border b = border_of(result.outcomes[u.index]);
    if (!b.done) throw std::runtime_error(u.id + " did not finish");
    char br[64] = "null";
    if (b.br.has_value()) std::snprintf(br, sizeof br, "%.17g", *b.br);
    std::printf("%s    \"%s\": {\"br\": %s, \"fails_everywhere\": %s, "
                "\"condition\": \"%s\"}",
                sep, u.id.c_str(), br, b.fails_everywhere ? "true" : "false",
                b.condition.c_str());
    sep = ",\n";
  }
  std::printf("\n  }\n}\n");
}

}  // namespace perfbench

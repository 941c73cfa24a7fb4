// The warm-daemon probe of a traced table1_campaign run: an in-process
// `service::Server` over the cache the campaign just wrote, driven by two
// closed-loop clients through the unix socket.  It measures the service
// and cache-read layers; it has no end-to-end metrics of its own
// (README.md, "Why there is no daemon workload").
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "campaign/cache_index.hpp"
#include "campaign/plan.hpp"
#include "campaign/runner.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "dram/column.hpp"
#include "dram/technology.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ds = dramstress;
namespace campaign = ds::campaign;
namespace service = ds::service;

constexpr int kShapes = 32;  // distinct session matrices per probe
constexpr size_t kSessions = 1000;  // ten beyond the p99
constexpr size_t kLayerProbes = 200;
constexpr const char* kRefName = "perfbench-reference-name";
constexpr int kClients = 2;
constexpr double kPollSleepS = 200e-6;  // between /report polls
constexpr double kSessionTimeoutS = 30.0;

/// A session's unit matrix: bit i of `defects` selects the campaign's i-th
/// defect token; point j is named "p<j>" and sits at Vdd `vdds[j]`.  Every
/// unit is one the campaign computed, so every lookup hits.
struct Shape {
  unsigned defects = 0;
  std::vector<double> vdds;
};

std::string spec_json(const std::string& name,
                      const std::vector<std::string>& tokens,
                      const Shape& shape) {
  std::string s = "{\"name\": \"" + name + "\", \"defects\": [";
  const char* sep = "";
  for (size_t i = 0; i < tokens.size(); ++i)
    if (shape.defects & (1u << i)) {
      s += sep + ("\"" + tokens[i] + "\"");
      sep = ", ";
    }
  s += "], \"points\": [";
  for (size_t j = 0; j < shape.vdds.size(); ++j) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s{\"name\": \"p%zu\", \"vdd\": %.1f}",
                  j ? ", " : "", j, shape.vdds[j]);
    s += buf;
  }
  return s + "], \"analyses\": [\"border\"]}";
}

campaign::CampaignPlan plan_of(const std::string& text) {
  ds::verify::VerifyReport report;
  const auto spec = campaign::parse_spec(text, &report);
  if (!spec.has_value())
    throw std::runtime_error("service probe spec rejected: " + report.str());
  ds::dram::DramColumn column;
  return campaign::expand(*spec, column);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream text;
  text << f.rdbuf();
  return text.str();
}

service::Response call(const std::string& socket, const std::string& method,
                       const std::string& target,
                       const std::string& body = "") {
  service::Request req;
  req.method = method;
  req.target = target;
  req.body = body;
  Span span("service.request");
  return service::request(socket, req);
}

std::string submit_body(const std::string& client, const std::string& spec) {
  return "{\"client\": \"" + client + "\", \"spec\": " + spec + "}";
}

std::string id_of(const service::Response& r) {
  const json::Value v = json::parse(r.body);
  const json::Value* id = v.find("id");
  return id != nullptr && id->is_string() ? id->string : "";
}

/// A live daemon on its own socket and run directory over `cache_dir`.
class Daemon {
public:
  Daemon(const std::string& dir, const std::string& cache_dir) {
    opt_.socket_path = dir + "/d.sock";
    opt_.runs_dir = dir + "/runs";
    opt_.cache_dir = cache_dir;
    opt_.workers = kThreads;
    server_ = std::make_unique<service::Server>(
        ds::dram::default_technology(), opt_);
    thread_ = std::thread([this] { server_->serve(); });
  }
  ~Daemon() {
    server_->shutdown();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return opt_.socket_path; }
  service::Server& server() { return *server_; }

  void wait_ready() const {
    for (;;) {
      try {
        if (call(socket(), "GET", "/status").status == 200) return;
      } catch (const std::exception&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

private:
  service::ServerOptions opt_;
  std::unique_ptr<service::Server> server_;
  std::thread thread_;
};

/// Poll /report/<id> under the fixed policy; empty on failure.
std::string fetch_report(const std::string& socket, const std::string& id,
                         long* polls) {
  const double deadline = now_s() + kSessionTimeoutS;
  for (;;) {
    const service::Response r = call(socket, "GET", "/report/" + id);
    ++*polls;
    if (r.status == 200) return r.body;
    if (r.status != 409 || now_s() > deadline) return "";
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollSleepS));
  }
}

/// The single-process runner's report.json of `text` on the warm cache.
std::string runner_report(const std::string& text,
                          const std::string& cache_dir) {
  campaign::RunnerOptions ro;
  ro.threads = kThreads;
  campaign::CampaignRunner runner(plan_of(text),
                                  ds::dram::default_technology(),
                                  fresh_dir("reference"), cache_dir, ro);
  return read_file(runner.run().report_path);
}

std::string with_name(const std::string& ref, const std::string& name) {
  const std::string from = std::string("\"") + kRefName + "\"";
  std::string out = ref;
  const size_t at = out.find(from);
  if (at != std::string::npos)
    out.replace(at, from.size(), "\"" + name + "\"");
  return out;
}

/// Single-layer timings without a socket: SharedCache::lookup over the
/// campaign's units, in-process Scheduler sessions, Server::handle on a
/// submit.
void time_layers(Daemon& daemon, const std::string& cache_dir,
                 const std::vector<std::string>& tokens,
                 const std::vector<double>& vdds,
                 const std::vector<Shape>& shapes,
                 const std::vector<size_t>& pick, const std::string& tag) {
  {
    const campaign::CampaignPlan all =
        plan_of(spec_json("all", tokens, {(1u << tokens.size()) - 1, vdds}));
    campaign::SharedCache cache(cache_dir);
    ds::verify::VerifyReport report;
    for (size_t round = 0; round < kLayerProbes; ++round)
      for (const campaign::WorkUnit& u : all.units) {
        Span span("campaign.SharedCache.lookup");
        if (!cache.lookup(u.key, &report).has_value())
          throw std::runtime_error("service probe: unit not cached");
      }
  }
  {
    campaign::SharedCache cache(cache_dir);
    campaign::SchedulerOptions so;
    so.workers = kThreads;
    campaign::Scheduler sched(ds::dram::default_technology(), &cache, so);
    const std::string runs = fresh_dir("scheduler");
    for (size_t i = 0; i < kLayerProbes; ++i) {
      const std::string id = "s" + std::to_string(i);
      campaign::CampaignPlan plan = plan_of(spec_json(
          "probe-" + tag + "-" + std::to_string(i), tokens, shapes[pick[i]]));
      Span span("campaign.Scheduler.session");
      sched.submit("probe", std::move(plan), runs + "/" + id, id);
      sched.wait_finished(id, kSessionTimeoutS);
    }
    sched.drain();
  }
  for (size_t i = 0; i < kLayerProbes; ++i) {
    service::Request req;
    req.method = "POST";
    req.target = "/submit";
    req.body = submit_body(
        "handle-probe", spec_json("handle-" + tag + "-" + std::to_string(i),
                                  tokens, shapes[pick[i]]));
    Span span("service.Server.handle");
    daemon.server().handle(req);
  }
}

}  // namespace

void probe_service(const Args& args, const std::string& cache_dir,
                   const std::vector<std::string>& tokens,
                   const std::vector<double>& vdds, Pass* pass) {
  std::mt19937_64 rng(args.seed);
  std::vector<Shape> shapes(kShapes);
  for (Shape& shape : shapes) {
    shape.defects = 1 + static_cast<unsigned>(rng() % ((1u << tokens.size()) - 1));
    shape.vdds.resize(2 + rng() % 3);
    for (double& v : shape.vdds) v = vdds[rng() % vdds.size()];
  }
  std::vector<size_t> pick(kSessions);
  for (size_t& p : pick) p = rng() % kShapes;

  std::vector<std::string> refs;
  for (const Shape& shape : shapes)
    refs.push_back(
        runner_report(spec_json(kRefName, tokens, shape), cache_dir));
  if (args.perturb_reference)
    for (std::string& r : refs) r += " ";

  Daemon daemon(fresh_dir("daemon"), cache_dir);
  daemon.wait_ready();

  std::vector<double> latency(kSessions, 0.0);
  std::vector<char> ok(kSessions, 0);
  std::vector<long> polls(kClients, 0);
  const std::string tag = std::to_string(args.seed);

  pass->probe.begin();
  const long transients0 = obs::metrics_snapshot().counter("sim.transients");
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      const std::string client = "client-" + std::to_string(c);
      for (size_t i = static_cast<size_t>(c); i < kSessions; i += kClients) {
        const double t0 = now_s();
        const std::string name = "warm-" + tag + "-" + std::to_string(i);
        try {
          const service::Response sub = call(
              daemon.socket(), "POST", "/submit",
              submit_body(client, spec_json(name, tokens, shapes[pick[i]])));
          const std::string report =
              sub.status == 202
                  ? fetch_report(daemon.socket(), id_of(sub), &polls[c])
                  : "";
          ok[i] = !report.empty() && report == with_name(refs[pick[i]], name);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "service probe: session %zu: %s\n", i,
                       e.what());
        }
        latency[i] = now_s() - t0;
      }
    });
  for (std::thread& t : clients) t.join();
  // The warm path must not simulate: a transient fails every session.
  const bool no_sim =
      obs::metrics_snapshot().counter("sim.transients") == transients0;
  pass->probe.end();

  if (!no_sim) std::fprintf(stderr, "service probe: the warm path simulated\n");
  for (size_t i = 0; i < kSessions; ++i) {
    ++pass->attempted;
    ++pass->probe_sessions;
    if (!ok[i] || !no_sim) ++pass->failed;
  }
  long total_polls = 0;
  for (const long p : polls) total_polls += p;
  pass->layer["service.polls_per_session"] = {
      ratio(static_cast<double>(total_polls), kSessions), "ratio"};
  pass->layer["service.op_p50_ms"] = {1e3 * percentile(latency, 0.50), "ms"};
  pass->layer["service.op_p99_ms"] = {1e3 * percentile(latency, 0.99), "ms"};

  time_layers(daemon, cache_dir, tokens, vdds, shapes, pick, tag);
}

}  // namespace perfbench

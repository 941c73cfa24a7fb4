// perfbench: the end-to-end benchmark of dramstress (README.md).
//
//   perfbench --workload <fig2_planes|table1_campaign>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--size smoke] [--perturb-reference]
//   perfbench --emit-reference <fig2_planes|table1_campaign>
//
// Prints one JSON object as the last line of standard output: the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fig2_planes|table1_campaign> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--size smoke] [--perturb-reference]\n"
               "       perfbench --emit-reference "
               "<fig2_planes|table1_campaign>\n");
  return 2;
}

bool parse(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--perturb-reference") {
      a->perturb_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--emit-reference") {
      a->workload = v;
      a->emit_reference = have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v.c_str());
      if (a->seconds < 1) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--size") {
      if (v != "smoke" && v != "full") return false;
      a->size = v == "smoke" ? Size::Smoke : Size::Full;
    } else {
      return false;
    }
  }
  return have_workload;
}

using Workload = void (*)(const Args&, Pass*);

Workload find(const std::string& name) {
  if (name == "fig2_planes") return run_fig2;
  if (name == "table1_campaign") return run_table1;
  return nullptr;
}

Result measure(const Args& args, Workload run) {
  Pass plain;
  run(args, &plain);
  Result r;
  r.attempted = plain.attempted;
  r.failed = plain.failed;
  if (!args.trace) {
    r.set_end_to_end(plain.measured, plain.setup_s);
    return r;
  }
  tracer().enable(true);
  Pass traced;
  traced.traced = true;
  run(args, &traced);
  r.attempted += traced.attempted;
  r.failed += traced.failed;
  set_layer_metrics(traced.window, traced.probe,
                    traced.attempted - traced.probe_sessions, &r);
  for (const Pass* p : {&plain, &traced})
    for (const auto& [name, vu] : p->layer) r.metrics[name] = vu;
  r.set("obs.trace_overhead_frac",
        ratio(traced.measured.wall_s, plain.measured.wall_s) - 1.0, "frac");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) return usage();
  const Workload run = find(args.workload);
  if (run == nullptr) return usage();

  // The engine users get by default: scalar planes, no armed faults, the
  // benchmark's own thread count, the default surrogate.
  ::unsetenv("DRAMSTRESS_BATCH");
  ::unsetenv("DRAMSTRESS_FAULTS");
  ::unsetenv("DRAMSTRESS_THREADS");
  dramstress::util::set_default_threads(kThreads);

  int rc = 0;
  try {
    if (args.emit_reference) {
      if (args.workload == "fig2_planes") emit_fig2_reference();
      else if (args.workload == "table1_campaign") emit_table1_reference();
      else rc = usage();
    } else {
      const Result r = measure(args, run);
      std::printf("%s\n", r.json_line().c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 1;
  }
  return rc;
}

// minispice: run a SPICE-dialect deck with the bundled electrical engine.
//
//   minispice deck.sp            # run .tran, print probes as CSV to stdout
//   minispice deck.sp --plot     # ASCII-plot the probes instead
//   minispice deck.sp --lint     # static verification only: report
//                                # diagnostics with deck line numbers and
//                                # exit 1 on errors (docs/LINT.md)
//
// --metrics FILE / --trace FILE write a run manifest / span trace after a
// successful .tran run (schemas: docs/OBSERVABILITY.md).
//
// Supported dialect: see circuit/spice_reader.hpp.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "circuit/spice_reader.hpp"
#include "circuit/transient.hpp"
#include "obs/manifest.hpp"
#include "util/ascii_plot.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "verify/netlist_lint.hpp"
#include "verify/preflight.hpp"

using namespace dramstress;
using namespace dramstress::circuit;

int main(int raw_argc, char** raw_argv) {
  const auto t0 = std::chrono::steady_clock::now();
  // Strip --metrics/--trace before the positional parse.
  std::string metrics_path;
  std::string trace_path;
  std::vector<char*> args;
  for (int i = 0; i < raw_argc; ++i) {
    std::string* path = nullptr;
    if (std::strncmp(raw_argv[i], "--metrics=", 10) == 0) {
      metrics_path = raw_argv[i] + 10;
    } else if (std::strcmp(raw_argv[i], "--metrics") == 0) {
      path = &metrics_path;
    } else if (std::strncmp(raw_argv[i], "--trace=", 8) == 0) {
      trace_path = raw_argv[i] + 8;
    } else if (std::strcmp(raw_argv[i], "--trace") == 0) {
      path = &trace_path;
    } else {
      args.push_back(raw_argv[i]);
      continue;
    }
    if (path) {
      if (i + 1 >= raw_argc) {
        std::fprintf(stderr, "%s needs a file argument\n", raw_argv[i]);
        return 2;
      }
      *path = raw_argv[++i];
    }
  }
  const int argc = static_cast<int>(args.size());
  char** argv = args.data();
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <deck.sp> [--plot|--lint] [--metrics FILE] "
                 "[--trace FILE]\n",
                 argv[0]);
    return 2;
  }
  const std::string mode = argc > 2 ? argv[2] : "";
  const bool plot = mode == "--plot";
  const bool lint = mode == "--lint";

  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  try {
    SpiceDeck deck = parse_spice(buffer.str());
    if (!deck.title.empty())
      std::fprintf(stderr, "* %s\n", deck.title.c_str());
    if (lint) {
      verify::LintOptions opt;
      opt.source_lines = &deck.device_lines;
      verify::VerifyReport report =
          verify::NetlistLinter(opt).lint(*deck.netlist);
      // Numeric pre-flight (E4xx).  minispice runs the fixed-step path,
      // so the adaptive-only checks (E403/E404) are skipped.
      verify::PreflightOptions pre;
      pre.adaptive = false;
      pre.t_stop = deck.tran_stop;
      pre.source_lines = &deck.device_lines;
      report.merge(verify::preflight_numeric(*deck.netlist, pre));
      std::fputs(report.str().c_str(), stdout);
      return report.ok() ? 0 : 1;
    }
    if (deck.tran_stop <= 0.0) {
      std::fprintf(stderr, "deck has no .tran card\n");
      return 2;
    }

    MnaSystem sys(*deck.netlist);
    TransientOptions opt;
    opt.dt = deck.tran_step;
    opt.temperature = units::celsius_to_kelvin(deck.temp_c);
    TransientSim sim(sys, opt);
    for (const auto& [node, volts] : deck.initial_conditions)
      sim.set_initial_condition(deck.netlist->find_node(node), volts);
    for (const std::string& probe : deck.probes)
      sim.add_probe(probe, deck.netlist->find_node(probe));
    sim.run(deck.tran_stop);

    const Trace& trace = sim.trace();
    if (plot) {
      std::vector<util::Series> series;
      for (size_t p = 0; p < trace.names.size(); ++p)
        series.push_back({trace.names[p], static_cast<char>('1' + p),
                          trace.time, trace.samples[p]});
      util::PlotOptions po;
      po.title = deck.title.empty() ? argv[1] : deck.title;
      po.x_label = "t [s]";
      std::printf("%s", util::ascii_plot(series, po).c_str());
    } else {
      std::printf("time");
      for (const auto& name : trace.names) std::printf(",%s", name.c_str());
      std::printf("\n");
      for (size_t i = 0; i < trace.time.size(); ++i) {
        std::printf("%.9g", trace.time[i]);
        for (const auto& samples : trace.samples)
          std::printf(",%.6g", samples[i]);
        std::printf("\n");
      }
    }
    if (!metrics_path.empty() || !trace_path.empty()) {
      obs::ManifestInfo info;
      info.tool = "minispice";
      info.command = std::string(argv[1]) + (mode.empty() ? "" : " " + mode);
      info.settings_number["dt"] = deck.tran_step;
      info.settings_number["t_stop"] = deck.tran_stop;
      info.settings_number["temp_c"] = deck.temp_c;
      info.settings_flag["adaptive"] = false;  // the fixed-step engine
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - t0;
      info.duration_s = wall.count();
      if (!metrics_path.empty()) obs::write_manifest(metrics_path, info);
      if (!trace_path.empty()) obs::write_trace(trace_path, info);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

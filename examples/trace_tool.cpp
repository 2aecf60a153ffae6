// Trace tooling: generate, save, load, and characterize workload traces
// from the command line — the offline half of a serving study.
//
//   Generate + inspect:  ./build/examples/trace_tool --rate=500 --seconds=60
//   Save to CSV:         ./build/examples/trace_tool --out=/tmp/trace.csv
//   Inspect a CSV:       ./build/examples/trace_tool --in=/tmp/trace.csv
//
// Characterization covers the §2.1 statistics: length quantiles, per-window
// drift, arrival burstiness, and padding waste at each candidate runtime
// size.
#include <fstream>
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "runtime/model.h"
#include "trace/analysis.h"
#include "trace/twitter.h"

using namespace arlo;

static int Run(int argc, char** argv) {
  const CliFlags flags(argc, argv);

  trace::Trace trace;
  const std::string in_path = flags.GetString("in", "");
  if (!in_path.empty()) {
    std::ifstream in(in_path);
    if (!in) {
      std::cerr << "cannot open " << in_path << "\n";
      return 1;
    }
    trace = trace::Trace::LoadCsv(in);
    std::cout << "loaded " << trace.Size() << " requests from " << in_path
              << "\n";
  } else {
    trace::TwitterTraceConfig config;
    config.duration_s = flags.GetDouble("seconds", 60.0);
    config.mean_rate = flags.GetDouble("rate", 500.0);
    config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
    config.max_length = static_cast<int>(flags.GetInt("max_length", 512));
    config.pattern = flags.GetString("pattern", "stable") == "bursty"
                         ? trace::TwitterTraceConfig::Pattern::kBursty
                         : trace::TwitterTraceConfig::Pattern::kStable;
    trace = trace::SynthesizeTwitterTrace(config);
    std::cout << "synthesized " << trace.Size() << " requests ("
              << config.duration_s << " s @ " << config.mean_rate
              << " req/s, " << flags.GetString("pattern", "stable") << ")\n";
  }

  const std::string out_path = flags.GetString("out", "");
  // Synthesis flags are only queried when --in is absent, so list them
  // explicitly — they are valid either way.
  flags.RejectUnknown({"seconds", "rate", "seed", "max_length", "pattern"});
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    trace.SaveCsv(out);
    std::cout << "wrote " << out_path << "\n";
  }

  if (trace.Empty()) return 0;
  const int max_length = 512;

  const Histogram lengths = trace.LengthHistogram(max_length);
  TablePrinter q("length quantiles");
  q.SetHeader({"quantile", "tokens"});
  for (double quantile : {0.25, 0.5, 0.75, 0.9, 0.98, 1.0}) {
    q.AddRow({TablePrinter::Num(quantile),
              TablePrinter::Int(lengths.Quantile(quantile))});
  }
  q.Print(std::cout);

  TablePrinter c("characterization");
  c.SetHeader({"metric", "value"});
  c.AddRow({"mean rate (req/s)", TablePrinter::Num(trace.MeanRate())});
  c.AddRow({"index of dispersion",
            TablePrinter::Num(trace::IndexOfDispersion(trace))});
  c.AddRow({"max adjacent 10s-window KS drift",
            TablePrinter::Num(
                trace::MaxAdjacentWindowDrift(trace, 10.0, max_length), 3)});
  c.Print(std::cout);

  const runtime::ModelSpec m = runtime::ModelSpec::BertBase();
  const double lin = static_cast<double>(m.layers) * 12.0 * m.hidden * m.hidden;
  const double quad = static_cast<double>(m.layers) * 2.0 * m.hidden;
  TablePrinter w("padding waste if served by a single static runtime");
  w.SetHeader({"runtime max_length", "FLOPs wasted"});
  for (int len : {64, 128, 256, 512}) {
    w.AddRow({TablePrinter::Int(len),
              TablePrinter::Num(
                  100.0 * trace::MeanPaddingWaste(trace, len, lin, quad), 1) +
                  "%"});
  }
  w.Print(std::cout);
  return 0;
}

int main(int argc, char** argv) { return RunCliMain(argc, argv, Run); }

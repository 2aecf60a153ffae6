// Generic scenario driver: run any scheme on any workload configuration
// straight from the command line, with optional CSV output for plotting —
// the "do your own experiment" entry point.
//
//   ./build/examples/scenario_runner --scheme=arlo --gpus=10 --rate=1000
//   ARGS="--pattern=bursty --model=bert-large --slo_ms=450 --autoscale --csv"
//   ./build/examples/scenario_runner --scheme=st,dt,arlo $ARGS
//
// Flags: --scheme (comma list: arlo, arlo-ilb, arlo-ig, st, dt, infaas),
// --model (bert-base|bert-large|roberta-large|distilbert), --gpus, --rate,
// --seconds, --slo_ms, --period_s, --pattern (stable|bursty), --seed,
// --autoscale, --max-batch, --batch-policy (greedy|length|slo; see
// docs/BATCHING.md), --mtbf_s (fault injection), --csv,
// --fault-plan (path to a FaultPlan DSL file; see docs/FAULTS.md),
// --hang-timeout_s / --shed-deadline_s (recovery policy; need --fault-plan),
// --metrics-out/--trace-out (telemetry dump; single-scheme runs only),
// --generative plus --decode-len-dist/--kv-capacity/--gen-batcher/
// --gen-admission (autoregressive serving; see docs/GENERATIVE.md).
#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "baselines/scenario.h"
#include "batch/continuous.h"
#include "batch/policy.h"
#include "common/cli.h"
#include "common/table.h"
#include "fault/fault_plan.h"
#include "runtime/compiled_runtime.h"
#include "sim/engine.h"
#include "sim/report.h"
#include "telemetry/exporters.h"
#include "telemetry/sink.h"
#include "trace/generative.h"
#include "trace/twitter.h"

using namespace arlo;

namespace {

runtime::ModelSpec ModelByName(const std::string& name) {
  if (name == "bert-base") return runtime::ModelSpec::BertBase();
  if (name == "bert-large") return runtime::ModelSpec::BertLarge();
  if (name == "roberta-large") return runtime::ModelSpec::RobertaLarge();
  if (name == "distilbert") return runtime::ModelSpec::DistilBert();
  throw std::invalid_argument("unknown model: " + name);
}

double PercentileMs(std::vector<SimDuration> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return ToSeconds(values[idx]) * 1e3;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

static int Run(int argc, char** argv) {
  const CliFlags flags(argc, argv);

  trace::TwitterTraceConfig workload;
  workload.duration_s = flags.GetDouble("seconds", 20.0);
  workload.mean_rate = flags.GetDouble("rate", 800.0);
  workload.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  workload.pattern = flags.GetString("pattern", "stable") == "bursty"
                         ? trace::TwitterTraceConfig::Pattern::kBursty
                         : trace::TwitterTraceConfig::Pattern::kStable;

  // Generative flags.  The satellites require --generative for the rest so
  // a forgotten --generative cannot silently run a one-shot experiment.
  const bool generative = flags.GetBool("generative", false);
  const std::string decode_dist = flags.GetString("decode-len-dist", "mixed");
  const long long kv_capacity = flags.GetInt("kv-capacity", 0);
  const std::string gen_batcher = flags.GetString("gen-batcher", "continuous");
  const std::string gen_admission = flags.GetString("gen-admission", "prefill");
  if (!generative) {
    for (const char* dep :
         {"decode-len-dist", "kv-capacity", "gen-batcher", "gen-admission"}) {
      if (flags.Has(dep)) {
        throw std::invalid_argument("--" + std::string(dep) +
                                    " requires --generative");
      }
    }
  }
  if (generative) {
    workload.decode_lengths = trace::ParseDecodeLengthDist(decode_dist);
  }
  const trace::Trace trace = trace::SynthesizeTwitterTrace(workload);

  baselines::ScenarioConfig config;
  config.model = ModelByName(flags.GetString("model", "bert-base"));
  config.gpus = static_cast<int>(flags.GetInt("gpus", 8));
  config.slo = Millis(flags.GetDouble("slo_ms", 150.0));
  config.period = Seconds(flags.GetDouble("period_s", 15.0));
  config.autoscale = flags.GetBool("autoscale", false);
  config.max_replacement_moves =
      static_cast<int>(flags.GetInt("max_moves", 0));
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand =
      baselines::DemandFromTrace(trace, *runtimes, config.slo);

  sim::EngineConfig engine;
  const long long max_batch = flags.GetInt("max-batch", 1);
  batch::ValidateMaxBatch(max_batch);
  engine.max_batch = static_cast<int>(max_batch);
  config.max_batch = engine.max_batch;  // profiles see the batched cost
  batch::BatchPolicyConfig bpc;
  bpc.slo = config.slo;
  const auto batch_policy =
      batch::MakeBatchPolicy(flags.GetString("batch-policy", "greedy"), bpc);
  engine.batch_policy = batch_policy.get();
  engine.mean_time_between_failures_s = flags.GetDouble("mtbf_s", 0.0);

  batch::GenerativeConfig gen_config;
  if (generative) {
    gen_config.mode = batch::ParseGenBatcherMode(gen_batcher);
    gen_config.admission = batch::ParseGenAdmission(gen_admission);
    // 0 (the default) derives the cap from a 16 GB KV budget at the model's
    // native max context — the formula docs/GENERATIVE.md walks through.
    gen_config.kv_capacity =
        kv_capacity == 0
            ? runtime::KvSequenceCapacity(config.model, 16.0,
                                          config.model.native_max_length)
            : batch::ValidateKvCapacity(kv_capacity);
    engine.generative = &gen_config;
  }

  fault::FaultPlan plan;
  const std::string plan_path = flags.GetString("fault-plan", "");
  if (!plan_path.empty()) {
    plan = fault::FaultPlan::ParseFile(plan_path);
    engine.fault_plan = &plan;
  }
  engine.resilience.hang_timeout = Seconds(flags.GetDouble("hang-timeout_s", 0.0));
  engine.resilience.shed_deadline =
      Seconds(flags.GetDouble("shed-deadline_s", 0.0));

  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  // 0 = unbounded (the historical default); see docs/OBSERVABILITY.md.
  const long long trace_max_events = flags.GetInt("trace-max-events", 0);
  const std::vector<std::string> schemes =
      SplitCommas(flags.GetString("scheme", "arlo"));
  const bool csv = flags.GetBool("csv", false);
  flags.RejectUnknown();

  // Telemetry attaches to one run; with a comma list the dump would merge
  // several schemes into one registry, which is never what anyone wants.
  std::unique_ptr<telemetry::TelemetrySink> sink;
  if (!metrics_out.empty() || !trace_out.empty()) {
    if (schemes.size() != 1) {
      throw std::invalid_argument(
          "--metrics-out/--trace-out require a single --scheme");
    }
    telemetry::TelemetryConfig tcfg;
    tcfg.run_id = workload.seed;
    tcfg.max_trace_events =
        trace_max_events > 0 ? static_cast<std::size_t>(trace_max_events) : 0;
    sink = std::make_unique<telemetry::TelemetrySink>(tcfg);
    engine.telemetry = sink.get();
  }

  std::vector<sim::SchemeReport> reports;
  for (const auto& name : schemes) {
    auto scheme = baselines::MakeSchemeByName(name, config);
    const sim::EngineResult result = sim::RunScenario(trace, *scheme, engine);
    reports.push_back(sim::MakeReport(name, result, config.slo));
    if (generative) {
      std::vector<SimDuration> ttft;
      std::vector<SimDuration> itl;
      for (const RequestRecord& r : result.records) {
        if (!r.IsGenerative()) continue;
        ttft.push_back(r.TimeToFirstToken());
        if (r.decode_len >= 2) itl.push_back(r.MeanInterTokenLatency());
      }
      std::cout << name << ": gen kv_cap=" << gen_config.kv_capacity
                << " prefill_iters=" << result.gen_prefill_iterations
                << " decode_iters=" << result.gen_decode_iterations
                << " tokens=" << result.gen_tokens
                << " preemptions=" << result.gen_preemptions
                << " ttft_p50_ms=" << TablePrinter::Num(PercentileMs(ttft, 0.50))
                << " ttft_p98_ms=" << TablePrinter::Num(PercentileMs(ttft, 0.98))
                << " itl_p50_ms=" << TablePrinter::Num(PercentileMs(itl, 0.50))
                << " itl_p98_ms=" << TablePrinter::Num(PercentileMs(itl, 0.98))
                << "\n";
    }
    if (result.faults_injected > 0) {
      std::cout << name << ": faults=" << result.faults_injected
                << " (crashes=" << result.injected_failures
                << ") retries=" << result.retries
                << " requeues=" << result.requeues
                << " sheds=" << result.sheds << "\n";
    } else if (result.injected_failures > 0) {
      std::cout << name << ": " << result.injected_failures
                << " injected failures\n";
    }
  }

  TablePrinter table("scenario: " + flags.GetString("model", "bert-base") +
                     ", " + TablePrinter::Num(workload.mean_rate, 0) +
                     " req/s, " + std::to_string(config.gpus) + " GPUs");
  table.SetHeader({"scheme", "requests", "mean_ms", "p50_ms", "p98_ms",
                   "slo_viol_%", "gpus(tw)"});
  for (const auto& r : reports) {
    table.AddRow({r.name,
                  TablePrinter::Int(static_cast<long long>(r.latency.count)),
                  TablePrinter::Num(r.latency.mean_ms),
                  TablePrinter::Num(r.latency.p50_ms),
                  TablePrinter::Num(r.latency.p98_ms),
                  TablePrinter::Num(100.0 * r.latency.slo_violation_frac),
                  TablePrinter::Num(r.time_weighted_gpus)});
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  if (sink) {
    if (!metrics_out.empty()) telemetry::WriteMetricsFile(*sink, metrics_out);
    if (!trace_out.empty()) telemetry::WriteTraceFile(*sink, trace_out);
  }
  return 0;
}

int main(int argc, char** argv) { return RunCliMain(argc, argv, Run); }

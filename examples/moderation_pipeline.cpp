// Domain scenario: a social-media content-moderation pipeline (the §1
// motivating deployment — discriminative models flagging misleading posts).
//
// Posts stream in with highly variable lengths and a bursty diurnal-ish
// rate.  The pipeline runs a Bert-Base classifier per post under a 150 ms
// SLO, with auto-scaling enabled so the cluster breathes with load.  The
// example compares operating this pipeline with Arlo vs a padded
// single-runtime deployment (ST), reporting latency, SLO compliance, and
// the GPU-hours each approach consumes.
//
// Run: ./build/examples/moderation_pipeline [--minutes=2]
#include <iostream>

#include "baselines/scenario.h"
#include "common/cli.h"
#include "common/table.h"
#include "sim/engine.h"
#include "sim/report.h"
#include "trace/twitter.h"

using namespace arlo;

static int Run(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const double minutes = flags.GetDouble("minutes", 2.0);
  flags.RejectUnknown();
  const double duration = minutes * 60.0;

  // The post stream: bursty arrivals around a base rate with periodic viral
  // spikes (a trending event doubles traffic for ~20 s every ~minute).
  trace::TwitterTraceConfig workload;
  workload.duration_s = duration;
  workload.mean_rate = 500.0;
  workload.pattern = trace::TwitterTraceConfig::Pattern::kBursty;
  workload.seed = 2024;
  workload.rate_track =
      trace::MakeSpikyTrack(500.0, duration, 1.8, 15.0, 60.0, 7);
  const trace::Trace posts = trace::SynthesizeTwitterTrace(workload);

  std::cout << "moderation stream: " << posts.Size() << " posts over "
            << minutes << " min (peak "
            << TablePrinter::Num(workload.rate_track.PeakRate(), 0)
            << " posts/s)\n\n";

  std::vector<sim::SchemeReport> reports;
  for (const char* scheme_name : {"st", "arlo"}) {
    baselines::ScenarioConfig config;
    config.model = runtime::ModelSpec::BertBase();
    config.gpus = 4;  // initial provisioning; autoscaler takes it from here
    config.slo = Millis(150.0);
    config.period = Seconds(15.0);
    config.autoscale = true;
    config.autoscaler.min_gpus = 2;
    config.autoscaler.latency_window = Seconds(8.0);
    config.autoscaler.scale_out_cooldown = Seconds(2.0);
    config.autoscaler.scale_in_interval = Seconds(30.0);
    config.autoscaler.min_samples = 30;

    auto runtimes = baselines::MakeRuntimeSetFor(config);
    config.initial_demand =
        baselines::DemandFromTrace(posts, *runtimes, config.slo);

    auto scheme = baselines::MakeSchemeByName(scheme_name, config);
    const sim::EngineResult result = sim::RunScenario(posts, *scheme);
    reports.push_back(sim::MakeReport(scheme_name, result, config.slo));

    const double gpu_seconds =
        result.time_weighted_gpus * ToSeconds(result.end_time);
    std::cout << scheme_name << ": " << TablePrinter::Num(gpu_seconds, 0)
              << " GPU-seconds consumed, peak " << result.peak_gpus
              << " GPUs\n";
  }
  std::cout << '\n';
  sim::PrintComparison(std::cout,
                       "moderation pipeline — padded ST vs Arlo", reports);
  std::cout << "\nArlo holds the same SLO with fewer GPU-seconds because "
               "short posts never pay 512-token padding.\n";
  return 0;
}

int main(int argc, char** argv) { return RunCliMain(argc, argv, Run); }

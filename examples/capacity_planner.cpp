// Capacity planner: how many GPUs does a request stream need, and how
// should they be split across runtimes?
//
// This example drives the offline half of Arlo directly — the profiler and
// the allocation solver — the way an operator would before provisioning a
// cluster: give it a model, an SLO, and an expected request-length
// distribution + rate, and it reports, for each candidate cluster size,
// the ILP's allocation and predicted mean latency, plus the smallest
// cluster whose Eq. 3 capacity constraints hold.
//
// Run: ./build/examples/capacity_planner [--rate=3000] [--slo_ms=150]
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "runtime/profiler.h"
#include "runtime/runtime_set.h"
#include "solver/allocation.h"
#include "trace/length_distribution.h"

using namespace arlo;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const double rate = flags.GetDouble("rate", 3000.0);
  const SimDuration slo = Millis(flags.GetDouble("slo_ms", 150.0));
  flags.RejectUnknown();

  // Offline stage: compile the polymorphed runtime set and profile it.
  runtime::SimulatedCompiler compiler;
  const runtime::RuntimeSet runtimes =
      runtime::MakeArloRuntimeSet(compiler, runtime::ModelSpec::BertBase());
  std::vector<std::shared_ptr<const runtime::CompiledRuntime>> ptrs;
  for (std::size_t i = 0; i < runtimes.Size(); ++i) {
    ptrs.push_back(runtimes.RuntimePtr(static_cast<RuntimeId>(i)));
  }
  const auto profiles =
      runtime::ProfileRuntimeSet(ptrs, slo, /*per_request_overhead=*/Millis(0.8));

  std::cout << "compiled " << compiler.ArtifactCount() << " runtimes in "
            << FormatDuration(compiler.TotalBuildCost())
            << " of (simulated) build time\n";

  TablePrinter profile_table("offline profiles");
  profile_table.SetHeader({"runtime", "max_len", "service_ms", "M(SLO)"});
  for (const auto& p : profiles) {
    profile_table.AddRow({TablePrinter::Int(p.id),
                          TablePrinter::Int(p.max_length),
                          TablePrinter::Num(ToMillis(p.compute_time)),
                          TablePrinter::Int(p.capacity_within_slo)});
  }
  profile_table.Print(std::cout);

  // Expected demand: the calibrated Twitter length model at the target rate,
  // expressed as requests per SLO window per runtime bin.
  auto lengths = trace::MakeTwitter512LengthModel();
  Rng rng(7);
  const Histogram sample = lengths->SampleHistogram(rng, 200000);
  const auto bounds = runtimes.BinUpperBounds();
  std::vector<double> demand(bounds.size(), 0.0);
  int lo = 1;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const double frac =
        static_cast<double>(sample.CountInRange(lo, bounds[i])) /
        static_cast<double>(sample.Total());
    demand[i] = frac * rate * ToSeconds(slo);
    lo = bounds[i] + 1;
  }

  // Sweep cluster sizes; report allocation + the solver's latency model.
  TablePrinter plan("capacity plan @ " + TablePrinter::Num(rate, 0) +
                    " req/s, SLO " + TablePrinter::Num(ToMillis(slo), 0) +
                    " ms");
  plan.SetHeader({"gpus", "feasible", "allocation", "pred_mean_ms"});
  int minimum_feasible = -1;
  for (int gpus = 2; gpus <= 40; gpus += 2) {
    solver::AllocationProblem problem;
    problem.gpus = gpus;
    problem.demand = demand;
    problem.profiles = profiles;
    const solver::AllocationResult result =
        solver::SolveAllocationExact(problem);
    std::string alloc;
    for (std::size_t i = 0; i < result.gpus_per_runtime.size(); ++i) {
      if (i > 0) alloc += '/';
      alloc += std::to_string(result.gpus_per_runtime[i]);
    }
    double total_demand = 0.0;
    for (double q : demand) total_demand += q;
    const double pred_mean_ms =
        total_demand > 0.0 ? result.objective / total_demand / 1e6 : 0.0;
    plan.AddRow({TablePrinter::Int(gpus), result.feasible ? "yes" : "NO",
                 alloc, TablePrinter::Num(pred_mean_ms)});
    if (result.feasible && minimum_feasible < 0) minimum_feasible = gpus;
  }
  plan.Print(std::cout);
  if (minimum_feasible > 0) {
    std::cout << "\nsmallest SLO-feasible cluster: " << minimum_feasible
              << " GPUs\n";
  } else {
    std::cout << "\nno cluster size up to 40 GPUs satisfies Eq. 3 at this "
                 "rate — raise the SLO or lower the rate\n";
  }
  return 0;
}

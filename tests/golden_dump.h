// Helpers for the golden-pin suites (ExecutorGolden, SchemeGolden): an
// FNV-1a hash and a canonical text dump of every EngineResult field and
// record, so a seeded run's whole outcome can be pinned by one constant.
#pragma once

#include <cstdint>
#include <iomanip>
#include <ostream>
#include <string>

#include "sim/engine.h"

namespace arlo::golden {

inline std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

inline void DumpRecord(std::ostream& os, const RequestRecord& r) {
  os << r.id << ' ' << r.arrival << ' ' << r.dispatch << ' ' << r.start << ' '
     << r.first_token << ' ' << r.completion << ' ' << r.length << ' '
     << r.decode_len << ' ' << r.stream << ' ' << r.tenant_class << ' '
     << static_cast<std::int64_t>(r.runtime) << ' '
     << static_cast<std::int64_t>(r.instance) << '\n';
}

/// Every EngineResult counter, then every record and shed record.
inline void DumpResult(std::ostream& os, const sim::EngineResult& result) {
  os << std::setprecision(17) << "\nend_time " << result.end_time
     << "\ntime_weighted_gpus " << result.time_weighted_gpus
     << "\npeak_gpus " << result.peak_gpus << "\nbuffered_requests "
     << result.buffered_requests << "\ngpu_busy_fraction "
     << result.gpu_busy_fraction << "\ninjected_failures "
     << result.injected_failures << "\nfaults_injected "
     << result.faults_injected << "\nretries " << result.retries
     << "\nrequeues " << result.requeues << "\nsheds " << result.sheds
     << "\nbatches_formed " << result.batches_formed << "\nbatch_timeouts "
     << result.batch_timeouts << "\ngen_prefill_iterations "
     << result.gen_prefill_iterations << "\ngen_decode_iterations "
     << result.gen_decode_iterations << "\ngen_tokens " << result.gen_tokens
     << "\ngen_preemptions " << result.gen_preemptions << "\nrecords\n";
  for (const RequestRecord& r : result.records) DumpRecord(os, r);
  os << "shed_records\n";
  for (const RequestRecord& r : result.shed_records) DumpRecord(os, r);
}

}  // namespace arlo::golden

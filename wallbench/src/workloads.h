// The benchmark's three workloads. Each runs untraced (end-to-end
// metrics) or traced (per-layer metrics); see wallbench/README.md for why
// each workload exists and which layers it loads and bypasses.
#ifndef WALLBENCH_WORKLOADS_H_
#define WALLBENCH_WORKLOADS_H_

#include <string>

#include "bench_common.h"

namespace wallbench {

/// Open-loop Poisson ladder into a 2-worker SynthesisServer with 8
/// path-backed tenants.
WorkloadResult RunServeZipf(const RunArgs& args, Tracer* tracer);

/// RunFromCsvStreaming from a Digix ads CSV to an output CSV; each timed
/// job runs in a child process so its peak RSS is its own.
WorkloadResult RunOocoreCsv(const RunArgs& args, Tracer* tracer);

/// Eight Digix trials through MultiTablePipeline::Run, scored for fidelity
/// outside the timed window.
WorkloadResult RunPipelineDigix(const RunArgs& args, Tracer* tracer);

/// Child-process entry of one out-of-core job: runs RunFromCsvStreaming
/// from `input` to `output` and writes its wall time and report to
/// `result_path`. Returns the process exit code.
int OocoreJobMain(const std::string& input, const std::string& output,
                  const std::string& result_path);

}  // namespace wallbench

#endif  // WALLBENCH_WORKLOADS_H_

/**
 * @file
 * The Section 4.3.2 delayed-update experiment.
 *
 * The paper validates that commit-time (delayed) update of the IMLI
 * outer-history table is accuracy-neutral: with updates deferred until up
 * to 63 further conditional branches have been fetched — a very large
 * instruction window — the predictor loses only ~0.002 MPKI.  This module
 * sweeps the modelled delay for a host predictor over a benchmark suite.
 */

#ifndef IMLI_SRC_SPEC_DELAYED_UPDATE_HH
#define IMLI_SRC_SPEC_DELAYED_UPDATE_HH

#include <string>
#include <vector>

#include "src/workloads/benchmark_spec.hh"

namespace imli
{

/** One point of the delay sweep. */
struct DelayedUpdatePoint
{
    unsigned delay = 0;  //!< branches of outer-history update delay
    double mpkiCbp4 = 0.0;
    double mpkiCbp3 = 0.0;
    double mpkiAll = 0.0;
};

/**
 * Run "host+I" (host in {"tage-gsc", "gehl"}) over @p benchmarks for each
 * delay value (the spec "host+i@oh.delay=D", so each delay must lie in
 * that key's range) and return the average MPKI per point.  This is the
 * paper's original experiment: only the outer-history table write is
 * delayed (ImliOuterHistory's internal queue); everything else updates
 * immediately.
 */
std::vector<DelayedUpdatePoint>
runDelayedUpdateSweep(const std::vector<BenchmarkSpec> &benchmarks,
                      const std::vector<unsigned> &delays,
                      const std::string &host,
                      std::size_t branches_per_trace);

/**
 * One point of the full-pipeline delay sweep: the host with and without
 * the IMLI components, both trained at commit time behind @p delay
 * in-flight branches (the speculative pipeline engine of
 * src/sim/pipeline_simulator.hh).
 */
struct PipelineDelayPoint
{
    unsigned delay = 0;      //!< in-flight branches between fetch and commit
    double mpkiHost = 0.0;   //!< average MPKI, plain host
    double mpkiImli = 0.0;   //!< average MPKI, host+I

    /** The IMLI accuracy benefit surviving at this update delay. */
    double imliBenefit() const { return mpkiHost - mpkiImli; }
};

/**
 * The Section 4.3.2 claim restated on the pipeline engine: sweep the
 * *whole predictor's* update delay and measure whether the IMLI benefit
 * (host vs host+I) survives commit-time update.  Every delay point of
 * both configs rides one streamed pass per benchmark; delay 0 uses the
 * pipeline engine too, so the baseline shares every code path.
 */
std::vector<PipelineDelayPoint>
runPipelineDelaySweep(const std::vector<BenchmarkSpec> &benchmarks,
                      const std::vector<unsigned> &delays,
                      const std::string &host,
                      std::size_t branches_per_trace);

} // namespace imli

#endif // IMLI_SRC_SPEC_DELAYED_UPDATE_HH

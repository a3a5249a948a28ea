#include "src/spec/delayed_update.hh"

#include <stdexcept>

#include "src/predictors/zoo.hh"
#include "src/sim/simulator.hh"
#include "src/workloads/generator_source.hh"

namespace imli
{

std::vector<DelayedUpdatePoint>
runDelayedUpdateSweep(const std::vector<BenchmarkSpec> &benchmarks,
                      const std::vector<unsigned> &delays,
                      const std::string &host,
                      std::size_t branches_per_trace)
{
    if (host != "tage-gsc" && host != "gehl")
        throw std::invalid_argument("unknown host: " + host);

    struct Accum
    {
        double cbp4 = 0.0;
        double cbp3 = 0.0;
        double all = 0.0;
        unsigned cbp4Count = 0;
        unsigned cbp3Count = 0;
    };
    std::vector<Accum> accums(delays.size());

    for (const BenchmarkSpec &spec : benchmarks) {
        // One delay config per predictor, all driven over a single
        // streamed pass of the benchmark — the stream is generated once,
        // never materialized.
        std::vector<PredictorPtr> predictors;
        predictors.reserve(delays.size());
        for (unsigned delay : delays)
            predictors.push_back(makePredictor(
                host + "+i@oh.delay=" + std::to_string(delay)));
        GeneratorBranchSource source(spec, branches_per_trace);
        const std::vector<SimResult> results =
            simulateMany(predictors, source);
        for (std::size_t d = 0; d < delays.size(); ++d) {
            const double mpki = results[d].mpki();
            accums[d].all += mpki;
            if (spec.suite == "CBP4") {
                accums[d].cbp4 += mpki;
                ++accums[d].cbp4Count;
            } else {
                accums[d].cbp3 += mpki;
                ++accums[d].cbp3Count;
            }
        }
    }

    std::vector<DelayedUpdatePoint> points;
    points.reserve(delays.size());
    for (std::size_t d = 0; d < delays.size(); ++d) {
        DelayedUpdatePoint p;
        p.delay = delays[d];
        const unsigned total =
            accums[d].cbp4Count + accums[d].cbp3Count;
        p.mpkiCbp4 = accums[d].cbp4Count
                         ? accums[d].cbp4 / accums[d].cbp4Count
                         : 0.0;
        p.mpkiCbp3 = accums[d].cbp3Count
                         ? accums[d].cbp3 / accums[d].cbp3Count
                         : 0.0;
        p.mpkiAll = total ? accums[d].all / total : 0.0;
        points.push_back(p);
    }
    return points;
}

std::vector<PipelineDelayPoint>
runPipelineDelaySweep(const std::vector<BenchmarkSpec> &benchmarks,
                      const std::vector<unsigned> &delays,
                      const std::string &host,
                      std::size_t branches_per_trace)
{
    if (host != "tage-gsc" && host != "gehl")
        throw std::invalid_argument("unknown host: " + host);

    std::vector<double> hostSum(delays.size(), 0.0);
    std::vector<double> imliSum(delays.size(), 0.0);

    for (const BenchmarkSpec &spec : benchmarks) {
        // Predictor order: [host@d0, host+I@d0, host@d1, host+I@d1, ...],
        // every pair pinned to its delay via per-predictor SimOptions —
        // one streamed pass grades the full grid.
        std::vector<PredictorPtr> predictors;
        std::vector<SimOptions> simOptions;
        for (unsigned delay : delays) {
            for (const std::string &config : {host, host + "+i"}) {
                predictors.push_back(makePredictor(config));
                SimOptions sim;
                sim.updateDelay = delay;
                sim.pipeline = true;
                simOptions.push_back(sim);
            }
        }
        GeneratorBranchSource source(spec, branches_per_trace);
        const std::vector<SimResult> results =
            simulateMany(predictors, source, simOptions);
        for (std::size_t d = 0; d < delays.size(); ++d) {
            hostSum[d] += results[2 * d].mpki();
            imliSum[d] += results[2 * d + 1].mpki();
        }
    }

    std::vector<PipelineDelayPoint> points;
    points.reserve(delays.size());
    const double n =
        benchmarks.empty() ? 1.0 : static_cast<double>(benchmarks.size());
    for (std::size_t d = 0; d < delays.size(); ++d) {
        PipelineDelayPoint p;
        p.delay = delays[d];
        p.mpkiHost = hostSum[d] / n;
        p.mpkiImli = imliSum[d] / n;
        points.push_back(p);
    }
    return points;
}

} // namespace imli

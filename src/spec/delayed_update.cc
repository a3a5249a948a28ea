#include "src/spec/delayed_update.hh"

#include <stdexcept>

namespace imli
{

namespace
{

void
checkHost(const std::string &host)
{
    if (host != "tage-gsc" && host != "gehl")
        throw std::invalid_argument("unknown host: " + host);
}

} // anonymous namespace

std::vector<DelayedUpdatePoint>
runDelayedUpdateSweep(const std::vector<BenchmarkSpec> &benchmarks,
                      const std::vector<unsigned> &delays,
                      const std::string &host,
                      const SuiteRunOptions &options)
{
    checkHost(host);
    std::vector<std::string> configs;
    for (unsigned delay : delays)
        configs.push_back(host + "+i@oh.delay=" + std::to_string(delay));
    const SuiteResults results = runSuite(benchmarks, configs, options);

    std::vector<DelayedUpdatePoint> points;
    points.reserve(delays.size());
    for (std::size_t d = 0; d < delays.size(); ++d) {
        DelayedUpdatePoint p;
        p.delay = delays[d];
        p.mpkiCbp4 = results.averageMpki(configs[d], "CBP4");
        p.mpkiCbp3 = results.averageMpki(configs[d], "CBP3");
        p.mpkiAll = results.averageMpki(configs[d]);
        points.push_back(p);
    }
    return points;
}

std::vector<PipelineDelayPoint>
runPipelineDelaySweep(const std::vector<BenchmarkSpec> &benchmarks,
                      const std::vector<unsigned> &delays,
                      const std::string &host,
                      const SuiteRunOptions &options)
{
    checkHost(host);
    // Config order: [host@d0, host+i@d0, host@d1, host+i@d1, ...], each
    // pinned to its delay by the sim.delay key.
    std::vector<std::string> configs;
    for (unsigned delay : delays) {
        const std::string at = "@sim.delay=" + std::to_string(delay);
        configs.push_back(host + at);
        configs.push_back(host + "+i" + at);
    }
    const SuiteResults results = runSuite(benchmarks, configs, options);

    std::vector<PipelineDelayPoint> points;
    points.reserve(delays.size());
    for (std::size_t d = 0; d < delays.size(); ++d) {
        PipelineDelayPoint p;
        p.delay = delays[d];
        p.mpkiHost = results.averageMpki(configs[2 * d]);
        p.mpkiImli = results.averageMpki(configs[2 * d + 1]);
        points.push_back(p);
    }
    return points;
}

} // namespace imli

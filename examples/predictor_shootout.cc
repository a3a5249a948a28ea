/**
 * @file
 * Predictor shootout: the full ladder from bimodal to TAGE-GSC+IMLI on a
 * few benchmarks, demonstrating where each design generation gains its
 * accuracy — and where only the IMLI components help.
 *
 * Usage: predictor_shootout [--branches 150000]
 *                           [--benchmarks SPEC2K6-12,MM-4,WS04]
 *                           [--recorded DIR]  (REC-01..REC-08 become
 *                            addressable benchmark names)
 *                           [--update-delay N]
 *                           [--metrics FILE] [--phase-interval N]
 *
 * With --update-delay N the whole ladder runs on the speculative
 * pipeline engine (training at commit, N in-flight branches); delay 0 is
 * bit-identical to the default immediate engine, so the flag isolates
 * pure update-timing effects across predictor generations.
 *
 * --metrics exports per-(benchmark, rung) predictor-internals counters
 * as JSON (src/obs/metrics.hh); --phase-interval adds a phase-sliced
 * time series per cell.  Both are off by default and inert when off.
 */

#include <fstream>
#include <iostream>

#include "src/corpus/trace_corpus.hh"
#include "src/obs/metrics.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/suite_runner.hh"
#include "src/util/cli.hh"
#include "src/util/table_writer.hh"

namespace
{

const char kUsage[] =
    "usage: predictor_shootout [--branches N] [--benchmarks NAMES]"
    " [--recorded DIR]\n"
    "                          [--update-delay N] [--metrics FILE]\n"
    "                          [--phase-interval N]\n";

} // anonymous namespace

int
main(int argc, char **argv)
try {
    imli::CommandLine cli(argc, argv);
    if (cli.has("help")) {
        std::cout << kUsage;
        return 0;
    }
    const std::size_t branches = cli.getCount("branches", 150000);
    const std::vector<std::string> benchmarks = imli::splitCommaList(cli.getString(
        "benchmarks", "SPEC2K6-04,SPEC2K6-12,MM-4,CLIENT02,MM07,WS04"));
    const std::vector<std::string> ladder = {
        "bimodal",  "gshare",     "gehl",
        "gehl+i",   "tage-gsc",   "tage-gsc+i",
        "meta(tage-gsc,gehl,gshare)",
    };

    // The corpus resolves benchmark names — generated suite members
    // plus, with --recorded DIR, the REC-01..REC-08 scenarios (one
    // shared validation of the directory across all the suite CLIs).
    const imli::TraceCorpus corpus =
        imli::makeSuiteCorpus(cli.getString("recorded", ""));

    imli::SuiteRunOptions options;
    options.branchesPerTrace = branches;
    imli::applyPipelineFlags(cli, options.sim);

    // Observation layer: absent unless --metrics names a file, keeping
    // the default run's inertness guarantee.  Cells are the suite
    // runner's, one per (benchmark, rung), benchmark-major.
    imli::obs::MetricsRegistry registry;
    const bool wantMetrics = cli.has("metrics");
    if (wantMetrics) {
        if (cli.has("phase-interval")) {
            const std::int64_t n = cli.getInt("phase-interval");
            if (n < 1)
                throw std::runtime_error(
                    "--phase-interval: need a branch interval >= 1");
            registry.phaseInterval = static_cast<std::size_t>(n);
        }
        options.metrics = &registry;
    } else if (cli.has("phase-interval")) {
        throw std::runtime_error(
            "--phase-interval requires --metrics FILE");
    }
    // Every flag has been read: a leftover one is a typo, not a default.
    cli.rejectUnreadFlags();

    std::vector<imli::BenchmarkSpec> specs;
    for (const std::string &name : benchmarks)
        specs.push_back(corpus.find(name));
    // The whole ladder rides one streamed pass of each benchmark: the
    // branch stream is generated once and never materialized.
    const imli::SuiteResults results = imli::runSuite(specs, ladder, options);

    imli::TableWriter table(
        options.sim.usePipeline()
            ? "MPKI by predictor generation (pipeline, update delay " +
                  std::to_string(options.sim.updateDelay) + ")"
            : "MPKI by predictor generation");
    std::vector<std::string> header = {"benchmark"};
    header.insert(header.end(), ladder.begin(), ladder.end());
    table.setHeader(header);
    for (std::size_t b = 0; b < specs.size(); ++b) {
        std::vector<std::string> row = {benchmarks[b]};
        for (std::size_t c = 0; c < ladder.size(); ++c)
            row.push_back(imli::formatDouble(
                results.cells[b * ladder.size() + c].mpki, 3));
        table.addRow(row);
    }
    table.print(std::cout);

    if (wantMetrics) {
        const std::string path = cli.getString("metrics");
        std::ofstream out(path, std::ios::binary);
        if (!out)
            throw std::runtime_error(
                "--metrics: cannot open " + path + " for writing");
        registry.writeJson(out);
        if (!out)
            throw std::runtime_error("--metrics: write failed on " + path);
    }

    std::cout << "\nStorage budgets:\n";
    for (const std::string &spec : ladder) {
        imli::PredictorPtr predictor = imli::makePredictor(spec);
        std::cout << "  " << predictor->name() << ": "
                  << predictor->storage().totalKbits() << " Kbits\n";
    }
    return 0;
} catch (const std::exception &e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}

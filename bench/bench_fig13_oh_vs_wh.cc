/**
 * @file
 * Figure 13 — IMLI-OH vs WH prediction accuracy on top of the GEHL
 * predictor (paper, Section 4.3.3).
 *
 * Both side mechanisms target the same correlation (same branch,
 * neighbouring inner iteration, previous outer iteration).  The paper's
 * shape: SPEC2K6-12 / CLIENT02 / MM07 / MM-4 are improved by both; WS03
 * and SPEC2K6-04-class benchmarks are improved by IMLI-OH/SIC but NOT by
 * WH (variable trip counts and guarded branches are outside WH's reach).
 */

#include "bench/bench_common.hh"

using namespace imli;
using namespace imli::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::Csv | BenchArgs::Jobs);
    const std::vector<std::string> configs = {"gehl", "gehl+wh", "gehl+oh",
                                              "gehl+i"};

    const SuiteResults results = runFullSuite(configs, args);
    if (args.csv) {
        printCellsCsv(std::cout, results);
        return 0;
    }

    // Benchmarks the paper calls out in Figure 13, plus the top movers.
    std::vector<std::string> highlight = {
        "SPEC2K6-12", "MM-4", "CLIENT02", "MM07", "WS03", "SPEC2K6-04",
        "WS04"};
    printPerBenchmark(std::cout, results, highlight, configs,
                      "Figure 13: IMLI-OH vs WH on GEHL (MPKI; note the "
                      "WH == base rows on variable-trip benchmarks)");

    TableWriter deltas("Per-benchmark deltas vs GEHL base");
    deltas.setHeader({"benchmark", "d(WH)", "d(OH)", "d(SIC+OH)"});
    for (const std::string &name : highlight) {
        const double base = results.at(name, "gehl").mpki;
        deltas.addRow({name,
                       formatDelta(results.at(name, "gehl+wh").mpki - base,
                                   3),
                       formatDelta(results.at(name, "gehl+oh").mpki - base,
                                   3),
                       formatDelta(results.at(name, "gehl+i").mpki - base,
                                   3)});
    }
    deltas.print(std::cout);
    std::cout << '\n';

    ExperimentReport report("Figure 13 shape",
                            "who captures the outer-history correlation");
    report.addMetric("WH  avg all",
                     results.averageMpki("gehl+wh"),
                     std::nullopt);
    report.addMetric("OH  avg all", results.averageMpki("gehl+oh"),
                     std::nullopt);
    const double wh_2k612 = results.at("SPEC2K6-12", "gehl+wh").mpki -
                            results.at("SPEC2K6-12", "gehl").mpki;
    const double wh_ws04 = results.at("WS04", "gehl+wh").mpki -
                           results.at("WS04", "gehl").mpki;
    report.addMetric("WH delta SPEC2K6-12", wh_2k612, std::nullopt);
    report.addMetric("WH delta WS04 (must be ~0)", wh_ws04, 0.0);
    report.addNote("IMLI-OH covers WH's benchmarks AND the variable-trip "
                   "ones WH structurally cannot track (Section 2.2.2).");
    report.print(std::cout);
    return 0;
}

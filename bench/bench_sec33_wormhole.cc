/**
 * @file
 * Section 3.3 — Wormhole prediction on top of TAGE-GSC and GEHL, and the
 * Section 4.3 introduction experiment (WH on top of IMLI-SIC).
 *
 * Paper values: TAGE-GSC+WH 2.415 CBP4 (-2.4 %) / 3.823 CBP3 (-2.2 %);
 * GEHL+WH 2.802 (-2.2 %) / 4.141 (-2.5 %); the benefit comes from only
 * four benchmarks (SPEC2K6-12, MM-4, CLIENT02, MM07); WH costs 1413
 * bytes.  With SIC already in: TAGE-GSC+SIC+WH 2.323 / 3.675 and
 * GEHL+SIC+WH 2.700 / 3.984.
 */

#include "bench/bench_common.hh"

using namespace imli;
using namespace imli::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::Csv | BenchArgs::Jobs);
    const std::vector<std::string> configs = {
        "tage-gsc", "tage-gsc+wh", "tage-gsc+sic", "tage-gsc+sic+wh",
        "gehl",     "gehl+wh",     "gehl+sic",     "gehl+sic+wh"};

    const SuiteResults results = runFullSuite(configs, args);
    if (args.csv) {
        printCellsCsv(std::cout, results);
        return 0;
    }

    printPerBenchmark(
        std::cout, results,
        {"SPEC2K6-12", "MM-4", "CLIENT02", "MM07", "SPEC2K6-04", "WS04"},
        {"tage-gsc", "tage-gsc+wh", "gehl", "gehl+wh"},
        "Section 3.3: the four WH benchmarks (and two WH cannot touch)");

    ExperimentReport report("Section 3.3",
                            "wormhole as a side predictor (avg MPKI)");
    report.addMetric("TAGE-GSC+WH CBP4",
                     results.averageMpki("tage-gsc+wh", "CBP4"), 2.415);
    report.addMetric("TAGE-GSC+WH CBP3",
                     results.averageMpki("tage-gsc+wh", "CBP3"), 3.823);
    report.addMetric("GEHL+WH CBP4", results.averageMpki("gehl+wh", "CBP4"),
                     2.802);
    report.addMetric("GEHL+WH CBP3", results.averageMpki("gehl+wh", "CBP3"),
                     4.141);
    report.addMetric("TAGE WH delta CBP4 (%)",
                     100 * relChange(results, "tage-gsc", "tage-gsc+wh",
                                     "CBP4"),
                     -2.4, "%");
    report.addMetric("TAGE WH delta CBP3 (%)",
                     100 * relChange(results, "tage-gsc", "tage-gsc+wh",
                                     "CBP3"),
                     -2.2, "%");
    report.addMetric("GEHL WH delta CBP4 (%)",
                     100 * relChange(results, "gehl", "gehl+wh", "CBP4"),
                     -2.2, "%");
    report.addMetric("GEHL WH delta CBP3 (%)",
                     100 * relChange(results, "gehl", "gehl+wh", "CBP3"),
                     -2.5, "%");

    // Storage: the WH add-on cost.
    const double wh_bytes =
        (makePredictor("tage-gsc+wh")->storage().totalBytes() -
         makePredictor("tage-gsc")->storage().totalBytes());
    report.addMetric("WH add-on cost (bytes)", wh_bytes, 1413, "bytes");
    report.print(std::cout);

    ExperimentReport sec43("Section 4.3 intro",
                           "WH still helps on top of IMLI-SIC (avg MPKI)");
    sec43.addMetric("TAGE-GSC+SIC+WH CBP4",
                    results.averageMpki("tage-gsc+sic+wh", "CBP4"), 2.323);
    sec43.addMetric("TAGE-GSC+SIC+WH CBP3",
                    results.averageMpki("tage-gsc+sic+wh", "CBP3"), 3.675);
    sec43.addMetric("GEHL+SIC+WH CBP4",
                    results.averageMpki("gehl+sic+wh", "CBP4"), 2.700);
    sec43.addMetric("GEHL+SIC+WH CBP3",
                    results.averageMpki("gehl+sic+wh", "CBP3"), 3.984);
    sec43.addNote("The residual WH benefit over SIC is the outer-history "
                  "correlation IMLI-OH was built to replace.");
    sec43.print(std::cout);
    return 0;
}

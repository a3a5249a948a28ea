/**
 * @file
 * Table 2 — Average misprediction rate (MPKI) for GEHL-based predictors
 * (paper, Section 5).
 *
 * Paper values: sizes 204/256/209/261 Kbits;
 * CBP4 2.864/2.693/2.694/2.562 MPKI; CBP3 4.243/3.924/3.958/3.827 MPKI.
 */

#include "bench/bench_common.hh"

using namespace imli;
using namespace imli::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::Csv | BenchArgs::Jobs);
    const std::vector<std::string> configs = {"gehl", "gehl+l", "gehl+i",
                                              "gehl+i+l"};

    const SuiteResults results = runFullSuite(configs, args);
    if (args.csv) {
        printCellsCsv(std::cout, results);
        return 0;
    }

    printSuiteTable(
        "Table 2: GEHL-based predictors (MPKI, paper values inline)",
        results,
        {{"gehl", "GEHL", 204, 2.864, 4.243},
         {"gehl+l", "GEHL +L (FTL)", 256, 2.693, 3.924},
         {"gehl+i", "GEHL +I", 209, 2.694, 3.958},
         {"gehl+i+l", "GEHL +I+L", 261, 2.562, 3.827}});

    ExperimentReport report("Table 2 shape",
                            "relative MPKI changes vs the GEHL base");
    report.addMetric("+L   CBP4 (%)",
                     100 * relChange(results, "gehl", "gehl+l", "CBP4"),
                     100 * (2.693 / 2.864 - 1), "%");
    report.addMetric("+I   CBP4 (%)",
                     100 * relChange(results, "gehl", "gehl+i", "CBP4"),
                     100 * (2.694 / 2.864 - 1), "%");
    report.addMetric("+I+L CBP4 (%)",
                     100 * relChange(results, "gehl", "gehl+i+l", "CBP4"),
                     100 * (2.562 / 2.864 - 1), "%");
    report.addMetric("+L   CBP3 (%)",
                     100 * relChange(results, "gehl", "gehl+l", "CBP3"),
                     100 * (3.924 / 4.243 - 1), "%");
    report.addMetric("+I   CBP3 (%)",
                     100 * relChange(results, "gehl", "gehl+i", "CBP3"),
                     100 * (3.958 / 4.243 - 1), "%");
    report.addMetric("+I+L CBP3 (%)",
                     100 * relChange(results, "gehl", "gehl+i+l", "CBP3"),
                     100 * (3.827 / 4.243 - 1), "%");
    report.addNote("The paper's key observation holds on GEHL too: +I "
                   "delivers local-history-class gains for ~5 Kbits.");
    report.print(std::cout);
    return 0;
}

/**
 * @file
 * Table 1 — Average misprediction rate (MPKI) for TAGE-GSC-based
 * predictors (paper, Section 5).
 *
 *   | TAGE-GSC | +L | +I | +I+L |  on CBP4 and CBP3 traces,
 *
 * with the hardware budget of each configuration.  Paper values:
 * sizes 228/256/234/261 Kbits; CBP4 2.473/2.365/2.313/2.226 MPKI;
 * CBP3 3.902/3.670/3.649/3.555 MPKI.
 */

#include "bench/bench_common.hh"

using namespace imli;
using namespace imli::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::Csv | BenchArgs::Jobs);
    const std::vector<std::string> configs = {
        "tage-gsc", "tage-gsc+l", "tage-gsc+i", "tage-gsc+i+l"};

    const SuiteResults results = runFullSuite(configs, args);
    if (args.csv) {
        printCellsCsv(std::cout, results);
        return 0;
    }

    printSuiteTable(
        "Table 1: TAGE-GSC-based predictors (MPKI, paper values inline)",
        results,
        {{"tage-gsc", "TAGE-GSC", 228, 2.473, 3.902},
         {"tage-gsc+l", "TAGE-GSC +L", 256, 2.365, 3.670},
         {"tage-gsc+i", "TAGE-GSC +I", 234, 2.313, 3.649},
         {"tage-gsc+i+l", "TAGE-GSC +I+L", 261, 2.226, 3.555}});

    ExperimentReport report("Table 1 shape",
                            "relative MPKI changes vs the TAGE-GSC base");
    report.addMetric("+L   CBP4 (%)",
                     100 * relChange(results, "tage-gsc", "tage-gsc+l",
                                     "CBP4"),
                     100 * (2.365 / 2.473 - 1), "%");
    report.addMetric("+I   CBP4 (%)",
                     100 * relChange(results, "tage-gsc", "tage-gsc+i",
                                     "CBP4"),
                     100 * (2.313 / 2.473 - 1), "%");
    report.addMetric("+I+L CBP4 (%)",
                     100 * relChange(results, "tage-gsc", "tage-gsc+i+l",
                                     "CBP4"),
                     100 * (2.226 / 2.473 - 1), "%");
    report.addMetric("+L   CBP3 (%)",
                     100 * relChange(results, "tage-gsc", "tage-gsc+l",
                                     "CBP3"),
                     100 * (3.670 / 3.902 - 1), "%");
    report.addMetric("+I   CBP3 (%)",
                     100 * relChange(results, "tage-gsc", "tage-gsc+i",
                                     "CBP3"),
                     100 * (3.649 / 3.902 - 1), "%");
    report.addMetric("+I+L CBP3 (%)",
                     100 * relChange(results, "tage-gsc", "tage-gsc+i+l",
                                     "CBP3"),
                     100 * (3.555 / 3.902 - 1), "%");
    report.addNote("IMLI alone ~matches the full local/loop add-on at a "
                   "fraction of its storage; combining both stacks "
                   "partially (Section 5).");
    report.print(std::cout);
    return 0;
}

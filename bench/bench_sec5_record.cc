/**
 * @file
 * Section 5, "Setting a New Branch Prediction Record" — TAGE-SC-L
 * augmented with the IMLI components within the 256-Kbit CBP4 budget.
 *
 * Paper: TAGE-SC-L+IMLI achieves 2.228 MPKI on CBP4 vs the original
 * record of 2.365 (-5.8 %).  Here TAGE-GSC+L plays TAGE-SC-L and
 * TAGE-GSC+I+L the IMLI-augmented record configuration; both carry the
 * full local/loop components, so the comparison isolates the IMLI add-on
 * inside a championship-class predictor.
 */

#include "bench/bench_common.hh"

using namespace imli;
using namespace imli::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::Csv | BenchArgs::Jobs);
    const std::vector<std::string> configs = {"tage-gsc+l",
                                              "tage-gsc+i+l"};

    const SuiteResults results = runFullSuite(configs, args);
    if (args.csv) {
        printCellsCsv(std::cout, results);
        return 0;
    }

    ExperimentReport report("Section 5 record",
                            "IMLI inside the championship configuration");
    report.addMetric("TAGE-SC-L analogue, CBP4",
                     results.averageMpki("tage-gsc+l", "CBP4"), 2.365);
    report.addMetric("TAGE-SC-L+IMLI analogue, CBP4",
                     results.averageMpki("tage-gsc+i+l", "CBP4"), 2.228);
    report.addMetric(
        "record improvement (%)",
        100 * relChange(results, "tage-gsc+l", "tage-gsc+i+l", "CBP4"),
        -5.8, "%");
    report.addMetric("record improvement CBP3 (%)",
                     100 * relChange(results, "tage-gsc+l", "tage-gsc+i+l",
                                     "CBP3"),
                     std::nullopt, "%");
    report.addMetric("budget (Kbits)", storageKbits("tage-gsc+i+l"),
                     256, "Kbits");
    report.addNote("The IMLI components push a local-history-equipped "
                   "predictor further: their correlation is not fully "
                   "contained in local history.");
    report.print(std::cout);
    return 0;
}

/**
 * @file
 * Section 2.3.3 — "Are local history components worth the complexity?"
 *
 * Paper: deactivating the local components and the loop predictor in the
 * 256-Kbit TAGE-SC-L raises mispredictions by 4.8 % (CBP4) and 6.5 %
 * (CBP3); a 16-entry loop predictor alone reclaims about one third of
 * that.  Here TAGE-GSC+L plays TAGE-SC-L; the base is the deactivated
 * variant.
 */

#include "bench/bench_common.hh"

using namespace imli;
using namespace imli::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::Csv | BenchArgs::Jobs);
    const std::vector<std::string> configs = {"tage-gsc", "tage-gsc+loop",
                                              "tage-gsc+l"};

    const SuiteResults results = runFullSuite(configs, args);
    if (args.csv) {
        printCellsCsv(std::cout, results);
        return 0;
    }

    ExperimentReport report("Section 2.3.3",
                            "the value of local history + loop predictor");
    for (const std::string suite : {"CBP4", "CBP3"}) {
        const double full = results.averageMpki("tage-gsc+l", suite);
        const double none = results.averageMpki("tage-gsc", suite);
        const double loop_only =
            results.averageMpki("tage-gsc+loop", suite);
        const double paper_pct = suite == "CBP4" ? 4.8 : 6.5;
        report.addMetric("deactivation cost " + suite + " (%)",
                         100 * (none - full) / full, paper_pct, "%");
        const double reclaimed =
            none - full > 0 ? (none - loop_only) / (none - full) : 0.0;
        report.addMetric("loop-only reclaim " + suite + " (frac)",
                         reclaimed, 0.33, "x");
    }
    report.addNote("The modest deactivation cost is the paper's reason "
                   "real designs skip local history; IMLI then recovers "
                   "the loss for 708 bytes (Table 1).");
    report.print(std::cout);
    return 0;
}

/**
 * @file
 * Extension experiment — the OMLI (outer-loop iteration) counter
 * (DESIGN.md section 8; motivated by the paper's Section 6 outlook).
 *
 * Question: how much of IMLI-OH's benefit can a second *counter* capture,
 * without the 1-Kbit outer-history storage?  OMLI-SIC indexes a voting
 * table with (PC, IMLIcount, outer-phase), which expresses outer-phase-
 * periodic behaviour (e.g. the MM-4 inversion) but not data-dependent
 * diagonals (SPEC2K6-12-class), where the actual previous-outer outcome
 * is required.
 */

#include "bench/bench_common.hh"

using namespace imli;
using namespace imli::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::Csv | BenchArgs::Jobs);
    const std::vector<std::string> configs = {
        "tage-gsc", "tage-gsc+sic", "tage-gsc+sic+omli", "tage-gsc+i"};

    const SuiteResults results = runFullSuite(configs, args);
    if (args.csv) {
        printCellsCsv(std::cout, results);
        return 0;
    }

    printPerBenchmark(std::cout, results,
                      {"MM-4", "SPEC2K6-12", "CLIENT02", "MM07",
                       "SPEC2K6-04", "WS04", "WS03"},
                      configs,
                      "OMLI extension: outer-phase counter vs the full "
                      "outer history (MPKI)");

    ExperimentReport report("Extension: OMLI",
                            "phase counter vs outer-history storage");
    report.addMetric("SIC avg all", results.averageMpki("tage-gsc+sic"),
                     std::nullopt);
    report.addMetric("SIC+OMLI avg all",
                     results.averageMpki("tage-gsc+sic+omli"),
                     std::nullopt);
    report.addMetric("SIC+OH (+I) avg all",
                     results.averageMpki("tage-gsc+i"), std::nullopt);
    const double omli_mm4 =
        results.at("MM-4", "tage-gsc+sic+omli").mpki -
        results.at("MM-4", "tage-gsc+sic").mpki;
    const double oh_mm4 = results.at("MM-4", "tage-gsc+i").mpki -
                          results.at("MM-4", "tage-gsc+sic").mpki;
    report.addMetric("MM-4: OMLI delta", omli_mm4, std::nullopt);
    report.addMetric("MM-4: OH delta", oh_mm4, std::nullopt);
    const double omli_2k612 =
        results.at("SPEC2K6-12", "tage-gsc+sic+omli").mpki -
        results.at("SPEC2K6-12", "tage-gsc+sic").mpki;
    report.addMetric("SPEC2K6-12: OMLI delta (expect ~0)", omli_2k612,
                     0.0);
    report.addNote("OMLI captures phase-periodic outer behaviour (MM-4) "
                   "for 0.75 KB and 20 checkpoint bits, but cannot "
                   "express data-dependent diagonals — those need the "
                   "outer-history table, which is why the paper built "
                   "IMLI-OH.");
    report.print(std::cout);
    return 0;
}

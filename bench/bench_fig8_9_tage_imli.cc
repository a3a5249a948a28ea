/**
 * @file
 * Figures 8 and 9 — IMLI-induced MPKI reduction on TAGE-GSC (paper,
 * Section 4.2.2): stacked bars of the IMLI-SIC reduction and the
 * additional IMLI-OH reduction, over all 80 benchmarks (Fig. 8) and the
 * 15 most-benefitting ones (Fig. 9).
 *
 * Paper anchors: IMLI-SIC alone moves the averages 2.473 -> 2.373 (CBP4)
 * and 3.902 -> 3.733 (CBP3); per-benchmark SIC highlights are
 * SPEC2K6-04 -2.37, SPEC2K6-12 -1.16, WS04 -3.20, MM07 -2.17,
 * CLIENT02 -0.64 MPKI.  IMLI-OH on top of SIC is worth a further
 * -2.0 % (CBP4) / -2.3 % (CBP3).
 */

#include <algorithm>

#include "bench/bench_common.hh"

using namespace imli;
using namespace imli::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::Csv | BenchArgs::Jobs);
    const std::vector<std::string> configs = {"tage-gsc", "tage-gsc+sic",
                                              "tage-gsc+i"};

    const SuiteResults results = runFullSuite(configs, args);
    if (args.csv) {
        printCellsCsv(std::cout, results);
        return 0;
    }

    // ---- Figure 8: all 80 benchmarks ----------------------------------
    TableWriter fig8("Figure 8: IMLI-induced MPKI reduction, TAGE-GSC "
                     "(SIC bar + OH-on-top bar)");
    fig8.setHeader({"benchmark", "base", "d(SIC)", "d(+OH)", "d(total)"});
    for (const std::string &name : results.benchmarkNames()) {
        const double base = results.at(name, "tage-gsc").mpki;
        const double sic = results.at(name, "tage-gsc+sic").mpki;
        const double imli = results.at(name, "tage-gsc+i").mpki;
        fig8.addRow({name, formatDouble(base, 3),
                     formatDelta(sic - base, 3),
                     formatDelta(imli - sic, 3),
                     formatDelta(imli - base, 3)});
    }
    fig8.print(std::cout);
    std::cout << '\n';

    // ---- Figure 9: the 15 most-benefitting benchmarks ------------------
    const auto ranked = results.rankByDelta("tage-gsc", "tage-gsc+i");
    TableWriter fig9("Figure 9: the 15 most-benefitting benchmarks");
    fig9.setHeader({"benchmark", "base", "d(SIC)", "d(total)"});
    for (std::size_t i = 0; i < 15 && i < ranked.size(); ++i) {
        const std::string &name = ranked[i];
        const double base = results.at(name, "tage-gsc").mpki;
        const double sic = results.at(name, "tage-gsc+sic").mpki;
        const double imli = results.at(name, "tage-gsc+i").mpki;
        fig9.addRow({name, formatDouble(base, 3),
                     formatDelta(sic - base, 3),
                     formatDelta(imli - base, 3)});
    }
    fig9.print(std::cout);
    std::cout << '\n';

    // ---- Section 4.2.2 anchors -----------------------------------------
    ExperimentReport report("Fig 8/9 anchors",
                            "Section 4.2.2 / 4.3.3 reference points");
    report.addMetric("SIC avg CBP4",
                     results.averageMpki("tage-gsc+sic", "CBP4"), 2.373);
    report.addMetric("SIC avg CBP3",
                     results.averageMpki("tage-gsc+sic", "CBP3"), 3.733);
    for (const auto &[name, paper] :
         std::vector<std::pair<std::string, double>>{
             {"SPEC2K6-04", -2.37},
             {"SPEC2K6-12", -1.16},
             {"WS04", -3.20},
             {"MM07", -2.17},
             {"CLIENT02", -0.64}}) {
        report.addMetric("SIC delta " + name,
                         results.at(name, "tage-gsc+sic").mpki -
                             results.at(name, "tage-gsc").mpki,
                         paper);
    }
    report.addMetric("OH-on-SIC CBP4 (%)",
                     100 * relChange(results, "tage-gsc+sic", "tage-gsc+i",
                                     "CBP4"),
                     -2.0, "%");
    report.addMetric("OH-on-SIC CBP3 (%)",
                     100 * relChange(results, "tage-gsc+sic", "tage-gsc+i",
                                     "CBP3"),
                     -2.3, "%");
    report.addNote("Benefit concentrates in a handful of benchmarks; the "
                   "rest barely move (Figure 8).");
    report.print(std::cout);
    return 0;
}

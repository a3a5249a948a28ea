/**
 * @file
 * Figures 10 and 11 — IMLI-induced MPKI reduction on GEHL (paper,
 * Section 4.2.2): the same analysis as Figures 8/9, on the neural host.
 *
 * Paper anchors: IMLI-SIC moves GEHL from 2.864 to 2.752 (CBP4) and from
 * 4.243 to 4.053 (CBP3); the same benchmarks as on TAGE-GSC are improved.
 */

#include "bench/bench_common.hh"

using namespace imli;
using namespace imli::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::Csv | BenchArgs::Jobs);
    const std::vector<std::string> configs = {"gehl", "gehl+sic", "gehl+i"};

    const SuiteResults results = runFullSuite(configs, args);
    if (args.csv) {
        printCellsCsv(std::cout, results);
        return 0;
    }

    TableWriter fig10("Figure 10: IMLI-induced MPKI reduction, GEHL");
    fig10.setHeader({"benchmark", "base", "d(SIC)", "d(+OH)", "d(total)"});
    for (const std::string &name : results.benchmarkNames()) {
        const double base = results.at(name, "gehl").mpki;
        const double sic = results.at(name, "gehl+sic").mpki;
        const double imli = results.at(name, "gehl+i").mpki;
        fig10.addRow({name, formatDouble(base, 3),
                      formatDelta(sic - base, 3),
                      formatDelta(imli - sic, 3),
                      formatDelta(imli - base, 3)});
    }
    fig10.print(std::cout);
    std::cout << '\n';

    const auto ranked = results.rankByDelta("gehl", "gehl+i");
    TableWriter fig11("Figure 11: the 15 most-benefitting benchmarks");
    fig11.setHeader({"benchmark", "base", "d(SIC)", "d(total)"});
    for (std::size_t i = 0; i < 15 && i < ranked.size(); ++i) {
        const std::string &name = ranked[i];
        const double base = results.at(name, "gehl").mpki;
        const double sic = results.at(name, "gehl+sic").mpki;
        const double imli = results.at(name, "gehl+i").mpki;
        fig11.addRow({name, formatDouble(base, 3),
                      formatDelta(sic - base, 3),
                      formatDelta(imli - base, 3)});
    }
    fig11.print(std::cout);
    std::cout << '\n';

    ExperimentReport report("Fig 10/11 anchors",
                            "Section 4.2.2 reference points on GEHL");
    report.addMetric("base CBP4", results.averageMpki("gehl", "CBP4"),
                     2.864);
    report.addMetric("base CBP3", results.averageMpki("gehl", "CBP3"),
                     4.243);
    report.addMetric("SIC avg CBP4",
                     results.averageMpki("gehl+sic", "CBP4"), 2.752);
    report.addMetric("SIC avg CBP3",
                     results.averageMpki("gehl+sic", "CBP3"), 4.053);
    report.addMetric("I avg CBP4", results.averageMpki("gehl+i", "CBP4"),
                     2.694);
    report.addMetric("I avg CBP3", results.averageMpki("gehl+i", "CBP3"),
                     3.958);
    report.addNote("Same shape as TAGE-GSC: the components are host-"
                   "agnostic adder-tree plug-ins (Figures 5/6).");
    report.print(std::cout);
    return 0;
}

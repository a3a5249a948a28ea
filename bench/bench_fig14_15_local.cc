/**
 * @file
 * Figures 14 and 15 — Benefits of local history components on TAGE and
 * GEHL for the 25 most-affected benchmarks (paper, Section 5): Base,
 * Base+L, Base+I, Base+I+L per benchmark.
 *
 * The paper's point: local history helps a broader set of benchmarks than
 * IMLI but by smaller amounts, and its benefit shrinks once IMLI is in —
 * the correlations partially overlap.
 */

#include "bench/bench_common.hh"

using namespace imli;
using namespace imli::bench;

namespace
{

void
printFigure(const std::string &title, const SuiteResults &results,
            const std::string &base, const std::string &with_l,
            const std::string &with_i, const std::string &with_il)
{
    const auto ranked = results.rankByDelta(base, with_l);
    TableWriter table(title);
    table.setHeader({"benchmark", "base", "+L", "+I", "+I+L",
                     "L-benefit", "L-benefit on I"});
    for (std::size_t i = 0; i < 25 && i < ranked.size(); ++i) {
        const std::string &name = ranked[i];
        const double b = results.at(name, base).mpki;
        const double l = results.at(name, with_l).mpki;
        const double im = results.at(name, with_i).mpki;
        const double il = results.at(name, with_il).mpki;
        table.addRow({name, formatDouble(b, 3), formatDouble(l, 3),
                      formatDouble(im, 3), formatDouble(il, 3),
                      formatDelta(b - l, 3), formatDelta(im - il, 3)});
    }
    table.print(std::cout);
    std::cout << '\n';
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::Csv | BenchArgs::Jobs);
    const std::vector<std::string> configs = {
        "tage-gsc", "tage-gsc+l", "tage-gsc+i", "tage-gsc+i+l",
        "gehl",     "gehl+l",     "gehl+i",     "gehl+i+l"};

    const SuiteResults results = runFullSuite(configs, args);
    if (args.csv) {
        printCellsCsv(std::cout, results);
        return 0;
    }

    printFigure("Figure 14: local history benefits on TAGE-GSC "
                "(25 most-affected benchmarks)",
                results, "tage-gsc", "tage-gsc+l", "tage-gsc+i",
                "tage-gsc+i+l");
    printFigure("Figure 15: local history benefits on GEHL "
                "(25 most-affected benchmarks)",
                results, "gehl", "gehl+l", "gehl+i", "gehl+i+l");

    ExperimentReport report(
        "Section 5 anchors",
        "local benefit, alone vs on top of the IMLI components (MPKI)");
    const double t_alone_4 = results.averageMpki("tage-gsc", "CBP4") -
                             results.averageMpki("tage-gsc+l", "CBP4");
    const double t_onimli_4 = results.averageMpki("tage-gsc+i", "CBP4") -
                              results.averageMpki("tage-gsc+i+l", "CBP4");
    const double t_alone_3 = results.averageMpki("tage-gsc", "CBP3") -
                             results.averageMpki("tage-gsc+l", "CBP3");
    const double t_onimli_3 = results.averageMpki("tage-gsc+i", "CBP3") -
                              results.averageMpki("tage-gsc+i+l", "CBP3");
    report.addMetric("TAGE: L alone, CBP4", t_alone_4, 0.108);
    report.addMetric("TAGE: L on IMLI, CBP4", t_onimli_4, 0.087);
    report.addMetric("TAGE: L alone, CBP3", t_alone_3, 0.232);
    report.addMetric("TAGE: L on IMLI, CBP3", t_onimli_3, 0.094);
    const double g_alone_4 = results.averageMpki("gehl", "CBP4") -
                             results.averageMpki("gehl+l", "CBP4");
    const double g_onimli_4 = results.averageMpki("gehl+i", "CBP4") -
                              results.averageMpki("gehl+i+l", "CBP4");
    const double g_alone_3 = results.averageMpki("gehl", "CBP3") -
                             results.averageMpki("gehl+l", "CBP3");
    const double g_onimli_3 = results.averageMpki("gehl+i", "CBP3") -
                              results.averageMpki("gehl+i+l", "CBP3");
    report.addMetric("GEHL: L alone, CBP4", g_alone_4, 0.171);
    report.addMetric("GEHL: L on IMLI, CBP4", g_onimli_4, 0.132);
    report.addMetric("GEHL: L alone, CBP3", g_alone_3, 0.319);
    report.addMetric("GEHL: L on IMLI, CBP3", g_onimli_3, 0.131);
    report.addNote("Shrinking L-benefit on top of IMLI = the overlap the "
                   "paper uses against local history hardware.");
    report.print(std::cout);
    return 0;
}

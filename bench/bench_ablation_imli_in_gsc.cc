/**
 * @file
 * Ablation — inserting the IMLI counter into the indices of two global
 * SC tables (paper, Section 4.2: "the benefit can be further increased
 * by inserting the IMLI counter in the indices of two tables in the
 * global history component of the SC").
 *
 * Sweeps 0/1/2/4 IMLI-indexed tables with the SIC table active.
 */

#include "bench/bench_common.hh"
#include "src/predictors/tage_gsc.hh"
#include "src/sim/simulator.hh"

using namespace imli;
using namespace imli::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::BranchesOnly);
    const std::vector<std::string> names = {"SPEC2K6-04", "SPEC2K6-12",
                                            "WS04", "MM07", "SERVER-5",
                                            "MM-2"};
    const std::vector<unsigned> counts = {0, 1, 2, 4};

    TableWriter table("Ablation: IMLI counter in the global SC indices "
                      "(MPKI; paper uses 2 tables)");
    std::vector<std::string> header = {"benchmark"};
    for (unsigned c : counts)
        header.push_back(std::to_string(c) + " tables");
    table.setHeader(header);

    std::vector<double> totals(counts.size(), 0.0);
    for (const std::string &name : names) {
        const Trace trace =
            generateTrace(findBenchmark(name), args.branches);
        std::vector<std::string> row = {name};
        for (std::size_t i = 0; i < counts.size(); ++i) {
            TageGscPredictor::Config cfg;
            cfg.enableImli = true;
            cfg.imli.enableSic = true;
            cfg.imli.enableOh = false;
            cfg.imli.sic.weight = 3;
            cfg.gsc.imliIndexTables = counts[i];
            TageGscPredictor pred(cfg);
            const double mpki = simulate(pred, trace).mpki();
            totals[i] += mpki;
            row.push_back(formatDouble(mpki, 3));
        }
        table.addRow(row);
    }
    std::vector<std::string> avg_row = {"(mean)"};
    for (double t : totals)
        avg_row.push_back(formatDouble(t / names.size(), 3));
    table.addSeparator();
    table.addRow(avg_row);
    table.print(std::cout);

    std::cout << "\nReading guide: a small extra gain from 2 tables on "
                 "the SIC-heavy benchmarks, and no harm elsewhere — the "
                 "Section 4.2 refinement.\n";
    return 0;
}

/**
 * @file
 * Ablation — IMLI-SIC table size sweep (DESIGN.md, experiment index).
 *
 * The paper states a 512-entry table "captures most of the potential
 * benefit" (Section 4.2).  This bench sweeps 64..4096 entries on the
 * SIC-sensitive benchmarks to locate the knee.
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
                                            "WS04", "MM07", "WS03"};
    const std::vector<unsigned> log_sizes = {6, 7, 8, 9, 10, 11, 12};

    TableWriter table("Ablation: IMLI-SIC table size (MPKI; paper picks "
                      "512 = 2^9)");
    std::vector<std::string> header = {"benchmark", "base"};
    for (unsigned log_size : log_sizes)
        header.push_back(std::to_string(1u << log_size));
    table.setHeader(header);

    std::vector<double> totals(log_sizes.size(), 0.0);
    double base_total = 0.0;
    for (const std::string &name : names) {
        const Trace trace =
            generateTrace(findBenchmark(name), args.branches);
        std::vector<std::string> row = {name};

        TageGscPredictor::Config base_cfg;
        TageGscPredictor base(base_cfg);
        const double base_mpki = simulate(base, trace).mpki();
        base_total += base_mpki;
        row.push_back(formatDouble(base_mpki, 3));

        for (std::size_t i = 0; i < log_sizes.size(); ++i) {
            TageGscPredictor::Config cfg;
            cfg.enableImli = true;
            cfg.imli.enableSic = true;
            cfg.imli.enableOh = false;
            cfg.imli.sic.logEntries = log_sizes[i];
            cfg.imli.sic.weight = 3;
            cfg.gsc.imliIndexTables = 2;
            TageGscPredictor pred(cfg);
            const double mpki = simulate(pred, trace).mpki();
            totals[i] += mpki;
            row.push_back(formatDouble(mpki, 3));
        }
        table.addRow(row);
    }
    std::vector<std::string> avg_row = {"(mean)"};
    avg_row.push_back(formatDouble(base_total / names.size(), 3));
    for (double t : totals)
        avg_row.push_back(formatDouble(t / names.size(), 3));
    table.addSeparator();
    table.addRow(avg_row);
    table.print(std::cout);

    std::cout << "\nReading guide: gains should largely flatten past 512 "
                 "entries (the paper's design point); the remaining slope "
                 "is hot-pair aliasing on the biggest nests.\n";
    return 0;
}

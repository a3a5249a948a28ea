/**
 * @file
 * Ablation — IMLI outer-history geometry (DESIGN.md, experiment index).
 *
 * The paper fixes the outer-history table at 1 Kbit (16 branch slots x
 * 64 iteration slots) and the PIPE at 16 bits.  This bench sweeps the
 * table size and disables the PIPE path to show what each element buys:
 * the table feeds Out[N-1][M]; the PIPE feeds Out[N-1][M-1], without
 * which the diagonal (DiagPrev) benchmarks lose most of their benefit.
 */

#include "bench/bench_common.hh"
#include "src/predictors/tage_gsc.hh"
#include "src/sim/simulator.hh"

using namespace imli;
using namespace imli::bench;

namespace
{

double
runConfig(const Trace &trace, unsigned table_bits, bool use_pipe)
{
    TageGscPredictor::Config cfg;
    cfg.enableImli = true;
    cfg.imli.enableSic = true;
    cfg.imli.enableOh = true;
    cfg.imli.sic.weight = 3;
    cfg.imli.outer.tableBits = table_bits;
    // Disabling the PIPE is modelled by shrinking it to one shared entry:
    // the recovered Out[N-1][M-1] degenerates to the last write of any
    // branch, which carries no per-branch information.
    cfg.imli.outer.pipeEntries = use_pipe ? 16 : 1;
    cfg.gsc.imliIndexTables = 2;
    TageGscPredictor pred(cfg);
    return simulate(pred, trace).mpki();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::BranchesOnly);
    const std::vector<std::string> names = {"SPEC2K6-12", "CLIENT02",
                                            "MM07", "WS03", "MM-4"};
    const std::vector<unsigned> table_sizes = {256, 512, 1024, 2048,
                                               4096};

    TableWriter table("Ablation: outer-history table bits x PIPE "
                      "(MPKI with TAGE-GSC+I; paper point = 1024 bits "
                      "with PIPE)");
    std::vector<std::string> header = {"benchmark"};
    for (unsigned bits : table_sizes)
        header.push_back(std::to_string(bits) + "b");
    header.push_back("1024b,noPIPE");
    table.setHeader(header);

    std::vector<double> totals(table_sizes.size() + 1, 0.0);
    for (const std::string &name : names) {
        const Trace trace =
            generateTrace(findBenchmark(name), args.branches);
        std::vector<std::string> row = {name};
        for (std::size_t i = 0; i < table_sizes.size(); ++i) {
            const double mpki = runConfig(trace, table_sizes[i], true);
            totals[i] += mpki;
            row.push_back(formatDouble(mpki, 3));
        }
        const double no_pipe = runConfig(trace, 1024, false);
        totals.back() += no_pipe;
        row.push_back(formatDouble(no_pipe, 3));
        table.addRow(row);
    }
    std::vector<std::string> avg_row = {"(mean)"};
    for (double t : totals)
        avg_row.push_back(formatDouble(t / names.size(), 3));
    table.addSeparator();
    table.addRow(avg_row);
    table.print(std::cout);

    std::cout << "\nReading guide: 1 Kbit sits at the knee (the paper's "
                 "\"we found a 1 Kbit table is sufficient\"), and removing "
                 "the PIPE hurts the diagonal-correlation benchmarks "
                 "(SPEC2K6-12 / CLIENT02 / MM07) most.\n";
    return 0;
}

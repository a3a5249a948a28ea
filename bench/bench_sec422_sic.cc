/**
 * @file
 * Section 4.2.2 — IMLI-SIC evaluation details: the loop-predictor
 * subsumption experiment.
 *
 * Paper: with TAGE-GSC, the loop predictor is worth 0.034 MPKI on CBP4
 * and 0.094 on CBP3; once IMLI-SIC is active the benefit collapses to
 * 0.013 and 0.010 — SIC itself predicts constant-trip loop exits through
 * hash(PC, IMLIcount).
 */

#include "bench/bench_common.hh"

using namespace imli;
using namespace imli::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::Csv | BenchArgs::Jobs);
    const std::vector<std::string> configs = {
        "tage-gsc", "tage-gsc+loop", "tage-gsc+sic", "tage-gsc+sic+loop"};

    const SuiteResults results = runFullSuite(configs, args);
    if (args.csv) {
        printCellsCsv(std::cout, results);
        return 0;
    }

    ExperimentReport report(
        "Section 4.2.2",
        "loop-predictor benefit, before and after IMLI-SIC (MPKI)");
    const double loop_base_4 =
        results.averageMpki("tage-gsc", "CBP4") -
        results.averageMpki("tage-gsc+loop", "CBP4");
    const double loop_sic_4 =
        results.averageMpki("tage-gsc+sic", "CBP4") -
        results.averageMpki("tage-gsc+sic+loop", "CBP4");
    const double loop_base_3 =
        results.averageMpki("tage-gsc", "CBP3") -
        results.averageMpki("tage-gsc+loop", "CBP3");
    const double loop_sic_3 =
        results.averageMpki("tage-gsc+sic", "CBP3") -
        results.averageMpki("tage-gsc+sic+loop", "CBP3");
    report.addMetric("loop benefit, base, CBP4", loop_base_4, 0.034);
    report.addMetric("loop benefit, on SIC, CBP4", loop_sic_4, 0.013);
    report.addMetric("loop benefit, base, CBP3", loop_base_3, 0.094);
    report.addMetric("loop benefit, on SIC, CBP3", loop_sic_3, 0.010);
    report.addNote("Shape: the loop predictor's value shrinks once SIC "
                   "is in, on both suites.");
    report.print(std::cout);

    // The per-benchmark view for the loop-carrying benchmarks.
    printPerBenchmark(std::cout, results,
                      {"SPEC2K6-08", "SERVER-5", "CLIENT06", "MM06",
                       "WS08", "SERVER01", "SERVER05", "SERVER09"},
                      configs,
                      "Loop-carrying benchmarks (MPKI per config)");
    return 0;
}

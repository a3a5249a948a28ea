/**
 * @file
 * The loop-vs-IMLI head-to-head (Section 4.2.2 done in full).
 *
 * The paper's claim is not "loop predictors are useless" but "once
 * IMLI-SIC is in, a dedicated loop predictor no longer pays for its
 * bits": with TAGE-GSC the CBP4 loop benefit collapses from 0.034 MPKI
 * to 0.013 once SIC is active.  This bench puts every exit-predicting
 * side component on the same accuracy-per-storage-bit plane — the plain
 * loop table, the ITTAGE-style tagged exit predictor (itl), wormhole,
 * and IMLI-SIC — alone and stacked on SIC, over the full 80-benchmark
 * generated suite plus, with --recorded DIR, the REC-01..REC-08
 * recorded scenarios (88 benchmarks total).
 *
 * Extra flag on top of the standard bench set:
 *   --recorded DIR   append REC-01..REC-08 from DIR/rec-0N.cbp
 */

#include "bench/bench_common.hh"

#include "src/dse/pareto.hh"

using namespace imli;
using namespace imli::bench;

namespace
{

/** Pareto-mark the configs on the (storage bits, mean MPKI) plane. */
std::vector<ParetoEntry>
markedEntries(const SuiteResults &results,
              const std::vector<std::string> &configs)
{
    std::vector<ParetoEntry> entries;
    entries.reserve(configs.size());
    for (const std::string &spec : configs) {
        ParetoEntry e;
        e.spec = spec;
        e.avgMpki = results.averageMpki(spec);
        e.storageBits = makePredictor(spec)->storageBits();
        entries.push_back(e);
    }
    markDominated(entries);
    return entries;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv,
                         BenchArgs::Csv | BenchArgs::Jobs |
                             BenchArgs::Recorded);

    const std::string base = "tage-gsc";
    const std::vector<std::string> configs = {
        base,
        "tage-gsc+loop",
        "tage-gsc+itl",
        "tage-gsc+sic",
        "tage-gsc+wh",
        "tage-gsc+sic+loop",
        "tage-gsc+sic+itl",
        "tage-gsc+sic+wh",
    };

    // The full generated suite, plus the recorded scenarios on request
    // (the shared corpus-layer --recorded wiring).
    const std::vector<BenchmarkSpec> pool = suitePoolWithRecorded(args);
    const SuiteResults results = runSuite(pool, configs, args.suiteOptions());

    if (args.csv) {
        printCellsCsv(std::cout, results);
        return 0;
    }

    // ---- The head-to-head: MPKI per storage bit, Pareto-marked.
    const std::vector<ParetoEntry> entries = markedEntries(results, configs);
    const double baseMpki = results.averageMpki(base);
    const double baseKbits = storageKbits(base);

    TableWriter table("Loop vs IMLI: exit predictors on the "
                      "accuracy/storage plane (" +
                      std::to_string(pool.size()) + " benchmarks)");
    table.setHeader({"config", "Kbits", "MPKI", "benefit", "per Kbit",
                     "pareto"});
    for (const ParetoEntry &e : entries) {
        const double benefit = baseMpki - e.avgMpki;
        const double extraKbits =
            static_cast<double>(e.storageBits) / 1024.0 - baseKbits;
        table.addRow(
            {e.spec, formatDouble(e.storageBits / 1024.0, 1),
             formatDouble(e.avgMpki, 3),
             e.spec == base ? "-" : formatDouble(benefit, 3),
             e.spec == base || extraKbits <= 0.0
                 ? "-"
                 : formatDouble(benefit / extraKbits, 4),
             e.dominated ? "" : "*"});
    }
    table.print(std::cout);
    std::cout << '\n';

    // ---- The Section 4.2.2 collapse, for each exit component.
    ExperimentReport report(
        "Section 4.2.2 head-to-head",
        "exit-predictor benefit before and after IMLI-SIC (MPKI)");
    const auto benefitOf = [&](const std::string &on,
                               const std::string &with) {
        return results.averageMpki(on) - results.averageMpki(with);
    };
    report.addMetric("loop benefit, base", benefitOf(base, "tage-gsc+loop"),
                     0.034);
    report.addMetric("loop benefit, on SIC",
                     benefitOf("tage-gsc+sic", "tage-gsc+sic+loop"), 0.013);
    report.addMetric("itl benefit, base", benefitOf(base, "tage-gsc+itl"),
                     std::nullopt);
    report.addMetric("itl benefit, on SIC",
                     benefitOf("tage-gsc+sic", "tage-gsc+sic+itl"),
                     std::nullopt);
    report.addMetric("wormhole benefit, base",
                     benefitOf(base, "tage-gsc+wh"), std::nullopt);
    report.addMetric("wormhole benefit, on SIC",
                     benefitOf("tage-gsc+sic", "tage-gsc+sic+wh"),
                     std::nullopt);
    report.addMetric("SIC benefit alone", benefitOf(base, "tage-gsc+sic"),
                     std::nullopt);
    report.addNote("Shape: every dedicated exit predictor keeps less of "
                   "its benefit once SIC is in — SIC already covers "
                   "constant-trip exits through hash(PC, IMLIcount); the "
                   "tagged itl tables retain the correlated-trip share "
                   "SIC cannot see.");
    report.print(std::cout);

    // The per-benchmark view for the loop-carrying benchmarks.
    printPerBenchmark(std::cout, results,
                      {"SPEC2K6-08", "SERVER-5", "CLIENT06", "MM06",
                       "WS08", "SERVER01", "SERVER05", "SERVER09"},
                      {base, "tage-gsc+loop", "tage-gsc+itl",
                       "tage-gsc+sic", "tage-gsc+sic+itl"},
                      "Loop-carrying benchmarks (MPKI per config)");
    return 0;
}

/**
 * @file
 * The meta-chooser shoot-out: what does adaptive per-branch arbitration
 * buy over its own arms, and what does it cost in bits?
 *
 * Every chooser policy (tournament counters, UCB bandit, perceptron
 * fusion) runs over the same three-arm pool — TAGE-GSC, GEHL, gshare —
 * next to each arm alone and a two-host chooser without the cheap
 * gshare arm, all on the (storage bits, mean MPKI) Pareto plane over
 * the full 80-benchmark generated suite plus, with --recorded DIR, the
 * REC-01..REC-08 recorded scenarios (88 benchmarks total).
 *
 * Two shapes matter: a selector policy can at best track its strongest
 * arm per branch (it pays the policy table for the mix), while fusion
 * can beat every individual arm where their errors decorrelate.
 *
 * Extra flag on top of the standard bench set:
 *   --recorded DIR   append REC-01..REC-08 from DIR/rec-0N.cbp
 */

#include "bench/bench_common.hh"

#include <algorithm>

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
    const std::string pool3 = "tage-gsc,gehl,gshare";
    const std::vector<std::string> configs = {
        base,
        "gehl",
        "gshare",
        "meta(" + pool3 + ")",
        "meta(" + pool3 + ")@meta.policy=ucb",
        "meta(" + pool3 + ")@meta.policy=fusion",
        "meta(tage-gsc,gehl)",
        "meta(tage-gsc,gehl)@meta.policy=fusion",
    };

    // The full generated suite, plus the recorded scenarios on request
    // (the shared corpus-layer --recorded wiring).
    const std::vector<BenchmarkSpec> pool = suitePoolWithRecorded(args);
    const SuiteResults results = runSuite(pool, configs, args.suiteOptions());

    if (args.csv) {
        printCellsCsv(std::cout, results);
        return 0;
    }

    // ---- The Pareto plane: policies and arms on accuracy per bit.
    const std::vector<ParetoEntry> entries = markedEntries(results, configs);
    const double baseMpki = results.averageMpki(base);
    const double baseKbits = storageKbits(base);

    TableWriter table("Meta-chooser policies vs their arms on the "
                      "accuracy/storage plane (" +
                      std::to_string(pool.size()) + " benchmarks)");
    table.setHeader({"config", "Kbits", "MPKI", "vs tage-gsc", "pareto"});
    for (const ParetoEntry &e : entries) {
        table.addRow({e.spec, formatDouble(e.storageBits / 1024.0, 1),
                      formatDouble(e.avgMpki, 3),
                      e.spec == base
                          ? "-"
                          : formatDouble(baseMpki - e.avgMpki, 3),
                      e.dominated ? "" : "*"});
    }
    table.print(std::cout);
    std::cout << '\n';

    // ---- Arbitration benefit, policy by policy.
    ExperimentReport report(
        "Adaptive meta-prediction",
        "chooser policies vs the strongest arm (mean MPKI)");
    const double bestArm =
        std::min({results.averageMpki("tage-gsc"),
                  results.averageMpki("gehl"),
                  results.averageMpki("gshare")});
    const auto gainOf = [&](const std::string &spec) {
        return bestArm - results.averageMpki(spec);
    };
    report.addMetric("best single arm (MPKI)", bestArm, std::nullopt);
    report.addMetric("tournament gain over best arm",
                     gainOf("meta(" + pool3 + ")"), std::nullopt);
    report.addMetric("ucb gain over best arm",
                     gainOf("meta(" + pool3 + ")@meta.policy=ucb"),
                     std::nullopt);
    report.addMetric("fusion gain over best arm",
                     gainOf("meta(" + pool3 + ")@meta.policy=fusion"),
                     std::nullopt);
    report.addMetric("fusion gain, two hosts only",
                     gainOf("meta(tage-gsc,gehl)@meta.policy=fusion"),
                     std::nullopt);
    report.addNote("Shape: the selector policies (tournament, ucb) track "
                   "the per-branch best arm and so sit between the arms "
                   "on average; fusion can land above every arm where "
                   "TAGE-GSC and GEHL errors decorrelate.  The extra "
                   "bits are the policy table only — the baseline "
                   "storage cost of arbitration is the arms themselves.");
    report.print(std::cout);

    // The per-benchmark view where the hosts disagree most.
    printPerBenchmark(std::cout, results,
                      {"SPEC2K6-04", "SPEC2K6-12", "MM-4", "WS03",
                       "SERVER-5", "CLIENT06"},
                      {base, "gehl", "meta(" + pool3 + ")",
                       "meta(" + pool3 + ")@meta.policy=fusion"},
                      "Host-disagreement benchmarks (MPKI per config)");
    return 0;
}

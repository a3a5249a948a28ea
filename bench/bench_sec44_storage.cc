/**
 * @file
 * Section 4.4 — Storage and speculative-state audit.
 *
 * Paper numbers reproduced exactly by construction:
 *   - IMLI components total 708 bytes: 384 B SIC + 128 B outer-history
 *     table + 192 B OH table + 4 B for PIPE + counter;
 *   - speculative state = IMLI counter (10 bits) + PIPE (16 bits);
 * plus the configuration budget ladder and the Section 2.3 complexity
 * contrast between checkpointing and in-flight local-history search,
 * measured on the pipeline engine: tage-gsc+i recovers from a
 * checkpoint, tage-gsc+l searches its in-flight window at every fetch
 * (the local/window_compares probe counts the compares).
 */

#include "bench/bench_common.hh"
#include "src/core/imli_components.hh"
#include "src/history/inflight_window.hh"
#include "src/obs/metrics.hh"
#include "src/predictors/local_component.hh"
#include "src/predictors/tage_gsc.hh"

using namespace imli;
using namespace imli::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::Jobs);

    // ---- The 708-byte audit --------------------------------------------
    ImliComponents imli_state;
    StorageAccount audit;
    imli_state.accountAll(audit);
    std::cout << "Section 4.4 storage audit (paper: 708 bytes total):\n"
              << audit.toString() << '\n';

    ExperimentReport storage("Section 4.4", "IMLI budgets");
    storage.addMetric("IMLI total (bytes)",
                      static_cast<double>(audit.totalBytes()), 708,
                      "bytes");
    storage.addMetric("checkpoint width (bits)",
                      imli_state.checkpointBits(), 26, "bits");
    storage.print(std::cout);

    // ---- Config budget ladder -------------------------------------------
    TableWriter budgets("Configuration budgets (Kbits)");
    budgets.setHeader({"config", "measured", "paper"});
    budgets.addRow({"TAGE-GSC", formatDouble(storageKbits("tage-gsc"), 1),
                    "228"});
    budgets.addRow({"TAGE-GSC+I",
                    formatDouble(storageKbits("tage-gsc+i"), 1), "234"});
    budgets.addRow({"TAGE-GSC+L",
                    formatDouble(storageKbits("tage-gsc+l"), 1), "256"});
    budgets.addRow({"TAGE-GSC+I+L",
                    formatDouble(storageKbits("tage-gsc+i+l"), 1), "261"});
    budgets.addRow({"GEHL", formatDouble(storageKbits("gehl"), 1), "204"});
    budgets.addRow({"GEHL+I", formatDouble(storageKbits("gehl+i"), 1),
                    "209"});
    budgets.addRow({"GEHL+L", formatDouble(storageKbits("gehl+l"), 1),
                    "256"});
    budgets.addRow({"GEHL+I+L", formatDouble(storageKbits("gehl+i+l"), 1),
                    "261"});
    budgets.print(std::cout);
    std::cout << '\n';

    // ---- Section 2.3: speculative-management complexity ------------------
    constexpr unsigned kUpdateDelay = 63;
    const unsigned window = kUpdateDelay + 1; // in-flight branches
    obs::MetricsRegistry registry;
    SuiteRunOptions options = args.suiteOptions();
    options.branchesPerTrace = args.branches / 2;
    options.sim.updateDelay = kUpdateDelay;
    options.metrics = &registry;
    const SuiteResults runs = runSuite(
        {findBenchmark("MM07")}, {"tage-gsc+i", "tage-gsc+l"}, options);
    // One benchmark, so cell and slot 0 are tage-gsc+i, 1 tage-gsc+l.
    const obs::MetricsScope &local = registry.cell(1).scope;
    const std::uint64_t searches =
        local.counterValue("local/window_searches");
    const std::uint64_t compares =
        local.counterValue("local/window_compares");
    const double avg_compares =
        searches == 0 ? 0.0 : static_cast<double>(compares) / searches;

    // Global head pointer + IMLI counter + PIPE.
    const unsigned checkpoint_bits =
        TageGscPredictor(TageGscPredictor::Config()).headPointerBits() +
        imli_state.checkpointBits();
    const std::uint64_t window_bits =
        InflightWindow(window, LocalComponent::Config().historyBits)
            .storageBits();

    std::cout << "Section 2.3 complexity contrast on MM07 (update delay "
              << kUpdateDelay << ", window = " << window << "):\n"
              << "  conditional branches:       "
              << runs.cells[1].conditionals << '\n'
              << "  checkpoint width:           " << checkpoint_bits
              << " bits\n"
              << "  in-flight window storage:   " << window_bits
              << " bits\n"
              << "  associative searches:       " << searches << '\n'
              << "  entries visited:            " << compares << '\n'
              << "  avg compares per search:    " << avg_compares << '\n'
              << "  MPKI tage-gsc+i:            "
              << formatDouble(runs.cells[0].mpki, 3) << '\n'
              << "  MPKI tage-gsc+l:            "
              << formatDouble(runs.cells[1].mpki, 3) << "\n\n";

    ExperimentReport spec("Section 2.3",
                          "checkpoint vs in-flight-search disciplines");
    spec.addMetric("checkpoint width (bits)", checkpoint_bits, std::nullopt,
                   "bits");
    spec.addMetric("window storage (bits)",
                   static_cast<double>(window_bits), std::nullopt, "bits");
    spec.addMetric("avg associative compares / prediction", avg_compares,
                   std::nullopt, "ops");
    spec.addNote("Local history pays an associative search on every "
                 "prediction; IMLI pays a few-tens-of-bits checkpoint.");
    spec.print(std::cout);
    return 0;
}

/**
 * @file
 * Section 4.3.2 — Delayed update of the IMLI outer-history table.
 *
 * The paper validates commit-time update by delaying every history-table
 * write until up to 63 further conditional branches have been fetched:
 * the predictor loses only ~0.002 MPKI.  The mechanism: the branches
 * IMLI-OH actually serves sit in loops whose previous-outer-iteration
 * writes committed long before they are read; the PIPE vector (which is
 * speculative and checkpointed) covers the one genuinely young bit.
 *
 * Two experiments, two engines:
 *  1. The paper's original: only the outer-history table write is
 *     delayed (ImliOuterHistory's queue), immediate engine otherwise.
 *  2. The same claim on the speculative pipeline engine
 *     (src/sim/pipeline_simulator.hh): the *entire predictor* trains at
 *     commit behind N in-flight branches, speculative history runs on
 *     predicted outcomes with squash-and-replay recovery — and the IMLI
 *     benefit (host+I vs host) must survive, which is what makes the
 *     component practical in a real core.
 */

#include "bench/bench_common.hh"
#include "src/spec/delayed_update.hh"

using namespace imli;
using namespace imli::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, BenchArgs::Jobs);
    const std::vector<unsigned> delays = {0, 1, 4, 16, 63};

    for (const std::string host : {"tage-gsc", "gehl"}) {
        const auto points =
            runDelayedUpdateSweep(fullSuite(), delays, host,
                                  args.suiteOptions());
        TableWriter table("Section 4.3.2: outer-history update delay "
                          "sweep, host = " + host + "+I (avg MPKI)");
        table.setHeader({"delay (branches)", "CBP4", "CBP3", "all",
                         "loss vs delay 0"});
        for (const auto &p : points) {
            table.addRow({std::to_string(p.delay),
                          formatDouble(p.mpkiCbp4, 4),
                          formatDouble(p.mpkiCbp3, 4),
                          formatDouble(p.mpkiAll, 4),
                          formatDelta(p.mpkiAll - points[0].mpkiAll, 4)});
        }
        table.print(std::cout);

        ExperimentReport report(
            "Section 4.3.2 (" + host + ")",
            "accuracy loss at 63-branch delayed update");
        report.addMetric("MPKI loss at delay 63",
                         points.back().mpkiAll - points.front().mpkiAll,
                         0.002);
        report.addNote("The paper reports ~0.002 MPKI on TAGE-GSC+I; "
                       "anything of that order validates commit-time "
                       "update.");
        report.print(std::cout);
    }

    // ---- The same claim on the pipeline engine -------------------------
    for (const std::string host : {"tage-gsc", "gehl"}) {
        const auto points =
            runPipelineDelaySweep(fullSuite(), delays, host,
                                  args.suiteOptions());
        TableWriter table("Section 4.3.2 on the pipeline engine: "
                          "commit-time update, host = " + host +
                          " (avg MPKI)");
        table.setHeader({"delay (branches)", host, host + "+I",
                         "IMLI benefit"});
        for (const auto &p : points) {
            table.addRow({std::to_string(p.delay),
                          formatDouble(p.mpkiHost, 4),
                          formatDouble(p.mpkiImli, 4),
                          formatDouble(p.imliBenefit(), 4)});
        }
        table.print(std::cout);

        ExperimentReport report(
            "Section 4.3.2 / pipeline (" + host + ")",
            "IMLI benefit retained at 63-branch commit-time update");
        const double retained =
            points.empty() || points.front().imliBenefit() <= 0.0
                ? 0.0
                : points.back().imliBenefit() /
                      points.front().imliBenefit();
        report.addMetric("benefit(delay 63) / benefit(delay 0)", retained,
                         1.0);
        report.addNote("The IMLI speculative state is the checkpointed "
                       "counter + PIPE, so its benefit should survive "
                       "commit-time update of every table; a ratio near "
                       "1 reproduces the paper's delayed-update claim. "
                       "Absolute MPKI rises with delay for every config "
                       "(stale tables at fetch), non-monotonically where "
                       "the lag straddles inner-loop trip counts.");
        report.print(std::cout);
    }
    return 0;
}

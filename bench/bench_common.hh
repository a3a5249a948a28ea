/**
 * @file
 * Shared plumbing for the experiment benches: CLI handling, suite
 * execution and the standard "paper vs measured" output blocks.
 *
 * Every bench accepts
 *   --branches N   trace length per benchmark (default 200000, or the
 *                  IMLI_BRANCHES environment variable)
 * and, when it declares them (BenchArgs::Flag):
 *   --csv          dump the raw per-benchmark cells as CSV and exit
 *   --jobs N       suite-runner worker threads (default 1, or the
 *                  IMLI_JOBS environment variable; 0/auto = all hardware
 *                  threads).  Results are bit-identical at any N.
 *   --recorded DIR add the recorded scenarios under DIR to the pool
 * Every other flag, an undeclared one included, exits 1.
 */

#ifndef IMLI_BENCH_BENCH_COMMON_HH
#define IMLI_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/corpus/trace_corpus.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/report.hh"
#include "src/sim/suite_runner.hh"
#include "src/util/cli.hh"
#include "src/util/table_writer.hh"
#include "src/util/thread_pool.hh"
#include "src/workloads/suite.hh"

namespace imli::bench
{

/**
 * Parse the bench flags.  --branches is always read; the optional flags
 * are read only when the bench declares them in @p reads.  Any flag not
 * read exits 1 naming it: a typo, or a flag this bench would ignore,
 * must not run the default experiment.
 */
struct BenchArgs
{
    /** Optional flags a bench reads; OR them into the constructor's set. */
    enum Flag : unsigned
    {
        BranchesOnly = 0,
        Csv = 1u << 0,
        Jobs = 1u << 1,
        Recorded = 1u << 2,
    };

    std::size_t branches;
    bool csv = false;
    unsigned jobs = 1;
    std::string recorded;  //!< --recorded DIR ("" = generated suite only)

    BenchArgs(int argc, char **argv, unsigned reads)
    {
        try {
            CommandLine cli(argc, argv);
            // Flags parse strictly, like the env overrides; env defaults
            // are only consulted when the flag is absent, so an explicit
            // flag still works under a malformed env var.
            branches = cli.has("branches")
                           ? parseBranchCount(cli.getString("branches"),
                                              "--branches")
                           : defaultBranchesPerTrace();
            if (reads & Csv)
                csv = cli.getBool("csv");
            if (reads & Jobs)
                jobs = cli.has("jobs") ? ThreadPool::parseJobsStrict(
                                             cli.getString("jobs"), "--jobs")
                                       : defaultJobs();
            if (reads & Recorded)
                recorded = cli.getString("recorded", "");
            cli.rejectUnreadFlags();
        } catch (const std::exception &e) {
            // Bad flags or IMLI_BRANCHES / IMLI_JOBS overrides: fail the
            // run with the parse error, not a raw terminate().
            std::cerr << "error: " << e.what() << '\n';
            std::exit(1);
        }
    }

    /** Suite-runner options carrying the parsed trace length and jobs. */
    SuiteRunOptions suiteOptions() const
    {
        SuiteRunOptions opt;
        opt.branchesPerTrace = branches;
        opt.jobs = jobs;
        return opt;
    }
};

/**
 * The full generated suite plus, when --recorded DIR was given, the
 * REC-01..REC-08 recorded scenarios — through the corpus layer, so every
 * bench shares the one --recorded validation (and error message) of the
 * suite CLIs.
 */
inline std::vector<BenchmarkSpec>
suitePoolWithRecorded(const BenchArgs &args)
{
    try {
        return makeSuiteCorpus(args.recorded).benchmarks();
    } catch (const std::exception &e) {
        // A bad --recorded DIR fails like a bad flag, not by terminate().
        std::cerr << "error: " << e.what() << '\n';
        std::exit(1);
    }
}

/** Run @p configs over the full 80-benchmark suite with the bench flags. */
inline SuiteResults
runFullSuite(const std::vector<std::string> &configs, const BenchArgs &args)
{
    return runSuite(fullSuite(), configs, args.suiteOptions());
}

/** Storage of a zoo config in Kbits. */
inline double
storageKbits(const std::string &spec)
{
    return makePredictor(spec)->storage().totalKbits();
}

/**
 * Print the standard table: one row per config with measured size and
 * per-suite MPKI next to the paper's values.
 */
struct PaperRow
{
    std::string config;      //!< zoo spec
    std::string paperLabel;  //!< the paper's name for this row
    double paperKbits;
    double paperCbp4;
    double paperCbp3;
};

inline void
printSuiteTable(const std::string &title, const SuiteResults &results,
                const std::vector<PaperRow> &rows)
{
    TableWriter table(title);
    table.setHeader({"config", "Kbits", "paper", "CBP4", "paper", "CBP3",
                     "paper"});
    for (const PaperRow &row : rows) {
        table.addRow({row.paperLabel, formatDouble(storageKbits(row.config), 1),
                      formatDouble(row.paperKbits, 0),
                      formatDouble(results.averageMpki(row.config, "CBP4"), 3),
                      formatDouble(row.paperCbp4, 3),
                      formatDouble(results.averageMpki(row.config, "CBP3"), 3),
                      formatDouble(row.paperCbp3, 3)});
    }
    table.print(std::cout);
    std::cout << '\n';
}

/** Relative MPKI change of @p to vs @p from on one suite. */
inline double
relChange(const SuiteResults &results, const std::string &from,
          const std::string &to, const std::string &suite)
{
    const double a = results.averageMpki(from, suite);
    const double b = results.averageMpki(to, suite);
    return a == 0.0 ? 0.0 : (b - a) / a;
}

} // namespace imli::bench

#endif // IMLI_BENCH_BENCH_COMMON_HH

/**
 * @file
 * Design-space exploration CLI: parameterized predictor sweeps and
 * accuracy-per-bit Pareto reports on the streaming suite engine.
 *
 * Subcommands:
 *
 *   explorer describe SPEC [SPEC...]
 *       Echo the canonical form of each spec and its fully resolved
 *       geometry + storage ledger.  `--keys` lists every override key
 *       of the spec grammar with its range.
 *
 *   explorer sweep --journal FILE [--base SPEC] [--dim key=v1,v2,...]...
 *                  [--sample N --seed S] [--points SPEC,SPEC,...]
 *                  [--benchmarks 'MM-*'] [--suite CBP4|CBP3|REC]
 *                  [--recorded DIR] [--branches N] [--jobs N]
 *                  [--json FILE] [--metrics FILE] [--phase-interval N]
 *                  [--timing FILE]
 *       Expand the parameter space (grid by default, seeded random
 *       sampling with --sample) and evaluate every point over the
 *       selected benchmarks, journaling each (benchmark, point) cell to
 *       FILE.  Rerunning with the same journal resumes: journaled cells
 *       are never re-simulated, and the final journal bytes are
 *       identical whatever the worker count or interruption history.
 *       --metrics exports per-cell predictor internals as JSON (cells
 *       resumed from the journal stay empty), --phase-interval adds a
 *       phase-sliced series per cell, and --timing writes a wall-clock
 *       sidecar CSV — all three stay out of the fingerprinted journal.
 *
 *   explorer pareto --journal FILE [--suite S] [--csv | --json]
 *       Aggregate a sweep journal per point (mean MPKI over the suite)
 *       and print every point tagged frontier/dominated, frontier first.
 *
 *   explorer plan  --journal FILE --shards N [sweep flags]
 *   explorer shard --journal FILE --shards N --shard I [sweep flags]
 *   explorer merge --journal FILE --shards N [sweep flags]
 *       Process-level sweep orchestration (src/dse/sweep.hh): `plan`
 *       prints the deterministic partition of the benchmark axis into N
 *       contiguous shards, `shard` executes shard I into the journal
 *       fragment FILE.shardI (resumable exactly like a sweep journal),
 *       and `merge` validates the fragments and rewrites the canonical
 *       journal — byte-identical to a single-process `sweep` of the same
 *       flags.  Every subcommand takes the SAME grid/selection flags and
 *       re-derives the same plan, so a driver script (or CI) fans the
 *       shard commands out across worker processes and merges once all
 *       have finished.  `sweep --shards N` runs the same plan -> shard
 *       -> merge composition in one process.
 *
 * Examples:
 *   explorer sweep --journal sic.csv --base tage-gsc+sic \
 *       --dim sic.logsize=7..10 --dim sic.ctrbits=5,6 --benchmarks 'MM-*'
 *   explorer sweep --journal delay.csv --base tage-gsc+i \
 *       --dim sim.delay=0,4,16,63 --benchmarks 'MM-*'
 *       (update timing as a dimension: sim.delay points run on the
 *        speculative pipeline engine at that in-flight depth)
 *   explorer pareto --journal sic.csv
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "src/corpus/trace_corpus.hh"
#include "src/dse/param_space.hh"
#include "src/obs/metrics.hh"
#include "src/dse/pareto.hh"
#include "src/dse/sweep.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/suite_runner.hh"
#include "src/util/cli.hh"
#include "src/util/table_writer.hh"
#include "src/util/thread_pool.hh"

using namespace imli;

namespace
{

void
printUsage(std::ostream &os)
{
    os << "usage: explorer describe SPEC [SPEC...] | --keys\n"
       << "       explorer sweep --journal FILE [--base SPEC]"
          " [--dim key=v1,v2]... [--sample N --seed S]\n"
       << "                      [--points SPECS] [--benchmarks"
          " GLOBS] [--suite S] [--recorded DIR]\n"
       << "                      [--class NAME] [--char-cache DIR]"
          " [--branches N] [--jobs N]\n"
       << "                      [--shards N] [--json FILE]"
          " [--metrics FILE]\n"
       << "                      [--phase-interval N]"
          " [--timing FILE]\n"
       << "       explorer plan  --journal FILE --shards N"
          " [sweep flags]\n"
       << "       explorer shard --journal FILE --shards N"
          " --shard I [sweep flags]\n"
       << "       explorer merge --journal FILE --shards N"
          " [sweep flags]\n"
       << "       explorer pareto --journal FILE [--suite S]"
          " [--csv | --json]\n";
}

int
usage()
{
    printUsage(std::cerr);
    return 1;
}

/**
 * The benchmark-pool query shared by sweep/plan/shard/merge, via the
 * corpus layer: full generated suite + optional --recorded, filtered by
 * --suite / --benchmarks globs / --class (characterization-derived
 * predictability classes; see src/corpus/characterize.hh).  Only reads
 * flags; selectSuiteBenchmarks() runs it once every flag is checked.
 */
CorpusQuery
poolQuery(const CommandLine &cli)
{
    CorpusQuery query;
    query.recordedDir = cli.getString("recorded", "");
    query.suite = cli.getString("suite", "");
    query.patterns = splitCommaList(cli.getString("benchmarks", ""));
    query.className = cli.getString("class", "");
    query.characterizationCacheDir = cli.getString("char-cache", "");
    if (cli.has("branches"))
        query.targetBranches =
            parseBranchCount(cli.getString("branches"), "--branches");
    return query;
}

int
cmdDescribe(const CommandLine &cli)
{
    // Specs may arrive as positionals or — when the flag parser's value
    // lookahead binds one to a bare --keys — as that flag's value
    // ("describe --keys tage-gsc" must show both outputs, not usage).
    std::vector<std::string> specs(cli.positionals().begin() + 1,
                                   cli.positionals().end());
    if (!cli.getString("keys").empty())
        specs.insert(specs.begin(), cli.getString("keys"));
    cli.rejectUnreadFlags();

    if (cli.has("keys")) {
        TableWriter table("Override keys (spec@key=value,...)");
        table.setHeader({"key", "min", "max", "host", "description"});
        for (const OverrideKeyInfo &info : knownOverrideKeys()) {
            table.addRow({info.key, std::to_string(info.minValue),
                          std::to_string(info.maxValue),
                          info.tageGscOnly ? "tage-gsc"
                          : info.metaOnly  ? "meta"
                                           : "hosts",
                          info.doc + (info.powerOfTwo ? " (power of 2)"
                                                      : "")});
        }
        table.print(std::cout);
        if (!specs.empty())
            std::cout << '\n';
    } else if (specs.empty()) {
        return usage();
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::cout << describeConfigDetail(parseSpec(specs[i]));
        if (i + 1 < specs.size())
            std::cout << '\n';
    }
    return 0;
}

/** Expand the declared parameter space into canonical config points. */
std::vector<std::string>
expandPoints(const CommandLine &cli)
{
    if (cli.has("points")) {
        // An explicit point list and a declared space are two different
        // sweeps; combining them would silently drop one, so refuse.
        if (cli.has("base") || cli.has("dim") || cli.has("sample") ||
            cli.has("seed"))
            throw std::runtime_error(
                "--points cannot be combined with --base/--dim/--sample/"
                "--seed (give either an explicit point list or a space "
                "to expand)");
        std::vector<std::string> points;
        for (const std::string &spec :
             splitSpecList(cli.getString("points")))
            points.push_back(canonicalSpec(spec));
        return points;
    }
    ParamSpace space;
    space.baseSpec = cli.getString("base", "tage-gsc");
    for (const std::string &dim : cli.getList("dim"))
        space.dimensions.push_back(parseDimension(dim));
    if (cli.has("sample")) {
        const std::size_t count =
            cli.getCount("sample");
        if (count == 0)
            throw std::runtime_error("--sample: need a count >= 1");
        return space.sampleRandom(
            count, static_cast<std::uint64_t>(cli.getInt("seed", 1)));
    }
    // A seed without --sample would silently run a different experiment
    // (the full grid); refuse like every other misused flag.
    if (cli.has("seed"))
        throw std::runtime_error(
            "--seed only applies to --sample N (grid expansion is "
            "exhaustive and unseeded)");
    return space.expandGrid();
}

/** Sweep options shared by sweep/plan/shard/merge (same flags -> same
 *  journal fingerprint, which is what lets them re-derive one plan). */
SweepOptions
makeSweepOptions(const CommandLine &cli)
{
    SweepOptions options;
    options.journalPath = cli.getString("journal");
    options.branchesPerTrace =
        cli.has("branches")
            ? parseBranchCount(cli.getString("branches"), "--branches")
            : defaultBranchesPerTrace();
    options.jobs = cli.has("jobs")
                       ? ThreadPool::parseJobsStrict(cli.getString("jobs"),
                                                     "--jobs")
                       : defaultJobs();
    options.progress = [](const std::string &name, std::size_t simulated) {
        std::cerr << "  " << name << ": " << simulated
                  << " points simulated\n";
    };
    return options;
}

/** Parse --shards N (>= 1); the count every orchestration subcommand
 *  must agree on. */
std::size_t
parseShardCount(const CommandLine &cli)
{
    const std::int64_t n = cli.getInt("shards");
    if (n < 1)
        throw std::runtime_error("--shards: need a shard count >= 1");
    return static_cast<std::size_t>(n);
}

/** First..last display form of a shard's benchmark range. */
std::string
describeRange(const ShardPlan &plan, const ShardRange &range)
{
    if (range.benchmarkCount() == 0)
        return "(empty)";
    std::string text = plan.benchmarks[range.beginBench];
    if (range.benchmarkCount() > 1)
        text += ".." + plan.benchmarks[range.endBench - 1];
    return text;
}

int
cmdSweep(const CommandLine &cli)
{
    if (!cli.has("journal")) {
        std::cerr << "error: sweep needs --journal FILE\n";
        return usage();
    }
    // --json takes a file path here (unlike the boolean mode switches of
    // suite_report / pareto); catch a bare --json before the sweep runs,
    // not after minutes of simulation.
    if (cli.has("json") && cli.getString("json").empty()) {
        std::cerr << "error: sweep's --json needs a file path\n";
        return usage();
    }
    const std::vector<std::string> points = expandPoints(cli);
    const CorpusQuery query = poolQuery(cli);
    SweepOptions options = makeSweepOptions(cli);

    // The observation sidecars attach to ONE process's run: sharded
    // composition runs several (one per fragment plus the merge), which
    // would resize the registry per shard and overwrite the sidecar
    // files.  Refuse the combination rather than export garbage.
    if (cli.has("shards") &&
        (cli.has("metrics") || cli.has("phase-interval") ||
         cli.has("timing")))
        throw std::runtime_error(
            "--metrics/--phase-interval/--timing cannot be combined with "
            "--shards (run the observed sweep unsharded, or observe a "
            "single `explorer shard`)");

    // Observation layer (off by default, inert when off): --metrics FILE
    // exports per-cell predictor internals, --phase-interval N adds a
    // phase series per cell, --timing FILE writes the wall-clock sidecar.
    // None of these joins the fingerprinted journal.
    obs::MetricsRegistry registry;
    if (cli.has("metrics")) {
        if (cli.has("phase-interval")) {
            const std::int64_t n = cli.getInt("phase-interval");
            if (n < 1)
                throw std::runtime_error(
                    "--phase-interval: need a branch interval >= 1");
            registry.phaseInterval = static_cast<std::size_t>(n);
        }
        options.metrics = &registry;
    } else if (cli.has("phase-interval")) {
        throw std::runtime_error(
            "--phase-interval requires --metrics FILE");
    }
    if (cli.has("timing"))
        options.timingSidecarPath = cli.getString("timing");
    // Every flag has been read: a leftover one is a typo, so fail before
    // selecting benchmarks, opening any output or simulating anything.
    cli.rejectUnreadFlags();
    const std::vector<BenchmarkSpec> benchmarks =
        selectSuiteBenchmarks(query);

    // Open the --json output before simulating: an unwritable path must
    // fail now, not after minutes of sweep (same rationale as the bare
    // --json guard above).  Write to a temp file and rename at the end
    // so a failed sweep cannot destroy a previous run's JSON.
    std::ofstream jsonOut;
    const std::string jsonTmp =
        cli.has("json") ? cli.getString("json") + ".tmp" : "";
    if (cli.has("json")) {
        jsonOut.open(jsonTmp, std::ios::binary | std::ios::trunc);
        if (!jsonOut)
            throw std::runtime_error("cannot write --json file: " +
                                     cli.getString("json"));
    }

    std::cerr << "sweep: " << points.size() << " points x "
              << benchmarks.size() << " benchmarks -> "
              << options.journalPath << '\n';
    SweepResults results;
    try {
        if (cli.has("shards")) {
            // The thin plan -> shard -> merge composition: same code
            // path the process-level subcommands drive, one process.
            // The merged journal is byte-identical to the unsharded run.
            const std::size_t nshards = parseShardCount(cli);
            const ShardPlan plan =
                planShards(benchmarks, points, options, nshards);
            for (const ShardRange &range : plan.shards) {
                std::cerr << "shard " << range.index << ": "
                          << describeRange(plan, range) << '\n';
                const SweepResults shard =
                    runShard(benchmarks, points, options, range);
                results.simulatedCells += shard.simulatedCells;
            }
            const std::size_t simulated = results.simulatedCells;
            results = mergeShardJournals(benchmarks, points, options,
                                         nshards);
            results.simulatedCells = simulated;
        } else {
            results = runSweep(benchmarks, points, options);
        }
    } catch (...) {
        // Don't leak the --json temp file when the sweep fails.
        jsonOut.close();
        if (!jsonTmp.empty())
            std::remove(jsonTmp.c_str());
        throw;
    }

    // Per-point aggregates via the pareto layer (entries come back in
    // first-appearance order, i.e. the declared point order).
    const std::vector<ParetoEntry> perPoint = aggregateCells(results.cells);

    TableWriter table("Sweep summary (mean MPKI over selection)");
    table.setHeader({"spec", "storage_kbits", "avg_mpki"});
    for (const ParetoEntry &entry : perPoint) {
        table.addRow({entry.spec,
                      formatDouble(entry.storageBits / 1024.0, 1),
                      formatDouble(entry.avgMpki, 4)});
    }
    table.print(std::cout);
    std::cout << "journal: " << options.journalPath << " ("
              << results.cells.size() << " cells, "
              << results.simulatedCells << " simulated this run)\n";

    if (cli.has("metrics")) {
        const std::string path = cli.getString("metrics");
        std::ofstream out(path, std::ios::binary);
        if (!out)
            throw std::runtime_error(
                "--metrics: cannot open " + path + " for writing");
        registry.writeJson(out);
        if (!out)
            throw std::runtime_error("--metrics: write failed on " + path);
    }

    if (cli.has("json")) {
        std::ofstream &os = jsonOut;
        os << "{\n  \"points\": [\n";
        for (std::size_t p = 0; p < perPoint.size(); ++p) {
            os << "    {\"spec\": \"" << jsonEscape(perPoint[p].spec)
               << "\", \"storage_bits\": " << perPoint[p].storageBits
               << ", \"avg_mpki\": "
               << formatDouble(perPoint[p].avgMpki, 4) << '}'
               << (p + 1 < perPoint.size() ? "," : "") << '\n';
        }
        os << "  ],\n  \"cells\": " << results.cells.size() << "\n}\n";
        os.close();
        if (!os || std::rename(jsonTmp.c_str(),
                               cli.getString("json").c_str()) != 0)
            throw std::runtime_error("cannot write --json file: " +
                                     cli.getString("json"));
    }
    return 0;
}

/** Shared front half of plan/shard/merge: validated grid + pool +
 *  options under one required --journal / --shards pair.  Reads the
 *  last shared flag, so callers read their own flags first. */
struct ShardInputs
{
    std::vector<std::string> points;
    std::vector<BenchmarkSpec> benchmarks;
    SweepOptions options;
    std::size_t shardCount = 0;
};

bool
gatherShardInputs(const CommandLine &cli, const char *what,
                  ShardInputs &inputs)
{
    if (!cli.has("journal")) {
        std::cerr << "error: " << what << " needs --journal FILE\n";
        return false;
    }
    if (!cli.has("shards")) {
        std::cerr << "error: " << what << " needs --shards N\n";
        return false;
    }
    inputs.points = expandPoints(cli);
    const CorpusQuery query = poolQuery(cli);
    inputs.options = makeSweepOptions(cli);
    inputs.shardCount = parseShardCount(cli);
    cli.rejectUnreadFlags();
    inputs.benchmarks = selectSuiteBenchmarks(query);
    return true;
}

int
cmdPlan(const CommandLine &cli)
{
    ShardInputs in;
    if (!gatherShardInputs(cli, "plan", in))
        return usage();
    const ShardPlan plan =
        planShards(in.benchmarks, in.points, in.options, in.shardCount);

    TableWriter table("Shard plan: " +
                      std::to_string(plan.benchmarks.size()) +
                      " benchmarks x " + std::to_string(plan.points.size()) +
                      " points");
    table.setHeader({"shard", "benchmarks", "range", "fragment"});
    for (const ShardRange &range : plan.shards)
        table.addRow({std::to_string(range.index),
                      std::to_string(range.benchmarkCount()),
                      describeRange(plan, range),
                      shardJournalPath(in.options.journalPath,
                                       range.index)});
    table.print(std::cout);
    std::cout << "meta: " << plan.meta << '\n';
    return 0;
}

int
cmdShard(const CommandLine &cli)
{
    if (!cli.has("shard")) {
        std::cerr << "error: shard needs --shard I (which shard to run)\n";
        return usage();
    }
    const std::int64_t index = cli.getInt("shard");
    ShardInputs in;
    if (!gatherShardInputs(cli, "shard", in))
        return usage();
    if (index < 0 || static_cast<std::size_t>(index) >= in.shardCount)
        throw std::runtime_error(
            "--shard: index " + std::to_string(index) +
            " is outside the plan (need 0.." +
            std::to_string(in.shardCount - 1) + ")");

    const ShardPlan plan =
        planShards(in.benchmarks, in.points, in.options, in.shardCount);
    const ShardRange &range =
        plan.shards[static_cast<std::size_t>(index)];
    const std::string fragment =
        shardJournalPath(in.options.journalPath, range.index);
    std::cerr << "shard " << range.index << "/" << in.shardCount << ": "
              << describeRange(plan, range) << " x "
              << plan.points.size() << " points -> " << fragment << '\n';
    const SweepResults results =
        runShard(in.benchmarks, in.points, in.options, range);
    std::cout << "fragment: " << fragment << " ("
              << results.cells.size() << " cells, "
              << results.simulatedCells << " simulated this run)\n";
    return 0;
}

int
cmdMerge(const CommandLine &cli)
{
    ShardInputs in;
    if (!gatherShardInputs(cli, "merge", in))
        return usage();

    // Incremental Pareto re-aggregation as each fragment lands: the
    // running frontier over partial averages (cells merged so far).
    const MergeProgress progress = [](const ShardRange &range,
                                      const std::vector<ParetoEntry>
                                          &entries) {
        std::size_t frontier = 0;
        for (const ParetoEntry &e : entries)
            if (!e.dominated)
                ++frontier;
        std::cerr << "  shard " << range.index << " merged: "
                  << entries.size() << " specs aggregated, " << frontier
                  << " on the running frontier\n";
    };
    const SweepResults results = mergeShardJournals(
        in.benchmarks, in.points, in.options, in.shardCount, progress);

    const std::vector<ParetoEntry> perPoint = aggregateCells(results.cells);
    TableWriter table("Merged sweep (mean MPKI over selection)");
    table.setHeader({"spec", "storage_kbits", "avg_mpki"});
    for (const ParetoEntry &entry : perPoint)
        table.addRow({entry.spec,
                      formatDouble(entry.storageBits / 1024.0, 1),
                      formatDouble(entry.avgMpki, 4)});
    table.print(std::cout);
    std::cout << "journal: " << in.options.journalPath << " ("
              << results.cells.size() << " cells from " << in.shardCount
              << " shards)\n";
    return 0;
}

int
cmdPareto(const CommandLine &cli)
{
    if (!cli.has("journal")) {
        std::cerr << "error: pareto needs --journal FILE\n";
        return usage();
    }
    // --csv/--json are output-mode booleans here (they print to stdout,
    // unlike sweep's --json FILE); a path value or an ambiguous
    // combination fails loudly.
    cli.rejectValuedBool("csv");
    cli.rejectValuedBool("json");
    if (cli.getBool("csv") && cli.getBool("json")) {
        std::cerr << "error: pick one of --csv or --json\n";
        return 1;
    }
    const std::string suite = cli.getString("suite", "");
    cli.rejectUnreadFlags();
    const std::vector<SweepCell> cells =
        loadJournal(cli.getString("journal"));
    std::vector<ParetoEntry> entries = aggregateCells(cells, suite);
    if (entries.empty()) {
        std::cerr << "error: journal has no cells"
                  << (cli.has("suite") ? " for that suite" : "") << '\n';
        return 1;
    }
    markDominated(entries);

    // Frontier first (storage ascending), then the dominated points in
    // journal order — one dominance pass, one container.
    std::vector<const ParetoEntry *> ordered;
    for (const ParetoEntry &e : entries)
        if (!e.dominated)
            ordered.push_back(&e);
    const std::size_t frontierCount = ordered.size();
    std::sort(ordered.begin(), ordered.begin() + frontierCount,
              [](const ParetoEntry *a, const ParetoEntry *b) {
                  return paretoOrderLess(*a, *b);
              });
    for (const ParetoEntry &e : entries)
        if (e.dominated)
            ordered.push_back(&e);

    if (cli.getBool("csv") || cli.getBool("json")) {
        const bool json = cli.getBool("json");
        if (json)
            std::cout << "{\n  \"points\": [\n";
        else
            std::cout << "spec,storage_bits,avg_mpki,benchmarks,"
                         "dominated\n";
        for (std::size_t i = 0; i < ordered.size(); ++i) {
            const ParetoEntry &e = *ordered[i];
            if (json) {
                std::cout << "    {\"spec\": \"" << jsonEscape(e.spec)
                          << "\", \"storage_bits\": " << e.storageBits
                          << ", \"avg_mpki\": "
                          << formatDouble(e.avgMpki, 4)
                          << ", \"benchmarks\": " << e.benchmarkCount
                          << ", \"dominated\": "
                          << (e.dominated ? "true" : "false") << '}'
                          << (i + 1 < ordered.size() ? "," : "") << '\n';
            } else {
                std::cout << '"' << e.spec << "\"," << e.storageBits << ','
                          << formatDouble(e.avgMpki, 4) << ','
                          << e.benchmarkCount << ','
                          << (e.dominated ? 1 : 0) << '\n';
            }
        }
        if (json)
            std::cout << "  ]\n}\n";
        return 0;
    }

    TableWriter table("MPKI vs storage Pareto");
    table.setHeader({"spec", "storage_kbits", "avg_mpki", "status"});
    for (const ParetoEntry *e : ordered)
        table.addRow({e->spec, formatDouble(e->storageBits / 1024.0, 1),
                      formatDouble(e->avgMpki, 4),
                      e->dominated ? "dominated" : "frontier"});
    table.print(std::cout);
    std::cout << frontierCount << " of " << entries.size()
              << " points on the frontier\n";
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
try {
    CommandLine cli(argc, argv);
    if (cli.has("help")) {
        printUsage(std::cout);
        return 0;
    }
    if (cli.positionals().empty())
        return usage();
    const std::string &command = cli.positionals()[0];
    if (command == "describe")
        return cmdDescribe(cli);
    if (command == "sweep")
        return cmdSweep(cli);
    if (command == "plan")
        return cmdPlan(cli);
    if (command == "shard")
        return cmdShard(cli);
    if (command == "merge")
        return cmdMerge(cli);
    if (command == "pareto")
        return cmdPareto(cli);
    std::cerr << "error: unknown subcommand \"" << command << "\"\n";
    return usage();
} catch (const std::exception &e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
}

#include "src/dse/sweep.hh"

#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "src/dse/pareto.hh"
#include "src/obs/metrics.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/suite_runner.hh"
#include "src/util/cli.hh"
#include "src/util/table_writer.hh"

namespace imli
{

double
SweepCell::mpki() const
{
    if (instructions == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(mispredictions) /
           static_cast<double>(instructions);
}

const SweepCell &
SweepResults::at(const std::string &benchmark, const std::string &spec) const
{
    for (const SweepCell &cell : cells)
        if (cell.benchmark == benchmark && cell.spec == spec)
            return cell;
    throw std::out_of_range("no sweep cell for " + benchmark + " / " + spec);
}

double
SweepResults::averageMpki(const std::string &spec,
                          const std::string &suite) const
{
    double total = 0.0;
    std::size_t count = 0;
    for (const SweepCell &cell : cells) {
        if (cell.spec != spec)
            continue;
        if (!suite.empty() && cell.suite != suite)
            continue;
        total += cell.mpki();
        ++count;
    }
    return count == 0 ? 0.0 : total / static_cast<double>(count);
}

std::string
journalMeta(const std::vector<BenchmarkSpec> &benchmarks,
            const SweepOptions &options)
{
    // Everything that changes the simulated counters belongs here; the
    // chunk size and worker count are scheduling details that provably
    // do not (bit-identity is tested), so they are deliberately absent.
    // A per-point sim.delay is not needed either: it is part of the
    // point's canonical spec, so it already distinguishes journal rows.
    std::string meta =
        "#sweep branches=" + std::to_string(options.branchesPerTrace) +
        " warmup=" + std::to_string(options.sim.warmupBranches);
    // Run-level pipeline engine (applied to every point): appended only
    // when active so pre-pipeline journals still resume.
    if (options.sim.usePipeline())
        meta += " delay=" + std::to_string(options.sim.updateDelay);

    // Recorded benchmarks: FNV-1a over (name, trace bytes) in declared
    // order.  A resumed sweep pointed at regenerated or different trace
    // files must be rejected, not silently merged.
    std::uint64_t hash = 1469598103934665603ull;
    const auto mix = [&hash](const char *data, std::size_t size) {
        for (std::size_t i = 0; i < size; ++i) {
            hash ^= static_cast<unsigned char>(data[i]);
            hash *= 1099511628211ull;
        }
    };
    bool anyRecorded = false;
    for (const BenchmarkSpec &spec : benchmarks) {
        if (spec.backend == TraceBackend::Generated)
            continue;
        anyRecorded = true;
        mix(spec.name.data(), spec.name.size());
        mix("\0", 1);
        std::ifstream in(spec.tracePath, std::ios::binary);
        if (!in)
            throw std::runtime_error("cannot read recorded trace for " +
                                     spec.name + ": " + spec.tracePath);
        // Fixed-size read loop: external CBP traces can be hundreds of
        // MB, so hash in O(1) memory instead of slurping the file.
        char chunk[65536];
        while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0)
            mix(chunk, static_cast<std::size_t>(in.gcount()));
        if (in.bad())
            throw std::runtime_error("read failed on recorded trace for " +
                                     spec.name + ": " + spec.tracePath);
    }
    if (anyRecorded) {
        std::ostringstream hex;
        hex << std::hex << hash;
        meta += " traces=" + hex.str();
    }
    return meta;
}

std::string
journalHeader()
{
    return "spec,benchmark,suite,storage_bits,mispredictions,conditionals,"
           "instructions";
}

std::string
formatJournalRow(const SweepCell &cell)
{
    // Only the spec can contain commas; it is always quoted.  Counters
    // are stored as integers so a parsed row is exactly the simulated
    // cell (MPKI is recomputed, never parsed from a rounded decimal).
    std::ostringstream os;
    os << '"' << cell.spec << "\"," << cell.benchmark << ',' << cell.suite
       << ',' << cell.storageBits << ',' << cell.mispredictions << ','
       << cell.conditionals << ',' << cell.instructions;
    return os.str();
}

namespace
{

std::uint64_t
parseJournalCount(const std::string &text, const std::string &line)
{
    std::uint64_t v = 0;
    if (!parseDecimalU64(text, v))
        throw std::runtime_error("malformed journal row (bad counter \"" +
                                 text + "\"): " + line);
    return v;
}

} // anonymous namespace

SweepCell
parseJournalRow(const std::string &line)
{
    if (line.size() < 2 || line[0] != '"')
        throw std::runtime_error("malformed journal row (no quoted spec): " +
                                 line);
    const auto close = line.find('"', 1);
    if (close == std::string::npos || close + 1 >= line.size() ||
        line[close + 1] != ',')
        throw std::runtime_error("malformed journal row (unterminated "
                                 "spec): " + line);
    SweepCell cell;
    cell.spec = line.substr(1, close - 1);

    std::vector<std::string> fields;
    std::string token;
    std::istringstream is(line.substr(close + 2));
    while (std::getline(is, token, ','))
        fields.push_back(token);
    if (fields.size() != 6)
        throw std::runtime_error("malformed journal row (want 6 fields "
                                 "after spec, got " +
                                 std::to_string(fields.size()) + "): " + line);
    cell.benchmark = fields[0];
    cell.suite = fields[1];
    if (cell.benchmark.empty() || cell.suite.empty())
        throw std::runtime_error(
            "malformed journal row (empty benchmark/suite): " + line);
    cell.storageBits = parseJournalCount(fields[2], line);
    cell.mispredictions = parseJournalCount(fields[3], line);
    cell.conditionals = parseJournalCount(fields[4], line);
    cell.instructions = parseJournalCount(fields[5], line);
    return cell;
}

std::vector<SweepCell>
loadJournal(const std::string &path, std::string *meta)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open sweep journal: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string content = buffer.str();

    // A row is committed iff its newline reached the file: a kill during
    // an append leaves a tail with no '\n', which is dropped here (even
    // when the truncated prefix happens to still parse).
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (true) {
        const auto nl = content.find('\n', start);
        if (nl == std::string::npos)
            break; // non-newline-terminated tail: incomplete, dropped
        lines.push_back(content.substr(start, nl - start));
        start = nl + 1;
    }
    if (lines.size() < 2 || lines[0].rfind("#sweep ", 0) != 0)
        throw std::runtime_error("sweep journal has no metadata line: " +
                                 path);
    if (lines[1] != journalHeader())
        throw std::runtime_error("sweep journal has a foreign header: " +
                                 path);
    if (meta)
        *meta = lines[0];
    std::vector<SweepCell> cells;
    cells.reserve(lines.size() - 2);
    for (std::size_t i = 2; i < lines.size(); ++i)
        cells.push_back(parseJournalRow(lines[i]));
    return cells;
}

namespace
{

/** Write meta + header + @p rows to @p path via temp file + rename. */
void
rewriteJournal(const std::string &path, const std::string &meta,
               const std::vector<std::string> &rows)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            throw std::runtime_error("cannot write sweep journal: " + tmp);
        os << meta << '\n' << journalHeader() << '\n';
        for (const std::string &row : rows)
            os << row << '\n';
        os.flush();
        if (!os)
            throw std::runtime_error("write failed on sweep journal: " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("cannot replace sweep journal: " + path);
}

bool
fileExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return static_cast<bool>(in);
}

} // anonymous namespace

namespace
{

/**
 * Everything runSweep / planShards / runShard / mergeShardJournals
 * validate and derive up front, shared so every entry point applies the
 * identical canonicalization and the identical checks.
 */
struct SweepContext
{
    std::vector<std::string> points;  //!< canonical, declared order
    std::vector<std::uint64_t> storageBits;  //!< per point
    std::string meta;  //!< the full sweep's journal metadata line
    /** Journal-row lookups: benchmark name / canonical point -> index. */
    std::unordered_map<std::string, std::size_t> benchIndex;
    std::unordered_map<std::string, std::size_t> pointIndex;
};

SweepContext
prepareSweep(const std::vector<BenchmarkSpec> &benchmarks,
             const std::vector<std::string> &points,
             const SweepOptions &options, const std::string &what)
{
    if (points.empty())
        throw std::invalid_argument(what + ": no config points");
    if (benchmarks.empty())
        throw std::invalid_argument(what + ": no benchmarks");

    SweepContext ctx;
    std::vector<ParsedSpec> parsed;
    parsed.reserve(points.size());
    ctx.points.reserve(points.size());
    for (const std::string &point : points) {
        parsed.push_back(parseSpec(point));
        ctx.points.push_back(describeConfig(parsed.back()));
    }
    for (std::size_t p = 0; p < ctx.points.size(); ++p)
        if (!ctx.pointIndex.emplace(ctx.points[p], p).second)
            throw std::invalid_argument(
                what + ": duplicate config points after canonicalization");
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        validateBenchmark(benchmarks[b]);
        if (!ctx.benchIndex.emplace(benchmarks[b].name, b).second)
            throw std::invalid_argument(
                what + ": duplicate benchmark name " + benchmarks[b].name);
    }

    // One predictor construction per point up front: pins the storage
    // budget for every journal row and validates resumed rows against
    // the current geometry.
    ctx.storageBits.reserve(parsed.size());
    for (const ParsedSpec &spec : parsed)
        ctx.storageBits.push_back(makePredictor(spec)->storageBits());

    ctx.meta = journalMeta(benchmarks, options);
    return ctx;
}

/** Contiguous, covering partition of @p nbench into @p count ranges. */
std::vector<ShardRange>
partitionBenchmarks(std::size_t nbench, std::size_t count)
{
    const std::size_t base = nbench / count;
    const std::size_t extra = nbench % count;
    std::vector<ShardRange> shards;
    shards.reserve(count);
    std::size_t begin = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t len = base + (i < extra ? 1 : 0);
        shards.push_back({i, begin, begin + len});
        begin += len;
    }
    return shards;
}

/**
 * The journal rows and cells of the benchmarks [begin, begin + nbench),
 * benchmark-major, point-minor: the canonical journal order.
 */
struct CellMatrix
{
    CellMatrix(std::size_t begin_bench, std::size_t nbench,
               std::size_t points)
        : begin(begin_bench), npoints(points), rows(nbench * points),
          cells(nbench * points), done(nbench * points, false)
    {
    }

    std::size_t begin;
    std::size_t npoints;
    std::vector<std::string> rows;
    std::vector<SweepCell> cells;
    std::vector<bool> done;
};

/**
 * Absorb the committed rows of the journal at @p path — a journal being
 * resumed or a shard fragment being merged — into @p matrix.  The file
 * must carry the sweep's metadata line, and every row must name a point
 * of the sweep and a benchmark of the range [begin, end), match that
 * benchmark's suite and the point's storage bits, and fill a cell no
 * earlier row filled.  @p what names the file in every error.  Returns
 * the absorbed cells in file order.
 */
std::vector<SweepCell>
absorbJournal(const std::string &path, const std::string &what,
              const std::vector<BenchmarkSpec> &benchmarks,
              const SweepContext &ctx, std::size_t begin, std::size_t end,
              CellMatrix &matrix)
{
    std::string meta;
    std::vector<SweepCell> loaded = loadJournal(path, &meta);
    if (meta != ctx.meta)
        throw std::runtime_error(
            what + " was recorded with different options (\"" + meta +
            "\" vs \"" + ctx.meta + "\"); it belongs to a different sweep, "
            "and merging would corrupt the results");
    for (const SweepCell &cell : loaded) {
        const auto bIt = ctx.benchIndex.find(cell.benchmark);
        const auto pIt = ctx.pointIndex.find(cell.spec);
        if (bIt == ctx.benchIndex.end() || pIt == ctx.pointIndex.end())
            throw std::runtime_error(what + " has a row outside this sweep (" +
                                     cell.benchmark + " / " + cell.spec +
                                     ")");
        const std::size_t b = bIt->second, p = pIt->second;
        if (b < begin || b >= end)
            throw std::runtime_error(
                what + " has a row outside its benchmark range (" +
                cell.benchmark + " belongs to another shard)");
        if (cell.suite != benchmarks[b].suite)
            throw std::runtime_error(what + " suite mismatch for " +
                                     cell.benchmark);
        if (cell.storageBits != ctx.storageBits[p])
            throw std::runtime_error(
                what + " storage mismatch for " + cell.spec + " (journal " +
                std::to_string(cell.storageBits) + " bits, current geometry " +
                std::to_string(ctx.storageBits[p]) + " bits)");
        const std::size_t idx = (b - matrix.begin) * matrix.npoints + p;
        if (matrix.done[idx])
            throw std::runtime_error(what + " has a duplicate row for " +
                                     cell.benchmark + " / " + cell.spec);
        matrix.done[idx] = true;
        matrix.rows[idx] = formatJournalRow(cell);
        matrix.cells[idx] = cell;
    }
    return loaded;
}

/**
 * The sweep engine proper: run (or resume) the benchmark range
 * [begin_bench, end_bench) of a sweep against @p journal_path.  The
 * full-range call IS runSweep; a sub-range call is a shard writing its
 * fragment.  Either way the journal carries the full sweep's metadata
 * line, the standard resume semantics, and the canonical rewrite.
 */
SweepResults
runRange(const std::vector<BenchmarkSpec> &benchmarks,
         const SweepContext &ctx, const SweepOptions &options,
         const std::string &journal_path, std::size_t begin_bench,
         std::size_t end_bench)
{
    SweepResults results;
    results.points = ctx.points;
    for (std::size_t b = begin_bench; b < end_bench; ++b)
        results.benchmarks.push_back(benchmarks[b].name);

    const std::size_t npoints = ctx.points.size();
    const std::size_t nbench = end_bench - begin_bench;

    // ---- Resume: absorb committed rows of an existing journal ----------
    CellMatrix matrix(begin_bench, nbench, npoints);
    std::vector<std::string> committed;
    if (fileExists(journal_path)) {
        absorbJournal(journal_path, "sweep journal", benchmarks, ctx,
                      begin_bench, end_bench, matrix);
        // Drop any truncated tail before appending new rows after it.
        for (std::size_t i = 0; i < matrix.rows.size(); ++i)
            if (matrix.done[i])
                committed.push_back(matrix.rows[i]);
    }
    rewriteJournal(journal_path, ctx.meta, committed);

    // ---- Simulate the missing cells ------------------------------------
    std::ofstream journal(journal_path, std::ios::binary | std::ios::app);
    if (!journal)
        throw std::runtime_error("cannot append to sweep journal: " +
                                 journal_path);
    std::mutex journalMutex;

    // Pending lists are fixed before the fan-out: workers must not read
    // the bit-packed `done` vector while other workers write it (adjacent
    // bits share a byte, so that would be an unsynchronized data race).
    std::vector<std::vector<std::size_t>> pendingByBench(nbench);
    for (std::size_t b = 0; b < nbench; ++b)
        for (std::size_t p = 0; p < npoints; ++p)
            if (!matrix.done[b * npoints + p])
                pendingByBench[b].push_back(p);

    // Per-cell observation slots (journal order) and the per-benchmark
    // timing shards, both sized before the fan-out so workers only ever
    // write their own fixed indices.
    if (options.metrics != nullptr)
        options.metrics->resize(nbench * npoints);
    std::vector<double> benchSeconds(nbench, 0.0);
    std::vector<std::uint64_t> benchConditionals(nbench, 0);

    SuiteRunOptions pass;
    pass.branchesPerTrace = options.branchesPerTrace;
    pass.chunkBranches = options.chunkBranches;
    pass.sim = options.sim;
    pass.metrics = options.metrics;

    forEachBenchmark(nbench, options.jobs, [&](std::size_t b) {
        const BenchmarkSpec &bench = benchmarks[begin_bench + b];
        const std::vector<std::size_t> &pending = pendingByBench[b];
        // The shared pass over this benchmark's pending points; each
        // cell's observation slot sits at its range-local journal index.
        std::vector<SuiteCell> simmed;
        if (!pending.empty()) {
            std::vector<std::string> specs;
            std::vector<obs::CellObs *> slots;
            for (std::size_t p : pending) {
                specs.push_back(ctx.points[p]);
                if (options.metrics != nullptr)
                    slots.push_back(&options.metrics->cell(b * npoints + p));
            }
            simmed = runBenchmarkPass(bench, specs, pass, slots);
            benchSeconds[b] = simmed[0].seconds;
            benchConditionals[b] = simmed[0].conditionals;
        }

        std::lock_guard<std::mutex> lock(journalMutex);
        for (std::size_t i = 0; i < pending.size(); ++i) {
            const std::size_t p = pending[i];
            SweepCell cell;
            cell.spec = ctx.points[p];
            cell.benchmark = bench.name;
            cell.suite = bench.suite;
            cell.storageBits = ctx.storageBits[p];
            cell.mispredictions = simmed[i].mispredictions;
            cell.conditionals = simmed[i].conditionals;
            cell.instructions = simmed[i].instructions;
            const std::size_t idx = b * npoints + p;
            matrix.rows[idx] = formatJournalRow(cell);
            matrix.cells[idx] = std::move(cell);
            journal << matrix.rows[idx] << '\n';
        }
        journal.flush();
        results.simulatedCells += pending.size();
        if (options.progress)
            options.progress(bench.name, pending.size());
    });
    journal.close();

    // ---- Canonical rewrite: deterministic bytes whatever the history ---
    rewriteJournal(journal_path, ctx.meta, matrix.rows);

    // ---- Timing sidecar: scheduling data, kept OUT of the journal ------
    // One row per benchmark simulated this run, declared order.  Values
    // are wall time, so the file is not reproducible — which is exactly
    // why it never joins the fingerprinted journal.
    if (!options.timingSidecarPath.empty()) {
        std::ofstream timing(options.timingSidecarPath,
                             std::ios::binary | std::ios::trunc);
        if (!timing)
            throw std::runtime_error("cannot write sweep timing sidecar: " +
                                     options.timingSidecarPath);
        timing << "benchmark,seconds,branches_per_sec\n";
        for (std::size_t b = 0; b < nbench; ++b) {
            if (pendingByBench[b].empty())
                continue; // resumed from the journal: no timing this run
            const double bps =
                benchSeconds[b] > 0.0
                    ? static_cast<double>(benchConditionals[b]) /
                          benchSeconds[b]
                    : 0.0;
            timing << benchmarks[begin_bench + b].name << ','
                   << formatDouble(benchSeconds[b], 3) << ','
                   << formatDouble(bps, 0) << '\n';
        }
        timing.flush();
        if (!timing)
            throw std::runtime_error("write failed on sweep timing "
                                     "sidecar: " + options.timingSidecarPath);
    }

    results.cells = std::move(matrix.cells);
    return results;
}

} // anonymous namespace

SweepResults
runSweep(const std::vector<BenchmarkSpec> &benchmarks,
         const std::vector<std::string> &points, const SweepOptions &options)
{
    if (options.journalPath.empty())
        throw std::invalid_argument("runSweep: journalPath is required");
    const SweepContext ctx =
        prepareSweep(benchmarks, points, options, "runSweep");
    return runRange(benchmarks, ctx, options, options.journalPath, 0,
                    benchmarks.size());
}

ShardPlan
planShards(const std::vector<BenchmarkSpec> &benchmarks,
           const std::vector<std::string> &points,
           const SweepOptions &options, std::size_t shard_count)
{
    if (shard_count == 0)
        throw std::invalid_argument("planShards: shard count must be >= 1");
    const SweepContext ctx =
        prepareSweep(benchmarks, points, options, "planShards");
    ShardPlan plan;
    plan.points = ctx.points;
    plan.meta = ctx.meta;
    plan.benchmarks.reserve(benchmarks.size());
    for (const BenchmarkSpec &spec : benchmarks)
        plan.benchmarks.push_back(spec.name);
    plan.shards = partitionBenchmarks(benchmarks.size(), shard_count);
    return plan;
}

std::string
shardJournalPath(const std::string &journal_path, std::size_t shard_index)
{
    return journal_path + ".shard" + std::to_string(shard_index);
}

SweepResults
runShard(const std::vector<BenchmarkSpec> &benchmarks,
         const std::vector<std::string> &points, const SweepOptions &options,
         const ShardRange &range)
{
    if (options.journalPath.empty())
        throw std::invalid_argument("runShard: journalPath is required");
    if (range.beginBench > range.endBench ||
        range.endBench > benchmarks.size())
        throw std::invalid_argument(
            "runShard: shard range [" + std::to_string(range.beginBench) +
            ", " + std::to_string(range.endBench) +
            ") is outside the sweep's " +
            std::to_string(benchmarks.size()) + " benchmarks");
    const SweepContext ctx =
        prepareSweep(benchmarks, points, options, "runShard");
    return runRange(benchmarks, ctx, options,
                    shardJournalPath(options.journalPath, range.index),
                    range.beginBench, range.endBench);
}

SweepResults
mergeShardJournals(const std::vector<BenchmarkSpec> &benchmarks,
                   const std::vector<std::string> &points,
                   const SweepOptions &options, std::size_t shard_count,
                   const MergeProgress &on_shard)
{
    if (options.journalPath.empty())
        throw std::invalid_argument(
            "mergeShardJournals: journalPath is required");
    if (shard_count == 0)
        throw std::invalid_argument(
            "mergeShardJournals: shard count must be >= 1");
    const SweepContext ctx =
        prepareSweep(benchmarks, points, options, "mergeShardJournals");
    const std::vector<ShardRange> shards =
        partitionBenchmarks(benchmarks.size(), shard_count);

    const std::size_t npoints = ctx.points.size();
    const std::size_t nbench = benchmarks.size();
    CellMatrix matrix(0, nbench, npoints);
    IncrementalPareto pareto;

    for (const ShardRange &range : shards) {
        const std::string fragment =
            shardJournalPath(options.journalPath, range.index);
        if (!fileExists(fragment))
            throw std::runtime_error(
                "mergeShardJournals: missing fragment for shard " +
                std::to_string(range.index) + ": " + fragment +
                " (run that shard first)");
        for (const SweepCell &cell :
             absorbJournal(fragment, "shard fragment " + fragment,
                           benchmarks, ctx, range.beginBench, range.endBench,
                           matrix))
            pareto.add(cell);
        if (on_shard)
            on_shard(range, pareto.entries());
    }

    // Every cell must have landed: a missing cell usually means a shard
    // was killed mid-append (its tail row was dropped on load) — re-run
    // that shard to complete its fragment, then merge again.
    std::size_t missing = 0;
    std::string firstMissing;
    std::size_t firstMissingShard = 0;
    for (std::size_t b = 0; b < nbench; ++b)
        for (std::size_t p = 0; p < npoints; ++p)
            if (!matrix.done[b * npoints + p]) {
                ++missing;
                if (firstMissing.empty()) {
                    firstMissing =
                        benchmarks[b].name + " / " + ctx.points[p];
                    for (const ShardRange &range : shards)
                        if (b >= range.beginBench && b < range.endBench)
                            firstMissingShard = range.index;
                }
            }
    if (missing > 0)
        throw std::runtime_error(
            "mergeShardJournals: " + std::to_string(missing) +
            " cell(s) missing (first: " + firstMissing + ", shard " +
            std::to_string(firstMissingShard) + "); re-run the "
            "incomplete shard(s), then merge again");

    // The canonical journal: byte-identical to a single-process
    // runSweep of the same inputs.
    rewriteJournal(options.journalPath, ctx.meta, matrix.rows);

    SweepResults results;
    results.points = ctx.points;
    for (const BenchmarkSpec &spec : benchmarks)
        results.benchmarks.push_back(spec.name);
    results.cells = std::move(matrix.cells);
    results.simulatedCells = 0;  // merge only validates and rewrites
    return results;
}

} // namespace imli

#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "src/corpus/trace_corpus.hh"
#include "src/dse/pareto.hh"
#include "src/dse/sweep.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/report.hh"
#include "src/util/thread_pool.hh"
#include "src/workloads/suite.hh"
#include "timing.hh"

namespace e2e
{

using imli::BenchmarkSpec;
using imli::SuiteCell;
using imli::TraceCorpus;

// ---- Workloads ------------------------------------------------------------

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = [] {
        std::vector<Workload> w(4);

        // The paper's headline experiment: IMLI's gain over TAGE-GSC on
        // the full 88-benchmark pool, immediate update.  Predictor
        // components dominate host time; pipeline and DSE do no work.
        w[0].name = "suite-imm";
        w[0].recorded = true;
        w[0].configs = {"tage-gsc", "tage-gsc+i"};
        w[0].expectedMembers = 88;

        // Section 4.3.2's delayed update: the same predictor code, but
        // checkpoint / restore / replay of the pipeline engine dominate.
        // 20 members at 50k keep a round near ten seconds.
        w[1].name = "pipeline-d63";
        w[1].patterns = {"SPEC2K6-*"};
        w[1].branches = 50000;
        w[1].configs = {"tage-gsc+i"};
        w[1].updateDelay = 63;
        w[1].expectedMembers = 20;
        w[1].tailPercentile = 75.0;  // 20 passes a round: two rounds

        // Design-space exploration: many short runs on cold tables, eight
        // predictors per stream, journal writes beside the resume read.
        w[2].name = "sweep-dse";
        w[2].kind = Workload::Kind::Sweep;
        w[2].branches = 20000;
        for (const char *sic : {"8", "9", "10", "11"})
            for (const char *gsc : {"9", "10"})
                w[2].configs.push_back(std::string("tage-gsc+i@sic.logsize=") +
                                       sic + ",gsc.logsize=" + gsc);
        w[2].expectedMembers = 80;

        // Predictability-class selection: characterization makes the
        // trace-source and corpus layers the largest share of the run,
        // and recorded members re-open from the decoded-stream cache.
        w[3].name = "corpus-class";
        w[3].recorded = true;
        w[3].className = "loopy";
        w[3].configs = {"tage-gsc+i"};
        w[3].expectedMembers = 11;
        w[3].coldStreamCache = false;
        w[3].tailPercentile = 75.0;  // 11 passes a round: four rounds
        return w;
    }();
    return all;
}

const Workload &
findWorkload(const std::string &name)
{
    std::string known;
    for (const Workload &w : workloads()) {
        if (w.name == name)
            return w;
        known += (known.empty() ? "" : ", ") + w.name;
    }
    throw std::invalid_argument("unknown workload \"" + name +
                                "\" (known: " + known + ")");
}

Workload
smokeVersion(Workload w)
{
    w.expectedMembers = 0;
    w.tailPercentile = 50.0;
    w.ladderBranches = 5000;
    if (w.name == "suite-imm") {
        w.patterns = {"SPEC2K6-12", "MM-4", "REC-01"};
        w.branches = 5000;
    } else if (w.name == "pipeline-d63") {
        w.patterns = {"SPEC2K6-12", "SPEC2K6-04"};
        w.branches = 5000;
    } else if (w.name == "sweep-dse") {
        w.patterns = {"SPEC2K6-12", "MM-4"};
        w.branches = 2000;
    } else {
        w.patterns = {"SPEC2K6-*", "REC-*"};
        w.branches = 20000;
    }
    return w;
}

void
applySeed(std::vector<BenchmarkSpec> &specs, std::uint64_t seed)
{
    // Odd multiplier: distinct run seeds give distinct member seeds, and
    // the default seed keeps the suite's own (the identity protocol).
    const std::uint64_t offset = (seed - kDefaultSeed) * 0x9E3779B97F4A7C15ull;
    for (BenchmarkSpec &spec : specs)
        if (spec.backend == imli::TraceBackend::Generated)
            spec.seed += offset;
}

// ---- Tail statistics ------------------------------------------------------

std::size_t
samplesBeyond(std::size_t n, double p)
{
    // Nearest rank ceil(p/100 * n), in tenths of a percent so the grid's
    // 99.9 needs no floating-point rounding.
    const auto tenths = static_cast<std::uint64_t>(std::llround(p * 10.0));
    const std::uint64_t rank = (tenths * n + 999) / 1000;
    return rank >= n ? 0 : n - static_cast<std::size_t>(rank);
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t beyond = samplesBeyond(samples.size(), p);
    return samples[samples.size() - beyond - 1];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

// ---- Set-up ---------------------------------------------------------------

Inputs
setUp(const Workload &w, std::uint64_t seed, const std::string &recorded_dir,
      SpanRecorder *spans, long parent)
{
    Inputs in;
    {
        ScopedSpan span(spans, "select", parent);
        imli::CorpusQuery query;
        query.recordedDir = w.recorded ? recorded_dir : "";
        query.patterns = w.patterns;
        query.targetBranches = w.branches;
        in.benchmarks = imli::selectSuiteBenchmarks(query);
        applySeed(in.benchmarks, seed);
        if (!w.className.empty()) {
            // Classify the seeded streams: the class is a property of
            // the stream the run will simulate.
            TraceCorpus corpus(in.benchmarks);
            for (const BenchmarkSpec &spec : in.benchmarks) {
                ScopedSpan c(spans, "characterize:" + spec.name, span.id());
                corpus.characterize(spec.name, w.branches);
            }
            in.benchmarks = corpus.selectClass(w.className, w.branches);
        }
    }
    if (in.benchmarks.empty())
        throw std::runtime_error(w.name + ": the selection is empty");
    if (seed == kDefaultSeed && w.expectedMembers != 0 &&
        in.benchmarks.size() != w.expectedMembers)
        throw std::runtime_error(
            w.name + ": selected " + std::to_string(in.benchmarks.size()) +
            " benchmarks, expected " + std::to_string(w.expectedMembers));
    {
        ScopedSpan span(spans, "fingerprint", parent);
        for (const BenchmarkSpec &spec : in.benchmarks)
            in.fingerprints.push_back(
                TraceCorpus::fingerprint(spec, w.branches));
    }
    {
        ScopedSpan span(spans, "canonicalize", parent);
        for (const std::string &config : w.configs)
            in.configs.push_back(imli::canonicalSpec(config));
    }
    {
        ScopedSpan span(spans, "construct", parent);
        for (const std::string &config : in.configs)
            in.storageBits.push_back(
                imli::makePredictor(config)->storageBits());
    }
    return in;
}

// ---- Cells and references -------------------------------------------------

Reference::Reference(const std::vector<SuiteCell> &list)
{
    for (const SuiteCell &c : list)
        cells[{c.benchmark, c.config}] =
            Counters{c.mispredictions, c.conditionals, c.instructions};
}

Reference
Reference::load(const std::string &path)
{
    if (path.empty())
        return Reference();
    std::ifstream in(path);
    if (!in)
        return Reference();
    return Reference(readCellsCsv(in));
}

const Reference::Counters *
Reference::find(const std::string &benchmark, const std::string &config) const
{
    const auto it = cells.find({benchmark, config});
    return it == cells.end() ? nullptr : &it->second;
}

void
writeCellsCsv(std::ostream &os, const std::vector<SuiteCell> &cells)
{
    imli::SuiteResults results;
    results.cells = cells;
    imli::printCellsCsv(os, results);
}

std::vector<SuiteCell>
readCellsCsv(std::istream &is)
{
    const auto split = [](const std::string &line) {
        std::vector<std::string> fields(1);
        bool quoted = false;
        for (const char c : line) {
            if (c == '"')
                quoted = !quoted;
            else if (c == ',' && !quoted)
                fields.emplace_back();
            else
                fields.back() += c;
        }
        return fields;
    };
    std::vector<SuiteCell> cells;
    std::string line;
    if (!std::getline(is, line) ||
        line != "suite,benchmark,config,mpki,mispredictions,conditionals,"
                "instructions")
        throw std::runtime_error("cells CSV: missing header");
    while (std::getline(is, line)) {
        const std::vector<std::string> f = split(line);
        if (f.size() != 7)
            throw std::runtime_error("cells CSV: malformed row: " + line);
        SuiteCell c;
        c.suite = f[0];
        c.benchmark = f[1];
        c.config = f[2];
        c.mpki = std::stod(f[3]);
        c.mispredictions = std::stoull(f[4]);
        c.conditionals = std::stoull(f[5]);
        c.instructions = std::stoull(f[6]);
        cells.push_back(c);
    }
    return cells;
}

std::string
referencePath(const std::string &dir, const std::string &name,
              std::uint64_t seed)
{
    if (dir.empty())
        return "";
    return dir + "/" + name + "-seed" + std::to_string(seed) + ".csv";
}

CheckResult
checkCells(const std::vector<SuiteCell> &cells, const Inputs &inputs,
           const Reference &seed_ref, const Reference &recorded_ref,
           const std::vector<SuiteCell> *previous)
{
    const std::size_t nconfigs = inputs.configs.size();
    if (cells.size() != inputs.benchmarks.size() * nconfigs)
        throw std::runtime_error(
            "cell matrix holds " + std::to_string(cells.size()) +
            " cells, expected " + std::to_string(inputs.benchmarks.size()) +
            " benchmarks x " + std::to_string(nconfigs) + " configs");

    CheckResult result;
    const auto counters = [](const SuiteCell &c) {
        return Reference::Counters{c.mispredictions, c.conditionals,
                                   c.instructions};
    };
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SuiteCell &cell = cells[i];
        const BenchmarkSpec &spec = inputs.benchmarks[i / nconfigs];
        const SuiteCell &first = cells[i - i % nconfigs];
        if (cell.benchmark != spec.name ||
            cell.config != inputs.configs[i % nconfigs])
            throw std::runtime_error("cell " + std::to_string(i) + " is (" +
                                     cell.benchmark + ", " + cell.config +
                                     "), out of benchmark-major order");

        std::string why;
        const Reference::Counters *ref =
            seed_ref.empty() ? nullptr
                             : seed_ref.find(cell.benchmark, cell.config);
        if (ref == nullptr && spec.backend != imli::TraceBackend::Generated)
            ref = recorded_ref.find(cell.benchmark, cell.config);
        if (!seed_ref.empty() && ref == nullptr)
            why = "absent from the reference";
        else if (ref != nullptr && *ref != counters(cell))
            why = "differs from the reference";
        else if (previous != nullptr &&
                 counters((*previous)[i]) != counters(cell))
            why = "differs from an earlier run of the same inputs";
        else if (cell.conditionals == 0 ||
                 cell.mispredictions > cell.conditionals)
            why = "breaks a stream invariant";
        else if (cell.conditionals != first.conditionals ||
                 cell.instructions != first.instructions)
            why = "disagrees with the other configs on the stream";

        ++result.attempted;
        if (!why.empty()) {
            ++result.failed;
            if (result.problems.size() < 5)
                result.problems.push_back(cell.benchmark + " / " +
                                          cell.config + ": " + why);
        }
    }
    return result;
}

// ---- Measured rounds ------------------------------------------------------

namespace
{

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

SuiteCell
toSuiteCell(const imli::SweepCell &c)
{
    SuiteCell cell;
    cell.benchmark = c.benchmark;
    cell.suite = c.suite;
    cell.config = c.spec;
    cell.mpki = c.mpki();
    cell.mispredictions = c.mispredictions;
    cell.conditionals = c.conditionals;
    cell.instructions = c.instructions;
    return cell;
}

bool
sameCounters(const imli::SweepCell &a, const imli::SweepCell &b)
{
    return a.spec == b.spec && a.benchmark == b.benchmark &&
           a.mispredictions == b.mispredictions &&
           a.conditionals == b.conditionals &&
           a.instructions == b.instructions;
}

/**
 * Per-benchmark pass seconds from runSweep's timing sidecar, in declared
 * order.  The seconds column is rounded to milliseconds, so the value is
 * recovered as conditionals / branches_per_sec (about six digits).
 */
std::vector<double>
readSidecar(const std::string &path, const std::vector<imli::SweepCell> &cells,
            std::size_t npoints)
{
    std::ifstream in(path);
    std::string line;
    if (!in || !std::getline(in, line))
        throw std::runtime_error("cannot read sweep timing sidecar " + path);
    std::vector<double> seconds;
    while (std::getline(in, line)) {
        const std::size_t a = line.find(',');
        const std::size_t b = line.find(',', a + 1);
        const std::size_t row = seconds.size() * npoints;
        if (a == std::string::npos || b == std::string::npos ||
            row >= cells.size() || cells[row].benchmark != line.substr(0, a))
            throw std::runtime_error("unexpected sidecar row: " + line);
        const double bps = std::stod(line.substr(b + 1));
        seconds.push_back(bps > 0 ? cells[row].conditionals / bps
                                  : std::stod(line.substr(a + 1, b - a - 1)));
    }
    return seconds;
}

void
runSuiteRound(const Workload &w, const Inputs &in, unsigned jobs,
              SpanRecorder *spans, Round &round, Clock::time_point start)
{
    imli::SuiteRunOptions options;
    options.branchesPerTrace = w.branches;
    options.jobs = jobs;
    options.sim.updateDelay = w.updateDelay;
    if (spans != nullptr)
        options.progress = [&](const std::string &, std::size_t done) {
            if (done == 1)
                round.completions.push_back(secondsSince(start));
        };
    ScopedSpan span(spans, "runSuite");
    const imli::SuiteResults results =
        imli::runSuite(in.benchmarks, in.configs, options);
    round.cells = results.cells;
    for (std::size_t i = 0; i < results.cells.size(); i += in.configs.size())
        round.benchSeconds.push_back(results.cells[i].seconds);
}

void
runSweepRound(const Workload &w, const Inputs &in, unsigned jobs,
              const std::string &work_dir, SpanRecorder *spans, Round &round,
              Clock::time_point start)
{
    imli::SweepOptions options;
    options.branchesPerTrace = w.branches;
    options.jobs = jobs;
    options.sim.updateDelay = w.updateDelay;
    options.journalPath = work_dir + "/" + w.name + ".journal.csv";
    options.timingSidecarPath = work_dir + "/" + w.name + ".timing.csv";
    std::filesystem::remove(options.journalPath);
    std::filesystem::remove(options.timingSidecarPath);
    if (spans != nullptr)
        options.progress = [&](const std::string &, std::size_t) {
            round.completions.push_back(secondsSince(start));
        };

    imli::SweepResults fresh;
    {
        ScopedSpan span(spans, "runSweep");
        fresh = imli::runSweep(in.benchmarks, in.configs, options);
    }
    round.benchSeconds = readSidecar(options.timingSidecarPath, fresh.cells,
                                     in.configs.size());
    options.timingSidecarPath.clear();
    options.progress = nullptr;

    imli::SweepResults resumed;
    {
        ScopedSpan span(spans, "resume");
        resumed = imli::runSweep(in.benchmarks, in.configs, options);
    }
    std::vector<imli::SweepCell> journal;
    {
        ScopedSpan span(spans, "pareto");
        journal = imli::loadJournal(options.journalPath);
        const std::vector<imli::ParetoEntry> frontier =
            imli::paretoFrontier(imli::aggregateCells(journal));
        if (frontier.empty())
            throw std::runtime_error("the Pareto frontier is empty");
    }
    round.journalBytes = std::filesystem::file_size(options.journalPath);

    // The resumed sweep and the journal must hold exactly the fresh
    // cells; a cell that comes back different is a failed cell.
    const bool complete = resumed.simulatedCells == 0 &&
                          resumed.cells.size() == fresh.cells.size() &&
                          journal.size() == fresh.cells.size();
    for (std::size_t i = 0; i < fresh.cells.size(); ++i) {
        SuiteCell cell = toSuiteCell(fresh.cells[i]);
        if (!complete || !sameCounters(fresh.cells[i], resumed.cells[i]) ||
            !sameCounters(fresh.cells[i], journal[i]))
            cell.mispredictions = cell.conditionals + 1;  // fails the check
        round.cells.push_back(cell);
    }
}

} // anonymous namespace

Round
runRound(const Workload &w, const Inputs &inputs, unsigned jobs,
         const std::string &work_dir, SpanRecorder *spans)
{
    Round round;
    if (w.coldStreamCache)
        TraceCorpus::clearStreamCache();
    const double cpu0 = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    try {
        if (w.kind == Workload::Kind::Sweep)
            runSweepRound(w, inputs, jobs, work_dir, spans, round, start);
        else
            runSuiteRound(w, inputs, jobs, spans, round, start);
    } catch (const std::exception &e) {
        round.error = e.what();
        round.cells.clear();
    }
    round.wallSeconds = secondsSince(start);
    round.cpuSeconds = processCpuSeconds() - cpu0;
    for (const SuiteCell &c : round.cells)
        round.graded += c.conditionals;
    return round;
}

// ---- Metrics --------------------------------------------------------------

namespace
{

/** Mean MPKI of the workload's tage-gsc+i cells (sweep points included). */
double
imliMpkiMean(const std::vector<SuiteCell> &cells)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const SuiteCell &c : cells)
        if (c.config.rfind("tage-gsc+i", 0) == 0 &&
            (c.config.size() == 10 || c.config[10] == '@')) {
            sum += c.mpki;
            ++n;
        }
    return n == 0 ? 0.0 : sum / n;
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
countNote(const std::string &what, std::size_t n)
{
    return what + " of " + std::to_string(n);
}

void
fillProvenance(Outcome &out, const Inputs &in)
{
    for (std::size_t c = 0; c < in.configs.size(); ++c)
        out.specs.emplace_back(in.configs[c], in.storageBits[c]);
    for (std::size_t b = 0; b < in.benchmarks.size(); ++b)
        out.fingerprints.emplace_back(in.benchmarks[b].name,
                                      in.fingerprints[b]);
}

/** Fold one round's checks into @p out. */
void
account(Outcome &out, const Round &round, const Inputs &in,
        const Reference &seed_ref, const Reference &recorded_ref,
        const std::vector<SuiteCell> *previous)
{
    if (!round.error.empty()) {
        const std::size_t n = in.benchmarks.size() * in.configs.size();
        out.attempted += n;
        out.failed += n;
        out.problems.push_back("round threw: " + round.error);
        return;
    }
    const CheckResult check =
        checkCells(round.cells, in, seed_ref, recorded_ref, previous);
    out.attempted += check.attempted;
    out.failed += check.failed;
    for (const std::string &p : check.problems)
        if (out.problems.size() < 10)
            out.problems.push_back(p);
}

} // anonymous namespace

Outcome
measureEndToEnd(const Workload &w, const RunOptions &opt)
{
    const Reference seedRef =
        Reference::load(referencePath(opt.refDir, w.name, opt.seed));
    const Reference recordedRef =
        Reference::load(referencePath(opt.refDir, w.name, kDefaultSeed));

    // Every measured phase sits between two calibration runs on as many
    // threads as the phase uses (set-up is serial, rounds use the jobs);
    // their mean gives the phase's host speed, speed = reference /
    // calibration (above 1 on a fast host), and the phase's times are
    // scaled by it.
    unsigned phaseThreads = 1;
    double calibration = calibrationSeconds(phaseThreads);
    std::vector<double> speeds;
    const auto phaseSpeed = [&] {
        const double next = calibrationSeconds(phaseThreads);
        const double speed =
            2.0 * kReferenceCalibrationSeconds / (calibration + next);
        calibration = next;
        speeds.push_back(speed);
        return speed;
    };

    // Set-up, several times from a cold decoded-stream cache; the median
    // is setup_s.  Cheap set-ups repeat until 2.5 s of set-up have run:
    // within one process, runs of consecutive set-ups take 0.4x or 1x the
    // time of their neighbours (the first few are always slow; the
    // calibration does not follow the swing, so it is not the host), and
    // only many set-ups give a median that holds from run to run.
    std::vector<double> setupTimes, rawSetupTimes;
    Inputs inputs;
    double setupSpent = 0.0;
    while (setupTimes.size() < 3 ||
           (setupTimes.size() < 30 && setupSpent < 2.5)) {
        TraceCorpus::clearStreamCache();
        const Clock::time_point t = Clock::now();
        inputs = setUp(w, opt.seed, opt.recordedDir);
        rawSetupTimes.push_back(secondsSince(t));
        setupSpent += rawSetupTimes.back();
        setupTimes.push_back(rawSetupTimes.back() * phaseSpeed());
    }

    Outcome out;
    fillProvenance(out, inputs);

    // After the serial set-up, parallel work runs at a fraction of full
    // speed for about a second on virtualized hosts while the host wakes
    // the idle vCPUs.  Keep every worker's CPU busy through that first.
    phaseThreads = opt.jobs;
    const Clock::time_point wake = Clock::now();
    do {
        calibration = calibrationSeconds(phaseThreads);
    } while (secondsSince(wake) < 2.0);

    // Closed loop: each round starts when the previous one has finished.
    // Every round is checked against the first good one, so all rounds
    // must agree bit for bit.
    std::vector<SuiteCell> firstCells;
    std::vector<double> passes, throughput, cpuPerBranch, rawThroughput;
    const Clock::time_point phase = Clock::now();
    for (;;) {
        const Round r = runRound(w, inputs, opt.jobs, opt.workDir);
        const double speed = phaseSpeed();
        account(out, r, inputs, seedRef, recordedRef,
                firstCells.empty() ? nullptr : &firstCells);
        if (r.error.empty() && r.graded > 0) {
            if (firstCells.empty())
                firstCells = r.cells;
            rawThroughput.push_back(r.graded / r.wallSeconds);
            throughput.push_back(rawThroughput.back() / speed);
            cpuPerBranch.push_back(r.cpuSeconds * speed * 1e9 / r.graded);
        }
        for (const double seconds : r.benchSeconds)
            passes.push_back(seconds * speed);
        if (secondsSince(phase) >= opt.seconds &&
            (!r.error.empty() ||
             samplesBeyond(passes.size(), w.tailPercentile) >= kTailBeyond))
            break;
    }
    out.hostSpeed = median(speeds);

    const auto raw = [](double v) { return "; raw " + number(v); };
    const std::string roundsNote = countNote("median", throughput.size()) +
                                   " rounds";
    char tail[64];
    std::snprintf(tail, sizeof(tail), "p%g", w.tailPercentile);
    out.metrics = {
        {"branches_per_s", median(throughput), "1/s",
         roundsNote + raw(median(rawThroughput)), throughput},
        {"cpu_ns_per_branch", median(cpuPerBranch), "ns", roundsNote,
         cpuPerBranch},
        {"bench_s_p50", percentile(passes, 50.0), "s",
         countNote("p50", passes.size()) + " benchmark passes"},
        {"bench_s_tail", percentile(passes, w.tailPercentile), "s",
         std::string(tail) + " of " + std::to_string(passes.size()) +
             " benchmark passes (" +
             std::to_string(samplesBeyond(passes.size(), w.tailPercentile)) +
             " beyond)"},
        {"setup_s", median(setupTimes), "s",
         countNote("median", setupTimes.size()) + " set-ups" +
             raw(median(rawSetupTimes)),
         setupTimes},
        {"peak_rss_mb", peakRssMb(), "MB", "whole process"},
        {"mpki_mean", imliMpkiMean(firstCells), "MPKI",
         "simulated; tage-gsc+i cells"},
    };
    return out;
}

// ---- Traced run -----------------------------------------------------------

namespace
{

/** What the traced round learns about one benchmark. */
struct PassTrace
{
    PredictorCalls predictor;
    SourceCalls source;
    bool recorded = false;
    std::uint64_t openNanos = 0;
    std::uint64_t constructNanos = 0;
    std::uint64_t simulateNanos = 0;
    std::uint64_t constructs = 0;
};

struct TracedRound
{
    std::vector<SuiteCell> cells;
    std::vector<PassTrace> passes;
    double wallSeconds = 0.0;
    std::string error;
    /** Decoded-stream cache activity during the round. */
    std::uint64_t cacheHits = 0, cacheMisses = 0, cacheBytes = 0;
};

/**
 * The workload's cells on the benchmark's own scheduler: the same
 * benchmark-major self-scheduling as runSuite / runSweep, but with every
 * source and predictor wrapped in a timing decorator.
 */
TracedRound
runTracedRound(const Workload &w, const Inputs &in, unsigned jobs,
               SpanRecorder &spans)
{
    if (w.coldStreamCache)
        TraceCorpus::clearStreamCache();
    const TraceCorpus::StreamCacheStats cacheBefore =
        TraceCorpus::streamCacheStats();
    const std::size_t nb = in.benchmarks.size();
    const std::size_t nc = in.configs.size();
    TracedRound round;
    round.cells.resize(nb * nc);
    round.passes.resize(nb);
    std::vector<std::string> errors(nb);

    ScopedSpan roundSpan(&spans, "traced-round");
    const Clock::time_point start = Clock::now();
    imli::ThreadPool pool(
        static_cast<unsigned>(std::min<std::size_t>(jobs, nb)));
    pool.parallelFor(nb, [&](std::size_t b) {
        const BenchmarkSpec &spec = in.benchmarks[b];
        PassTrace &pass = round.passes[b];
        ScopedSpan passSpan(&spans, "pass:" + spec.name, roundSpan.id());
        try {
            Clock::time_point t = Clock::now();
            std::unique_ptr<imli::BranchSource> raw;
            {
                ScopedSpan s(&spans, "open:" + spec.name, passSpan.id());
                raw = TraceCorpus::open(spec, w.branches);
            }
            pass.openNanos = nanosSince(t);
            TimedSource source(std::move(raw));

            t = Clock::now();
            std::vector<std::unique_ptr<TimedPredictor>> predictors;
            std::vector<imli::ConditionalPredictor *> ptrs;
            std::vector<imli::SimOptions> sims;
            {
                ScopedSpan s(&spans, "construct:" + spec.name,
                             passSpan.id());
                for (const std::string &config : in.configs) {
                    const imli::ParsedSpec parsed = imli::parseSpec(config);
                    predictors.push_back(std::make_unique<TimedPredictor>(
                        imli::makePredictor(parsed)));
                    ptrs.push_back(predictors.back().get());
                    imli::SimOptions sim;
                    sim.updateDelay = w.updateDelay;
                    sims.push_back(imli::applySpecDelay(parsed, sim));
                }
            }
            pass.constructNanos = nanosSince(t);
            pass.constructs = nc;

            t = Clock::now();
            std::vector<imli::SimResult> results;
            {
                ScopedSpan s(&spans, "simulate:" + spec.name,
                             passSpan.id());
                results = imli::simulateMany(ptrs, source, sims);
            }
            pass.simulateNanos = nanosSince(t);

            for (std::size_t c = 0; c < nc; ++c) {
                SuiteCell &cell = round.cells[b * nc + c];
                cell.benchmark = spec.name;
                cell.suite = spec.suite;
                cell.config = in.configs[c];
                cell.mpki = results[c].mpki();
                cell.mispredictions = results[c].mispredictions;
                cell.conditionals = results[c].conditionals;
                cell.instructions = results[c].instructions;
                pass.predictor.add(predictors[c]->calls());
            }
            pass.source = source.calls();
            pass.recorded = spec.backend != imli::TraceBackend::Generated;
        } catch (const std::exception &e) {
            errors[b] = spec.name + ": " + e.what();
        }
    });
    round.wallSeconds = secondsSince(start);
    const TraceCorpus::StreamCacheStats cacheAfter =
        TraceCorpus::streamCacheStats();
    round.cacheHits = cacheAfter.hits - cacheBefore.hits;
    round.cacheMisses = cacheAfter.misses - cacheBefore.misses;
    round.cacheBytes = cacheAfter.bytes;
    for (const std::string &e : errors)
        if (!e.empty() && round.error.empty())
            round.error = e;
    return round;
}

/** One row of the component ladder. */
struct LadderRow
{
    std::string spec;
    double nsPerBranch = 0.0;
    PredictorCalls calls;
    bool identical = true;  //!< decorated counters == bare counters
};

std::vector<LadderRow>
runLadder(std::uint64_t seed, std::size_t branches, SpanRecorder &spans)
{
    ScopedSpan ladderSpan(&spans, "ladder");
    std::vector<BenchmarkSpec> stream = {imli::findBenchmark("SPEC2K6-12")};
    applySeed(stream, seed);
    // One materialized stream shared by every row, so the rows differ
    // only in the predictor.
    const imli::Trace trace =
        imli::drainSource(*TraceCorpus::open(stream[0], branches));

    const std::vector<std::string> &specs = ladderSpecs();
    const auto pass = [&](imli::ConditionalPredictor &p) {
        imli::TraceBranchSource source(trace);
        return imli::simulateMany(
            std::vector<imli::ConditionalPredictor *>{&p}, source)[0];
    };

    // Repetitions are interleaved across the rows, so host speed drift
    // lands on every row alike instead of on their differences.
    std::vector<std::vector<double>> nsPerBranch(specs.size());
    std::vector<imli::SimResult> bare(specs.size());
    for (int rep = 0; rep < 5; ++rep) {
        for (std::size_t r = 0; r < specs.size(); ++r) {
            ScopedSpan rowSpan(&spans, "ladder:" + specs[r], ladderSpan.id());
            const imli::PredictorPtr p = imli::makePredictor(specs[r]);
            const Clock::time_point t = Clock::now();
            bare[r] = pass(*p);
            nsPerBranch[r].push_back(
                static_cast<double>(nanosSince(t)) /
                std::max<std::uint64_t>(1, bare[r].conditionals));
        }
    }

    std::vector<LadderRow> rows;
    for (std::size_t r = 0; r < specs.size(); ++r) {
        LadderRow row;
        row.spec = specs[r];
        row.nsPerBranch = median(nsPerBranch[r]);
        TimedPredictor timed(imli::makePredictor(specs[r]));
        const imli::SimResult traced = pass(timed);
        row.calls = timed.calls();
        row.identical = traced.mispredictions == bare[r].mispredictions &&
                        traced.conditionals == bare[r].conditionals &&
                        traced.instructions == bare[r].instructions;
        rows.push_back(row);
    }
    return rows;
}

} // anonymous namespace

const std::vector<std::string> &
ladderSpecs()
{
    static const std::vector<std::string> specs = {
        "bimodal", "tage-gsc", "tage-gsc+i", "tage-gsc+i+loop",
        "meta(tage-gsc,gehl,gshare)"};
    return specs;
}

std::string
metricName(const std::string &spec)
{
    std::string out;
    for (const char c : spec) {
        if (c == ')')
            continue;
        out += (c == '+' || c == '(' || c == ',' || c == '@' || c == '=')
                   ? '_'
                   : c;
    }
    return out;
}

Outcome
measureLayers(const Workload &w, const RunOptions &opt)
{
    const Reference seedRef =
        Reference::load(referencePath(opt.refDir, w.name, opt.seed));
    const Reference recordedRef =
        Reference::load(referencePath(opt.refDir, w.name, kDefaultSeed));
    SpanRecorder spans;

    // Decoded-stream cache activity is counted over set-up and the traced
    // round, the two phases whose opens the trace attributes.  Clearing
    // the cache also zeroes its counters.
    TraceCorpus::clearStreamCache();
    const auto cache0 = TraceCorpus::streamCacheStats();
    Inputs inputs;
    {
        ScopedSpan setup(&spans, "setup");
        inputs = setUp(w, opt.seed, opt.recordedDir, &spans, setup.id());
    }
    const auto cache1 = TraceCorpus::streamCacheStats();

    Outcome out;
    fillProvenance(out, inputs);

    // Untraced and traced rounds alternate U T T U after an untraced
    // warm-up: the warm-up pays the process's first-round costs (page
    // faults on fresh tables) and the mirrored order cancels steady host
    // drift, so the overhead ratio compares like with like.  The first
    // untraced round after the warm-up carries the spans and scheduler
    // metrics; the first traced round carries the per-layer counts.
    const Round warmup = runRound(w, inputs, opt.jobs, opt.workDir);
    account(out, warmup, inputs, seedRef, recordedRef, nullptr);
    const std::vector<SuiteCell> *base =
        warmup.error.empty() ? &warmup.cells : nullptr;
    const Round plain = runRound(w, inputs, opt.jobs, opt.workDir, &spans);
    account(out, plain, inputs, seedRef, recordedRef, base);
    const auto accountTraced = [&](const TracedRound &traced) {
        Round asRound;
        if (!traced.error.empty())
            asRound.error = "traced round: " + traced.error;
        asRound.cells = traced.cells;
        account(out, asRound, inputs, seedRef, recordedRef, base);
    };
    const TracedRound traced = runTracedRound(w, inputs, opt.jobs, spans);
    accountTraced(traced);
    const TracedRound tracedAgain = runTracedRound(w, inputs, opt.jobs, spans);
    accountTraced(tracedAgain);
    const Round plainAgain = runRound(w, inputs, opt.jobs, opt.workDir);
    account(out, plainAgain, inputs, seedRef, recordedRef, base);
    const double untracedWall =
        0.5 * (plain.wallSeconds + plainAgain.wallSeconds);
    const double tracedWall =
        0.5 * (traced.wallSeconds + tracedAgain.wallSeconds);

    const std::vector<LadderRow> ladder =
        runLadder(opt.seed, w.ladderBranches, spans);
    for (const LadderRow &row : ladder) {
        ++out.attempted;
        if (!row.identical) {
            ++out.failed;
            out.problems.push_back("ladder " + row.spec +
                                   ": decorated counters differ");
        }
    }

    // Sums over the traced round's passes.
    PredictorCalls pred;
    SourceCalls generated, recorded;
    std::uint64_t openNs = 0, constructNs = 0, simulateNs = 0, constructs = 0;
    for (const PassTrace &p : traced.passes) {
        pred.add(p.predictor);
        (p.recorded ? recorded : generated).add(p.source);
        openNs += p.openNanos;
        constructNs += p.constructNanos;
        simulateNs += p.simulateNanos;
        constructs += p.constructs;
    }
    const auto perRecord = [](const SourceCalls &s) {
        return s.records == 0 ? 0.0
                              : static_cast<double>(s.nextChunk.nanos) /
                                    s.records;
    };
    const double simulateS = simulateNs * 1e-9;
    const std::uint64_t commits = pred.update.calls;
    const std::uint64_t replays =
        pred.speculate.calls > commits ? pred.speculate.calls - commits : 0;

    // Scheduler view of the untraced round: busy thread-seconds, their
    // share of jobs x wall, and the idle time of workers that ran out of
    // benchmarks while the last ones finished (the last `jobs`
    // completions are each worker's final task).
    const double jobsUsed = static_cast<double>(
        std::min<std::size_t>(opt.jobs, inputs.benchmarks.size()));
    const double busy = std::accumulate(plain.benchSeconds.begin(),
                                        plain.benchSeconds.end(), 0.0);
    std::vector<double> done = plain.completions;
    std::sort(done.begin(), done.end());
    const std::size_t lastTasks =
        std::min(done.size(), static_cast<std::size_t>(jobsUsed));
    double tailIdle = 0.0;
    for (std::size_t i = 0; i < lastTasks; ++i)
        tailIdle += done.back() - done[done.size() - 1 - i];

    const double hits =
        static_cast<double>(cache1.hits - cache0.hits + traced.cacheHits);
    const double misses = static_cast<double>(cache1.misses - cache0.misses +
                                              traced.cacheMisses);

    std::vector<Metric> &m = out.metrics;
    m.push_back({"predictors.predict_ns", pred.predict.nsPerCall(), "ns", ""});
    m.push_back({"predictors.update_ns", pred.update.nsPerCall(), "ns", ""});
    m.push_back({"predictors.construct_s", constructNs * 1e-9, "s", ""});
    m.push_back({"predictors.constructs", static_cast<double>(constructs),
                 "count", ""});
    double tageGsc = 0.0, tageGscI = 0.0;
    for (const LadderRow &row : ladder) {
        const std::string n = metricName(row.spec);
        m.push_back({"predictors." + n + ".predict_ns",
                     row.calls.predict.nsPerCall(), "ns", ""});
        m.push_back({"predictors." + n + ".update_ns",
                     row.calls.update.nsPerCall(), "ns", ""});
        m.push_back({"predictors.ladder." + n + ".ns_per_branch",
                     row.nsPerBranch, "ns", "median of 5"});
        if (row.spec == "tage-gsc")
            tageGsc = row.nsPerBranch;
        if (row.spec == "tage-gsc+i")
            tageGscI = row.nsPerBranch;
    }
    m.push_back({"core.imli.ns_per_branch", tageGscI - tageGsc, "ns",
                 "ladder tage-gsc+i minus tage-gsc"});

    m.push_back({"sim.pipeline.restore_s", pred.restore.seconds(), "s", ""});
    m.push_back({"sim.pipeline.checkpoint_s", pred.checkpoint.seconds(), "s",
                 ""});
    m.push_back({"sim.pipeline.speculate_s", pred.speculate.seconds(), "s",
                 ""});
    m.push_back({"sim.pipeline.restore_calls",
                 static_cast<double>(pred.restore.calls), "count", ""});
    m.push_back({"sim.pipeline.commits",
                 pred.speculate.calls == 0 ? 0.0
                                           : static_cast<double>(commits),
                 "count", "conditional branches"});
    m.push_back({"sim.pipeline.squashes", static_cast<double>(pred.squashes),
                 "count", ""});
    m.push_back({"sim.pipeline.replays", static_cast<double>(replays),
                 "count", "conditional branches"});
    m.push_back({"sim.pipeline.useful_ratio",
                 pred.speculate.calls == 0
                     ? 0.0
                     : static_cast<double>(commits) /
                           static_cast<double>(commits + replays),
                 "ratio", "commits / (commits + replays)"});
    m.push_back({"sim.pipeline.restore_share",
                 simulateS > 0 ? pred.restore.seconds() / simulateS : 0.0,
                 "ratio", "of simulateMany thread-seconds"});

    m.push_back({"workloads.gen_ns_per_record", perRecord(generated), "ns",
                 ""});
    m.push_back({"trace.decode_ns_per_record", perRecord(recorded), "ns",
                 ""});
    m.push_back({"corpus.characterize_s", spans.total("characterize"), "s",
                 ""});
    m.push_back({"corpus.open_s", openNs * 1e-9, "s", ""});
    m.push_back({"corpus.cache_hits", hits, "count", ""});
    m.push_back({"corpus.cache_misses", misses, "count", ""});
    m.push_back({"corpus.cache_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
                 ""});
    m.push_back({"corpus.cache_bytes", static_cast<double>(traced.cacheBytes),
                 "B", ""});

    m.push_back({"sim.grade_self_s",
                 simulateS - pred.nanos() * 1e-9 -
                     (generated.nextChunk.seconds() +
                      recorded.nextChunk.seconds()),
                 "s", "simulateMany minus source and predictor calls"});
    m.push_back({"sim.sched.busy_s", busy, "s", ""});
    m.push_back({"sim.sched.utilization",
                 plain.wallSeconds > 0 ? busy / (jobsUsed * plain.wallSeconds)
                                       : 0.0,
                 "ratio", ""});
    m.push_back({"sim.sched.tail_idle_s", tailIdle, "s", ""});

    m.push_back({"dse.sweep_s", spans.total("runSweep"), "s", ""});
    m.push_back({"dse.resume_s", spans.total("resume"), "s", ""});
    m.push_back({"dse.pareto_s", spans.total("pareto"), "s", ""});
    m.push_back({"dse.journal_bytes", static_cast<double>(plain.journalBytes),
                 "B", ""});

    m.push_back({"tracing.untraced_wall_s", untracedWall, "s",
                 "mean of 2 rounds"});
    m.push_back({"tracing.traced_wall_s", tracedWall, "s", "mean of 2 rounds"});
    m.push_back({"tracing.overhead_ratio",
                 untracedWall > 0 ? tracedWall / untracedWall : 0.0, "ratio",
                 "traced / untraced round wall time, rounds U T T U"});

    spans.write(opt.workDir + "/" + w.name + "-seed" +
                std::to_string(opt.seed) + ".spans.json");
    return out;
}

} // namespace e2e

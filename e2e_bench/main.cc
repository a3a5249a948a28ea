/**
 * @file
 * e2e_bench: run one workload of the end-to-end benchmark and print its
 * metrics.  Normally started through run.py, which builds this binary
 * from the checkout first:
 *
 *   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
 *             --root REPO --work-dir DIR [--rev REV]
 *   e2e_bench --workload NAME --seed N --root REPO --work-dir DIR
 *             --write-ref FILE      (record one round's cells as a reference)
 *
 * Standard output: a human-readable report, one provenance JSON line,
 * then, as the last line, {"correct", "attempted", "failed", "metrics"}.
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
 * per-layer ones from the traced run.  Any error exits non-zero without
 * a result line.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hh"

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + '"';
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
readFirstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** "key : value" field of /proc/cpuinfo's first processor. */
std::string
cpuInfo(const std::string &key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct Args
{
    std::map<std::string, std::string> values;

    std::string get(const std::string &key) const
    {
        const auto it = values.find(key);
        if (it == values.end())
            throw std::invalid_argument("missing --" + key);
        return it->second;
    }
    std::string get(const std::string &key, const std::string &def) const
    {
        const auto it = values.find(key);
        return it == values.end() ? def : it->second;
    }
};

Args
parseArgs(int argc, char **argv)
{
    static const char *known[] = {"workload", "seed", "seconds",
                                  "trace",    "root", "work-dir",
                                  "rev",      "write-ref"};
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        bool ok = flag.rfind("--", 0) == 0 && i + 1 < argc;
        if (ok) {
            ok = false;
            for (const char *k : known)
                ok = ok || flag.substr(2) == k;
        }
        if (!ok)
            throw std::invalid_argument("unknown or valueless flag " + flag);
        args.values[flag.substr(2)] = argv[++i];
    }
    return args;
}

std::uint64_t
parseUnsigned(const std::string &text, const std::string &what)
{
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used != text.size() || text[0] == '-')
        throw std::invalid_argument(what + ": not an unsigned integer: " +
                                    text);
    return v;
}

int
run(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const e2e::Workload &workload = e2e::findWorkload(args.get("workload"));

    const std::string root = args.get("root");
    e2e::RunOptions opt;
    opt.seed = parseUnsigned(args.get("seed"), "--seed");
    opt.recordedDir = root + "/tests/data";
    opt.refDir = root + "/e2e_bench/ref";
    opt.workDir = args.get("work-dir");
    // A closed loop of at most four workers: the shape of the workload
    // stays the same on hosts with more cores.
    opt.jobs = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

    if (args.values.count("write-ref")) {
        const e2e::Inputs inputs =
            e2e::setUp(workload, opt.seed, opt.recordedDir);
        const e2e::Round round =
            e2e::runRound(workload, inputs, opt.jobs, opt.workDir);
        if (!round.error.empty())
            throw std::runtime_error(round.error);
        std::ofstream out(args.get("write-ref"));
        e2e::writeCellsCsv(out, round.cells);
        if (!out.flush())
            throw std::runtime_error("cannot write the reference");
        return 0;
    }

    opt.seconds = static_cast<double>(
        parseUnsigned(args.get("seconds"), "--seconds"));
    const std::string trace = args.get("trace");
    if (trace != "0" && trace != "1")
        throw std::invalid_argument("--trace must be 0 or 1");

    const std::string loadStart = readFirstLine("/proc/loadavg");
    const e2e::Outcome out = trace == "1"
                                 ? e2e::measureLayers(workload, opt)
                                 : e2e::measureEndToEnd(workload, opt);
    const std::string loadEnd = readFirstLine("/proc/loadavg");

    // Human-readable report.
    std::cout << "workload " << workload.name << ", seed "
              << opt.seed << ", jobs " << opt.jobs << ", trace " << trace
              << '\n';
    for (const e2e::Metric &m : out.metrics)
        std::cout << "  " << m.name << " = " << number(m.value) << ' '
                  << m.unit << (m.note.empty() ? "" : "  (" + m.note + ")")
                  << '\n';
    for (const e2e::Metric &m : out.metrics) {
        if (m.samples.empty())
            continue;
        std::cout << "  " << m.name << " samples:";
        for (const double v : m.samples)
            std::cout << ' ' << number(v);
        std::cout << '\n';
    }
    std::cout << "  fail_ratio = "
              << number(out.attempted == 0
                            ? 1.0
                            : static_cast<double>(out.failed) / out.attempted)
              << " ratio  (" << out.failed << " of " << out.attempted
              << " cells)\n";
    if (out.hostSpeed > 0)
        std::cout << "  host speed = " << number(out.hostSpeed)
                  << " of the reference (host times above are scaled to "
                     "the reference speed)\n";
    for (const std::string &p : out.problems)
        std::cout << "  problem: " << p << '\n';

    // Provenance, so numbers from different hosts or builds are never
    // compared by accident.
    std::ostringstream prov;
    prov << "{\"provenance\": {\"rev\": " << jsonString(args.get("rev", ""))
         << ", \"build_type\": " << jsonString(E2E_BUILD_TYPE)
         << ", \"compiler\": " << jsonString(E2E_COMPILER)
         << ", \"cpu_model\": " << jsonString(cpuInfo("model name"))
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"cpu_mhz\": " << jsonString(cpuInfo("cpu MHz"))
         << ", \"loadavg_start\": " << jsonString(loadStart)
         << ", \"loadavg_end\": " << jsonString(loadEnd)
         << ", \"workload\": " << jsonString(workload.name)
         << ", \"host_speed\": " << number(out.hostSpeed)
         << ", \"seed\": " << opt.seed
         << ", \"jobs\": " << opt.jobs << ", \"trace\": " << trace
         << ", \"storage_bits\": {";
    for (std::size_t i = 0; i < out.specs.size(); ++i)
        prov << (i ? ", " : "") << jsonString(out.specs[i].first) << ": "
             << out.specs[i].second;
    prov << "}, \"trace_fingerprints\": {";
    for (std::size_t i = 0; i < out.fingerprints.size(); ++i)
        prov << (i ? ", " : "") << jsonString(out.fingerprints[i].first)
             << ": " << jsonString(hex(out.fingerprints[i].second));
    prov << "}}}";
    std::cout << prov.str() << '\n';

    std::ostringstream result;
    result << "{\"correct\": " << (out.correct() ? "true" : "false")
           << ", \"attempted\": " << out.attempted
           << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i)
        result << (i ? ", " : "") << jsonString(out.metrics[i].name)
               << ": {\"value\": " << number(out.metrics[i].value)
               << ", \"unit\": " << jsonString(out.metrics[i].unit) << '}';
    result << "}}";
    std::cout << result.str() << std::endl;
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "e2e_bench: " << e.what() << '\n';
        return 1;
    }
}

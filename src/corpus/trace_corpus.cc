#include "src/corpus/trace_corpus.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "src/trace/cbp_reader.hh"
#include "src/trace/trace_io.hh"
#include "src/workloads/suite.hh"

namespace imli
{

namespace
{

/** Total record bytes the process-wide decoded-trace cache may hold. */
constexpr std::size_t kStreamCacheCapBytes = 256u << 20;

/** Generated-stream records mixed into the content fingerprint. */
constexpr std::size_t kFingerprintRecords = 4096;

/** Chunked spans over a cache-owned Trace; the shared_ptr keeps the
 *  decoded copy alive for as long as any source still streams it. */
class SharedTraceBranchSource : public BranchSource
{
  public:
    SharedTraceBranchSource(std::shared_ptr<const Trace> trace,
                            std::string name, std::size_t chunk_records)
        : trace(std::move(trace)), streamName(std::move(name)),
          chunkRecords(chunk_records == 0 ? defaultChunkRecords
                                          : chunk_records)
    {
    }

    const std::string &name() const override { return streamName; }

    BranchSpan nextChunk() override
    {
        const auto &records = trace->branches();
        if (cursor >= records.size())
            return {};
        const std::size_t count =
            std::min(chunkRecords, records.size() - cursor);
        BranchSpan span{records.data() + cursor, count};
        cursor += count;
        return span;
    }

    void reset() override { cursor = 0; }

  private:
    std::shared_ptr<const Trace> trace;
    std::string streamName;
    std::size_t chunkRecords;
    std::size_t cursor = 0;
};

/** The process-wide decoded-trace cache behind TraceCorpus::open(). */
struct StreamCache
{
    std::mutex mutex;
    std::map<std::string, std::shared_ptr<const Trace>> traces;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

StreamCache &
streamCache()
{
    static StreamCache cache;
    return cache;
}

std::size_t
traceBytes(const Trace &trace)
{
    return trace.size() * sizeof(BranchRecord);
}

/** Decoded size estimate without reading the body, in record bytes. */
std::size_t
estimateDecodedBytes(const BenchmarkSpec &spec)
{
    if (spec.backend == TraceBackend::RecordedImt) {
        FileBranchSource probe(spec.tracePath, 1, spec.name);
        return static_cast<std::size_t>(probe.totalRecords()) *
               sizeof(BranchRecord);
    }
    // CBP: fixed 22-byte records after the 8-byte header, to EOF.
    std::error_code ec;
    const auto fileSize =
        std::filesystem::file_size(spec.tracePath, ec);
    if (ec)
        throw std::runtime_error("cannot stat recorded trace for " +
                                 spec.name + ": " + spec.tracePath);
    const std::uint64_t records = fileSize <= 8 ? 0 : (fileSize - 8) / 22;
    return static_cast<std::size_t>(records) * sizeof(BranchRecord);
}

struct Fnv1a
{
    std::uint64_t hash = 1469598103934665603ull;

    void mix(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash ^= bytes[i];
            hash *= 1099511628211ull;
        }
    }

    void mixU64(std::uint64_t v)
    {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<unsigned char>(v >> (8 * i));
        mix(bytes, sizeof(bytes));
    }
};

std::string
hexU64(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << v;
    return os.str();
}

} // anonymous namespace

TraceCorpus::TraceCorpus(std::vector<BenchmarkSpec> specs)
{
    add(std::move(specs));
}

void
TraceCorpus::add(BenchmarkSpec spec)
{
    if (contains(spec.name))
        throw std::invalid_argument("TraceCorpus: duplicate benchmark \"" +
                                    spec.name + "\"");
    specs.push_back(std::move(spec));
}

void
TraceCorpus::add(std::vector<BenchmarkSpec> more)
{
    for (BenchmarkSpec &spec : more)
        add(std::move(spec));
}

bool
TraceCorpus::contains(const std::string &name) const
{
    return lookup(name) != nullptr;
}

const BenchmarkSpec &
TraceCorpus::find(const std::string &name) const
{
    const BenchmarkSpec *spec = lookup(name);
    if (spec == nullptr)
        throw std::out_of_range("TraceCorpus: no benchmark \"" + name +
                                "\"");
    return *spec;
}

const BenchmarkSpec *
TraceCorpus::lookup(const std::string &name) const
{
    for (const BenchmarkSpec &spec : specs)
        if (spec.name == name)
            return &spec;
    return nullptr;
}

void
TraceCorpus::setCharacterizationCacheDir(const std::string &dir)
{
    cacheDir = dir;
}

const TraceCharacterization &
TraceCorpus::characterize(const std::string &name,
                          std::size_t target_branches,
                          std::size_t chunk_records)
{
    const BenchmarkSpec &spec = find(name);
    // Recorded traces always play whole, so their characterization is
    // budget-independent; generated streams are a function of (spec,
    // budget) and cache per budget.
    const std::size_t budget =
        spec.backend == TraceBackend::Generated ? target_branches : 0;
    const std::string key = name + "@" + std::to_string(budget);
    const auto cached = charCache.find(key);
    if (cached != charCache.end())
        return cached->second.record;

    const std::uint64_t fp = fingerprint(spec, target_branches);
    const std::string file =
        cacheDir.empty()
            ? std::string()
            : cacheDir + "/" + name + "-" + hexU64(fp) + ".char";

    if (!file.empty()) {
        std::ifstream in(file);
        std::string line;
        if (in && std::getline(in, line)) {
            CharEntry entry{fp, TraceCharacterization::deserialize(line)};
            return charCache.emplace(key, std::move(entry))
                .first->second.record;
        }
    }

    const std::unique_ptr<BranchSource> source =
        open(spec, target_branches, chunk_records);
    CharEntry entry{fp, characterizeSource(*source)};

    if (!file.empty()) {
        std::filesystem::create_directories(cacheDir);
        std::ofstream out(file, std::ios::trunc);
        out << entry.record.serialize() << '\n';
        if (!out)
            throw std::runtime_error(
                "cannot write characterization cache file: " + file);
    }
    return charCache.emplace(key, std::move(entry)).first->second.record;
}

std::vector<BenchmarkSpec>
TraceCorpus::selectClass(const std::string &class_name,
                         std::size_t target_branches,
                         std::size_t chunk_records)
{
    // Reject an unknown class before characterizing anything (the
    // predicate call below would throw too, but only after the first
    // member had been characterized).
    bool known = false;
    for (const CorpusClass &cls : knownClasses())
        known = known || cls.name == class_name;
    if (!known)
        matchesClass(TraceCharacterization{}, class_name);  // throws

    std::vector<BenchmarkSpec> selected;
    for (const BenchmarkSpec &spec : specs)
        if (matchesClass(
                characterize(spec.name, target_branches, chunk_records),
                class_name))
            selected.push_back(spec);
    return selected;
}

std::uint64_t
TraceCorpus::fingerprint(const BenchmarkSpec &spec,
                         std::size_t target_branches)
{
    Fnv1a fnv;
    if (spec.backend != TraceBackend::Generated) {
        // Recorded: the file bytes are the content.  Chunked read so a
        // hundreds-of-MB external trace hashes in O(1) memory.
        std::ifstream in(spec.tracePath, std::ios::binary);
        if (!in)
            throw std::runtime_error(
                "cannot read recorded trace for fingerprint of " +
                spec.name + ": " + spec.tracePath);
        char chunk[65536];
        while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0)
            fnv.mix(chunk, static_cast<std::size_t>(in.gcount()));
        if (in.bad())
            throw std::runtime_error(
                "read failed on recorded trace for fingerprint of " +
                spec.name + ": " + spec.tracePath);
        return fnv.hash;
    }
    // Generated: the stream is a pure function of (spec, budget), so
    // the parameters plus a record-stream prefix identify the content
    // without generating the whole trace.
    fnv.mixU64(spec.seed);
    fnv.mixU64(target_branches);
    // One prefix-sized chunk: generating (and allocating) a default
    // chunk would cost 16x the records the hash reads.
    const std::unique_ptr<BranchSource> source =
        makeBranchSource(spec, target_branches, kFingerprintRecords);
    std::size_t mixed = 0;
    for (BranchSpan span = source->nextChunk();
         !span.empty() && mixed < kFingerprintRecords;
         span = source->nextChunk()) {
        for (const BranchRecord &rec : span) {
            if (mixed >= kFingerprintRecords)
                break;
            fnv.mixU64(rec.pc);
            fnv.mixU64(rec.target);
            fnv.mixU64(rec.instsBefore);
            const unsigned char tail[2] = {
                static_cast<unsigned char>(rec.type),
                static_cast<unsigned char>(rec.taken ? 1 : 0)};
            fnv.mix(tail, sizeof(tail));
            ++mixed;
        }
    }
    return fnv.hash;
}

std::unique_ptr<BranchSource>
TraceCorpus::open(const BenchmarkSpec &spec, std::size_t target_branches,
                  std::size_t chunk_records)
{
    if (spec.backend == TraceBackend::Generated)
        return makeBranchSource(spec, target_branches, chunk_records);

    StreamCache &cache = streamCache();
    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        const auto it = cache.traces.find(spec.tracePath);
        if (it != cache.traces.end()) {
            ++cache.hits;
            return std::make_unique<SharedTraceBranchSource>(
                it->second, spec.name, chunk_records);
        }
        ++cache.misses;
    }

    // Too big to pin in memory (or the cache is full): stream from disk.
    const std::size_t estimated = estimateDecodedBytes(spec);
    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        if (cache.bytes + estimated > kStreamCacheCapBytes)
            return makeBranchSource(spec, target_branches, chunk_records);
    }

    // Decode outside the lock; a racing open of the same path decodes
    // twice and the first insertion wins (harmless, rare).
    Trace decoded = spec.backend == TraceBackend::RecordedCbp
                        ? readCbpFile(spec.tracePath, spec.name)
                        : readTraceFile(spec.tracePath);
    auto shared = std::make_shared<const Trace>(std::move(decoded));

    std::lock_guard<std::mutex> lock(cache.mutex);
    const auto it = cache.traces.find(spec.tracePath);
    if (it != cache.traces.end())
        return std::make_unique<SharedTraceBranchSource>(
            it->second, spec.name, chunk_records);
    const std::size_t actual = traceBytes(*shared);
    if (cache.bytes + actual <= kStreamCacheCapBytes) {
        cache.traces.emplace(spec.tracePath, shared);
        cache.bytes += actual;
    }
    return std::make_unique<SharedTraceBranchSource>(
        std::move(shared), spec.name, chunk_records);
}

TraceCorpus::StreamCacheStats
TraceCorpus::streamCacheStats()
{
    StreamCache &cache = streamCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    return {cache.traces.size(), cache.bytes, cache.hits, cache.misses};
}

void
TraceCorpus::clearStreamCache()
{
    StreamCache &cache = streamCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.traces.clear();
    cache.bytes = 0;
    cache.hits = 0;
    cache.misses = 0;
}

std::vector<BenchmarkSpec>
TraceCorpus::fromDirectory(const std::string &dir,
                           const std::string &suite)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        throw std::runtime_error("trace corpus directory \"" + dir +
                                 "\" is not a directory");
    std::vector<std::string> paths;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string path = entry.path().string();
        const std::string ext = pathExtension(path);
        if (ext == ".cbp" || ext == ".imt")
            paths.push_back(path);
    }
    std::sort(paths.begin(), paths.end());
    std::vector<BenchmarkSpec> discovered;
    discovered.reserve(paths.size());
    for (const std::string &path : paths)
        discovered.push_back(
            makeRecordedBenchmark(pathStem(path), suite, path));
    return discovered;
}

TraceCorpus
makeSuiteCorpus(const std::string &recorded_dir)
{
    TraceCorpus corpus(fullSuite());
    if (recorded_dir.empty())
        return corpus;

    // The one place the recorded directory is validated: every CLI that
    // takes --recorded DIR reports a missing or incomplete directory
    // with exactly this message.
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(recorded_dir, ec))
        throw std::runtime_error(
            "--recorded: \"" + recorded_dir +
            "\" is not a directory (expected the rec-01..rec-08 scenario "
            "files; generate them with `trace_tools synth-recorded`)");
    std::vector<BenchmarkSpec> recorded = recordedSuite(recorded_dir);
    for (const BenchmarkSpec &spec : recorded)
        if (!fs::is_regular_file(spec.tracePath, ec))
            throw std::runtime_error(
                "--recorded: \"" + recorded_dir + "\" is missing " +
                spec.tracePath +
                " (generate the scenario files with `trace_tools "
                "synth-recorded`)");
    corpus.add(std::move(recorded));
    return corpus;
}

std::vector<BenchmarkSpec>
selectSuiteBenchmarks(const CorpusQuery &query)
{
    TraceCorpus corpus = makeSuiteCorpus(query.recordedDir);
    if (!query.characterizationCacheDir.empty())
        corpus.setCharacterizationCacheDir(query.characterizationCacheDir);

    // Validate a class name before any selection or characterization
    // work so typos fail fast with suggestions.
    if (!query.className.empty()) {
        bool known = false;
        for (const CorpusClass &cls : knownClasses())
            known = known || cls.name == query.className;
        if (!known)
            matchesClass(TraceCharacterization{}, query.className);
    }

    std::vector<BenchmarkSpec> pool;
    for (const BenchmarkSpec &spec : corpus.benchmarks())
        if (query.suite.empty() || spec.suite == query.suite)
            pool.push_back(spec);

    const std::string hint = recordedHint(
        !query.recordedDir.empty(), query.suite, query.patterns);

    std::vector<BenchmarkSpec> selected;
    try {
        selected = selectBenchmarks(pool, query.patterns);
    } catch (const std::runtime_error &e) {
        throw std::runtime_error(e.what() + hint);
    }

    if (!query.className.empty()) {
        std::vector<BenchmarkSpec> stratified;
        for (const BenchmarkSpec &spec : selected)
            if (matchesClass(corpus.characterize(spec.name,
                                                 query.targetBranches,
                                                 query.chunkBranches),
                             query.className))
                stratified.push_back(spec);
        selected = std::move(stratified);
    }

    if (selected.empty()) {
        std::string message = "no benchmarks selected";
        if (!query.className.empty())
            message += " (class \"" + query.className +
                       "\" matched no benchmark in the selection)";
        throw std::runtime_error(message + hint);
    }
    return selected;
}

} // namespace imli

#include "src/workloads/generator_source.hh"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace imli
{

namespace
{

// Process-wide residency instrumentation: records buffered right now in
// every live generator source, and the high-water mark of that sum.
std::atomic<std::uint64_t> liveRecords{0};
std::atomic<std::uint64_t> peakRecords{0};

void
raisePeak(std::uint64_t candidate)
{
    std::uint64_t seen = peakRecords.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !peakRecords.compare_exchange_weak(seen, candidate,
                                              std::memory_order_relaxed))
        ;
}

/** BranchSink filling the source's chunk buffer. */
class BufferSink : public BranchSink
{
  public:
    BufferSink(std::vector<BranchRecord> &buffer, std::uint64_t &emitted)
        : buffer(buffer), emitted(emitted)
    {}

    void
    append(const BranchRecord &rec) override
    {
        buffer.push_back(rec);
        ++emitted;
    }

  private:
    std::vector<BranchRecord> &buffer;
    std::uint64_t &emitted;
};

} // anonymous namespace

GeneratorBranchSource::GeneratorBranchSource(BenchmarkSpec spec,
                                             std::size_t target_branches,
                                             std::size_t chunk_records)
    : spec(std::move(spec)), targetBranches(target_branches),
      chunkRecords(chunk_records == 0 ? 1 : chunk_records)
{
    assert(!this->spec.kernels.empty());
    instantiateKernels();
    exhausted = emitted >= targetBranches; // target 0: empty stream
    // One allocation per source: growing the buffer by doubling leaves a
    // trail of freed blocks that per-thread malloc arenas keep resident
    // across suite runs.  Pages past the records written stay untouched;
    // a chunk larger than the default still grows on demand.
    buffer.reserve(std::min(chunkRecords, defaultChunkRecords));
}

GeneratorBranchSource::~GeneratorBranchSource()
{
    trackBuffered(0);
}

const std::string &
GeneratorBranchSource::name() const
{
    return spec.name;
}

void
GeneratorBranchSource::instantiateKernels()
{
    // Identical seeding to the historical generateTrace(): each kernel
    // gets a private PC region and a fork of the master stream.
    Xoroshiro128 master(spec.seed);
    kernels.clear();
    kernels.reserve(spec.kernels.size());
    for (std::size_t i = 0; i < spec.kernels.size(); ++i) {
        const std::uint64_t pc_base =
            0x400000 + static_cast<std::uint64_t>(i) * 0x100000;
        kernels.push_back(
            instantiateKernel(spec.kernels[i], pc_base, master.fork(i + 1)));
    }
}

void
GeneratorBranchSource::trackBuffered(std::size_t now_buffered)
{
    if (now_buffered > trackedBuffered) {
        const std::uint64_t grown = now_buffered - trackedBuffered;
        raisePeak(liveRecords.fetch_add(grown, std::memory_order_relaxed) +
                  grown);
    } else {
        liveRecords.fetch_sub(trackedBuffered - now_buffered,
                              std::memory_order_relaxed);
    }
    trackedBuffered = now_buffered;
    peakBuffered = std::max(peakBuffered, now_buffered);
}

void
GeneratorBranchSource::refill()
{
    buffer.clear();
    bufferCursor = 0;
    BufferSink sink(buffer, emitted);
    // The weighted round-robin of generateTrace(), paused whenever one
    // chunk's worth of records is buffered: emit every round of the
    // current kernel's weight block, then either finish (the block
    // crossed the target) or move to the next kernel.
    while (!exhausted && buffer.size() < chunkRecords) {
        if (weightDone < spec.kernels[kernelIdx].weight) {
            kernels[kernelIdx]->emitRound(sink);
            ++weightDone;
        }
        if (weightDone >= spec.kernels[kernelIdx].weight) {
            weightDone = 0;
            if (emitted >= targetBranches)
                exhausted = true;
            else
                kernelIdx = (kernelIdx + 1) % kernels.size();
        }
    }
    trackBuffered(buffer.size());
}

BranchSpan
GeneratorBranchSource::nextChunk()
{
    if (bufferCursor >= buffer.size()) {
        if (exhausted)
            return BranchSpan{};
        refill();
        if (buffer.empty())
            return BranchSpan{};
    }
    const std::size_t n =
        std::min(chunkRecords, buffer.size() - bufferCursor);
    BranchSpan span{buffer.data() + bufferCursor, n};
    bufferCursor += n;
    served += n;
    return span;
}

void
GeneratorBranchSource::reset()
{
    trackBuffered(0);
    buffer.clear();
    buffer.shrink_to_fit();
    bufferCursor = 0;
    kernelIdx = 0;
    weightDone = 0;
    emitted = 0;
    served = 0;
    instantiateKernels();
    exhausted = emitted >= targetBranches;
}

std::uint64_t
GeneratorBranchSource::peakLiveRecords()
{
    return peakRecords.load(std::memory_order_relaxed);
}

void
GeneratorBranchSource::resetPeakLiveRecords()
{
    peakRecords.store(liveRecords.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
}

} // namespace imli

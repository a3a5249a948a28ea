#include "src/sim/pipeline_simulator.hh"

#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/phase_series.hh"
#include "src/obs/trace_event.hh"

namespace imli
{

PipelineSimulator::PipelineSimulator(ConditionalPredictor &predictor,
                                     const SimOptions &options)
    : pred(predictor), opts(options)
{
    if (!pred.supportsSpeculation())
        throw std::invalid_argument(
            "pipeline simulation needs the speculation contract, which "
            "predictor \"" + pred.name() + "\" does not implement");
    // The engine boundary enforces the depth bound, not just the CLIs:
    // beyond it the commit-sandwich restores could outrun the smallest
    // history buffer in the zoo and silently corrupt state in Release.
    if (opts.updateDelay > kMaxSpeculationDepth)
        throw std::invalid_argument(
            "updateDelay " + std::to_string(opts.updateDelay) +
            " exceeds the supported window depth " +
            std::to_string(kMaxSpeculationDepth));
    pred.prepareSpeculation(opts.updateDelay + 1);
    if (opts.metrics != nullptr) {
        // One bucket per possible squash depth [0, window size], plus
        // the clamp bucket the Linear kind always reserves.
        obsSquashDepth.sink = opts.metrics->histogram(
            "pipeline/squash_depth", obs::Histogram::Kind::Linear,
            kMaxSpeculationDepth + 2);
    }
}

void
PipelineSimulator::fetch(const BranchRecord &rec, std::uint64_t pos)
{
    Inflight entry;
    entry.rec = rec;
    entry.pos = pos;
    entry.conditional = isConditional(rec.type);
    if (opts.traceEvents != nullptr)
        opts.traceEvents->emit("fetch",
                               "\"pc\": " + std::to_string(rec.pc) +
                                   ", \"pos\": " + std::to_string(pos));
    if (entry.conditional) {
        entry.pred = pred.predict(rec.pc);
        entry.cp = pred.checkpoint();
        pred.speculate(rec.pc, entry.pred, rec.target);
        if (opts.traceEvents != nullptr)
            opts.traceEvents->emit(
                "predict", "\"pc\": " + std::to_string(rec.pc) +
                               ", \"pred\": " +
                               (entry.pred ? "true" : "false"));
    } else {
        // Non-conditional control flow shifts history at fetch, exactly
        // as in the immediate engine; it never mispredicts in this model,
        // so no checkpoint is needed — a squash of an older conditional
        // rewinds its push and the replay repeats it.
        pred.trackOtherInst(rec.pc, rec.type, rec.taken, rec.target);
    }
    window.push_back(entry);
}

void
PipelineSimulator::commitUntil(std::size_t target)
{
    while (window.size() > target) {
        const Inflight entry = window.front();
        window.pop_front();
        ++pipeStats.commits;

        const bool counted = entry.pos >= opts.warmupBranches;
        if (!entry.conditional) {
            // No predictor state moves (trackOtherInst ran at fetch).
            if (counted) {
                simResult.instructions += entry.rec.instsBefore + 1;
                if (opts.phase != nullptr)
                    opts.phase->onRecord(false, false,
                                         entry.rec.instsBefore + 1);
            }
            if (opts.traceEvents != nullptr)
                opts.traceEvents->emit(
                    "commit", "\"pc\": " + std::to_string(entry.rec.pc));
            continue;
        }

        // Commit sandwich: train at the branch's fetch-time history view.
        const SpecCheckpoint front = pred.checkpoint();
        pred.restore(entry.cp);
        (void)pred.predict(entry.rec.pc); // re-derive predict/update pairing
        pred.update(entry.rec.pc, entry.rec.taken, entry.rec.target);

        if (counted) {
            ++simResult.conditionals;
            if (entry.pred != entry.rec.taken) {
                ++simResult.mispredictions;
                if (opts.collectPerPc)
                    ++simResult.perPcMispredictions[entry.rec.pc];
            }
            simResult.instructions += entry.rec.instsBefore + 1;
            if (opts.phase != nullptr)
                opts.phase->onRecord(true, entry.pred != entry.rec.taken,
                                     entry.rec.instsBefore + 1);
        }
        if (opts.traceEvents != nullptr)
            opts.traceEvents->emit(
                "commit",
                "\"pc\": " + std::to_string(entry.rec.pc) +
                    ", \"taken\": " +
                    (entry.rec.taken ? "true" : "false") +
                    ", \"mispredicted\": " +
                    (entry.pred != entry.rec.taken ? "true" : "false"));

        if (entry.pred == entry.rec.taken) {
            // Correct: the resolved push rewrote the speculative bit with
            // the same value, so the fetch front is still valid.
            pred.restore(front);
            if (opts.traceEvents != nullptr)
                opts.traceEvents->emit("restore", "");
            continue;
        }

        // Mispredict: update() already repaired the history (restore to
        // the fetch point + push of the resolved outcome).  Everything
        // younger in the window was fetched in the wrong-path shadow:
        // squash it and re-fetch the same records — the trace is the
        // correct path.
        ++pipeStats.squashes;
        pred.squashSpeculation();
        obsSquashDepth.record(window.size());
        if (opts.traceEvents != nullptr)
            opts.traceEvents->emit(
                "squash", "\"pc\": " + std::to_string(entry.rec.pc) +
                              ", \"depth\": " +
                              std::to_string(window.size()));
        std::vector<Inflight> shadow(window.begin(), window.end());
        window.clear();
        for (const Inflight &again : shadow) {
            fetch(again.rec, again.pos);
            ++pipeStats.replays;
        }
    }
}

void
PipelineSimulator::onRecord(const BranchRecord &rec)
{
    fetch(rec, fetchPos++);
    commitUntil(opts.updateDelay);
}

void
PipelineSimulator::drain()
{
    commitUntil(0);
}

} // namespace imli

#include "src/sim/simulator.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "src/history/history_manager.hh"
#include "src/obs/phase_series.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/pipeline_simulator.hh"

namespace imli
{

double
SimResult::mpki() const
{
    if (instructions == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(mispredictions) /
           static_cast<double>(instructions);
}

double
SimResult::accuracy() const
{
    if (conditionals == 0)
        return 1.0;
    return 1.0 - static_cast<double>(mispredictions) /
                     static_cast<double>(conditionals);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
SimResult::topOffenders(std::size_t n) const
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> all(
        perPcMispredictions.begin(), perPcMispredictions.end());
    // Count descending with a PC tie-break: a count-only comparator under
    // std::sort leaves tied PCs in implementation-defined order, so the
    // --offenders report would differ across standard libraries.
    std::sort(all.begin(), all.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    if (all.size() > n)
        all.resize(n);
    return all;
}

namespace
{

/**
 * Replay one chunk through one predictor on the immediate engine.  @p seen
 * is the stream position of the chunk's first record.
 */
void
replayChunk(ConditionalPredictor &predictor, const BranchSpan &chunk,
            std::uint64_t seen, const SimOptions &options, SimResult &result)
{
    for (const BranchRecord &rec : chunk) {
        const bool counted = seen >= options.warmupBranches;
        if (isConditional(rec.type)) {
            const bool pred = predictor.predict(rec.pc);
            predictor.update(rec.pc, rec.taken, rec.target);
            if (counted) {
                ++result.conditionals;
                if (pred != rec.taken) {
                    ++result.mispredictions;
                    if (options.collectPerPc)
                        ++result.perPcMispredictions[rec.pc];
                }
                if (options.phase != nullptr)
                    options.phase->onRecord(true, pred != rec.taken,
                                            rec.instsBefore + 1);
            }
        } else {
            predictor.trackOtherInst(rec.pc, rec.type, rec.taken,
                                     rec.target);
            if (counted && options.phase != nullptr)
                options.phase->onRecord(false, false, rec.instsBefore + 1);
        }
        if (counted)
            result.instructions += rec.instsBefore + 1;
        ++seen;
    }
}

/**
 * Records per sub-span of a pass whose predictors share a fold bank: the
 * rows of one sub-span (about 42 KB for 41 folds) stay in cache while
 * every predictor replays it.
 */
constexpr std::size_t kSharedSpanRecords = 256;

/**
 * One fold bank for the immediate-engine hosts of a simulateMany pass.
 * Their history is a pure function of the stream, so the pass pushes
 * one bank holding every distinct fold and writes its values into one
 * row per record; each follower reads its folds from the rows (see
 * HistoryManager::follow) and pushes only its own GlobalHistory.
 * Pipeline-engine predictors (their history follows predictions),
 * predictors without a bank, banks already pushed and passes with fewer
 * than two candidates keep their own banks.
 */
class SharedFoldBank
{
  public:
    SharedFoldBank(const std::vector<ConditionalPredictor *> &predictors,
                   const std::vector<SimOptions> &options)
    {
        std::vector<HistoryManager *> candidates;
        for (std::size_t p = 0; p < predictors.size(); ++p) {
            HistoryManager *mgr = predictors[p]->foldBank();
            if (mgr != nullptr && !options[p].usePipeline() &&
                mgr->history().headPointer() == 0 && !mgr->following())
                candidates.push_back(mgr);
        }
        // A predictor listed twice pushes twice per record: not a
        // follower.
        for (HistoryManager *mgr : candidates)
            if (std::count(candidates.begin(), candidates.end(), mgr) == 1)
                followers.push_back(mgr);
        if (followers.size() < 2) {
            followers.clear();
            return;
        }

        unsigned capacity = 0;
        for (const HistoryManager *f : followers)
            capacity = std::max(capacity, f->history().capacityBits());
        bank = std::make_unique<HistoryManager>(capacity);
        for (const HistoryManager *f : followers)
            bank->createFolds(*f);

        // Allocated once, before the first chunk.
        stride = bank->slotCount();
        rows.resize((kSharedSpanRecords + 1) * stride);
        std::copy_n(bank->slotValues(), stride, rows.begin());
        for (HistoryManager *f : followers) {
            f->follow(*bank);
            f->followRow(rows.data());
        }
    }

    /** Followers end with the fold values they would have pushed to. */
    ~SharedFoldBank()
    {
        for (HistoryManager *f : followers)
            f->unfollow();
    }

    bool active() const { return !followers.empty(); }

    /**
     * Row i = the bank before record i of @p span, row span.count = after
     * its last record; every follower starts over at row 0.
     */
    void fill(const BranchSpan &span)
    {
        std::uint32_t *row = rows.data();
        for (const BranchRecord &rec : span) {
            std::copy_n(bank->slotValues(), stride, row);
            bank->push(pushedHistoryBit(rec.type, rec.taken), rec.pc);
            row += stride;
        }
        std::copy_n(bank->slotValues(), stride, row);
        for (HistoryManager *f : followers)
            f->followRow(rows.data());
    }

  private:
    std::vector<HistoryManager *> followers;
    std::unique_ptr<HistoryManager> bank;
    std::size_t stride = 0;
    std::vector<std::uint32_t> rows;
};

} // anonymous namespace

SimOptions
applySpecDelay(const ParsedSpec &parsed, SimOptions base)
{
    if (hasSpecUpdateDelay(parsed)) {
        base.updateDelay = specUpdateDelay(parsed);
        base.pipeline = true;
    }
    return base;
}

SimResult
simulate(ConditionalPredictor &predictor, BranchSource &source,
         const SimOptions &options)
{
    std::vector<SimResult> results =
        simulateMany(std::vector<ConditionalPredictor *>{&predictor}, source,
                     std::vector<SimOptions>{options});
    return std::move(results.front());
}

SimResult
simulate(ConditionalPredictor &predictor, const Trace &trace,
         const SimOptions &options)
{
    TraceBranchSource source(trace);
    return simulate(predictor, source, options);
}

std::vector<SimResult>
simulateMany(const std::vector<ConditionalPredictor *> &predictors,
             BranchSource &source, const std::vector<SimOptions> &options)
{
    if (options.size() != predictors.size())
        throw std::invalid_argument(
            "simulateMany: need exactly one SimOptions per predictor");

    std::vector<SimResult> results(predictors.size());
    // One pipeline driver per pipelined predictor; immediate predictors
    // keep the replayChunk fast path.  Either way the stream is produced
    // once and every predictor walks the same records.
    std::vector<std::unique_ptr<PipelineSimulator>> pipes(predictors.size());
    for (std::size_t p = 0; p < predictors.size(); ++p) {
        results[p].traceName = source.name();
        results[p].predictorName = predictors[p]->name();
        if (options[p].usePipeline())
            pipes[p] = std::make_unique<PipelineSimulator>(*predictors[p],
                                                           options[p]);
    }

    // With a shared fold bank, each chunk is walked in fixed sub-spans:
    // the bank fills the sub-span's rows, then every predictor replays
    // it.  Without one, a sub-span is the whole chunk.
    SharedFoldBank shared(predictors, options);
    std::uint64_t seen = 0;
    for (BranchSpan chunk = source.nextChunk(); !chunk.empty();
         chunk = source.nextChunk()) {
        const std::size_t step =
            shared.active() ? kSharedSpanRecords : chunk.count;
        for (std::size_t at = 0; at < chunk.count; at += step) {
            const BranchSpan span{chunk.records + at,
                                  std::min(step, chunk.count - at)};
            if (shared.active())
                shared.fill(span);
            for (std::size_t p = 0; p < predictors.size(); ++p) {
                if (pipes[p]) {
                    for (const BranchRecord &rec : span)
                        pipes[p]->onRecord(rec);
                } else {
                    replayChunk(*predictors[p], span, seen, options[p],
                                results[p]);
                }
            }
            seen += span.count;
        }
    }
    for (std::size_t p = 0; p < predictors.size(); ++p) {
        if (pipes[p]) {
            pipes[p]->drain();
            // Move the whole graded result (the simulator is done with
            // it) and keep the names set above — robust against new
            // SimResult fields and free of per-PC map copies.
            SimResult graded = std::move(pipes[p]->result());
            graded.traceName = std::move(results[p].traceName);
            graded.predictorName = std::move(results[p].predictorName);
            results[p] = std::move(graded);
        }
    }
    return results;
}

std::vector<SimResult>
simulateMany(const std::vector<ConditionalPredictor *> &predictors,
             BranchSource &source, const SimOptions &options)
{
    return simulateMany(predictors, source,
                        std::vector<SimOptions>(predictors.size(), options));
}

std::vector<SimResult>
simulateMany(const std::vector<PredictorPtr> &predictors,
             BranchSource &source, const SimOptions &options)
{
    std::vector<ConditionalPredictor *> raw;
    raw.reserve(predictors.size());
    for (const PredictorPtr &p : predictors)
        raw.push_back(p.get());
    return simulateMany(raw, source, options);
}

std::vector<SimResult>
simulateMany(const std::vector<PredictorPtr> &predictors,
             BranchSource &source, const std::vector<SimOptions> &options)
{
    std::vector<ConditionalPredictor *> raw;
    raw.reserve(predictors.size());
    for (const PredictorPtr &p : predictors)
        raw.push_back(p.get());
    return simulateMany(raw, source, options);
}

} // namespace imli

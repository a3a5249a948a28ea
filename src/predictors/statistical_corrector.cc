#include "src/predictors/statistical_corrector.hh"

#include <cassert>
#include <cstdlib>

#include "src/predictors/tage.hh"
#include "src/util/hashing.hh"

namespace imli
{

// --------------------------------------------------------------------------
// BiasComponent
// --------------------------------------------------------------------------

BiasComponent::BiasComponent(const Config &config) : cfg(config)
{
    tables = TableArena<SignedCounter>(cfg.numTables, cfg.logEntries,
                                       SignedCounter(cfg.counterBits));
}

unsigned
BiasComponent::index(unsigned table, const ScContext &ctx) const
{
    // Each table uses a different PC hash; all fold in the main prediction
    // so the counters learn the correction conditioned on what TAGE said.
    const std::uint64_t h = hashCombine(pcHash(ctx.pc) + table * 0x9e37ULL,
                                        (ctx.pc << 1) | (ctx.mainPred ? 1 : 0));
    return static_cast<unsigned>(h & maskBits(cfg.logEntries));
}

int
BiasComponent::vote(const ScContext &ctx) const
{
    int sum = 0;
    for (unsigned t = 0; t < cfg.numTables; ++t)
        sum += tables.at(t, index(t, ctx)).centered();
    return sum;
}

void
BiasComponent::update(const ScContext &ctx, bool taken)
{
    for (unsigned t = 0; t < cfg.numTables; ++t)
        tables.at(t, index(t, ctx)).update(taken);
}

void
BiasComponent::account(StorageAccount &acct) const
{
    acct.add("bias",
             static_cast<std::uint64_t>(cfg.numTables) *
                 (1ull << cfg.logEntries) * cfg.counterBits);
}

// --------------------------------------------------------------------------
// GlobalGehlComponent
// --------------------------------------------------------------------------

GlobalGehlComponent::GlobalGehlComponent(const Config &config,
                                         HistoryManager &hist)
    : cfg(config), histMgr(hist)
{
    assert(cfg.numTables >= 1);
    if (cfg.minHistory == 0) {
        // First table sees no history; the rest follow a geometric series
        // from max(1, second step) up to maxHistory.
        lengths.push_back(0);
        if (cfg.numTables > 1) {
            auto rest = geometricLengths(cfg.numTables - 1,
                                         2, cfg.maxHistory);
            lengths.insert(lengths.end(), rest.begin(), rest.end());
        }
    } else {
        lengths = geometricLengths(cfg.numTables, cfg.minHistory,
                                   cfg.maxHistory);
    }

    folds.resize(cfg.numTables, -1);
    for (unsigned i = 0; i < cfg.numTables; ++i) {
        if (lengths[i] > 0)
            folds[i] = hist.createFold(lengths[i], cfg.logEntries);
    }
    tables = TableArena<SignedCounter>(cfg.numTables, cfg.logEntries,
                                       SignedCounter(cfg.counterBits));
}

unsigned
GlobalGehlComponent::index(unsigned table, const ScContext &ctx) const
{
    std::uint64_t raw = (ctx.pc >> 1) ^ ((ctx.pc >> 1) >> (table + 2));
    if (folds[table] >= 0) {
        const std::uint64_t fold = histMgr.foldValue(folds[table]);
        raw ^= fold ^ (fold << 2);
    }
    const bool imli_indexed =
        cfg.imliIndexTables > 0 &&
        table >= cfg.numTables - cfg.imliIndexTables;
    if (imli_indexed)
        raw ^= mix64(ctx.imliCount) >> 40;
    return static_cast<unsigned>(mix64(raw) & maskBits(cfg.logEntries));
}

int
GlobalGehlComponent::vote(const ScContext &ctx) const
{
    int sum = 0;
    for (unsigned t = 0; t < cfg.numTables; ++t)
        sum += tables.at(t, index(t, ctx)).centered();
    return sum;
}

void
GlobalGehlComponent::update(const ScContext &ctx, bool taken)
{
    for (unsigned t = 0; t < cfg.numTables; ++t)
        tables.at(t, index(t, ctx)).update(taken);
}

void
GlobalGehlComponent::account(StorageAccount &acct) const
{
    acct.add(cfg.label,
             static_cast<std::uint64_t>(cfg.numTables) *
                 (1ull << cfg.logEntries) * cfg.counterBits);
}

// --------------------------------------------------------------------------
// StatisticalCorrector
// --------------------------------------------------------------------------

StatisticalCorrector::StatisticalCorrector(const Config &config)
    : cfg(config), voting(config.voting)
{
    firstH.assign(1u << cfg.chooserLogEntries, 0);
    secondH.assign(1u << cfg.chooserLogEntries, 0);
}

unsigned
StatisticalCorrector::chooserIndex(std::uint64_t pc) const
{
    return static_cast<unsigned>(pcHash(pc)) &
           ((1u << cfg.chooserLogEntries) - 1);
}

int
StatisticalCorrector::weakChooser(std::uint64_t pc) const
{
    return firstH[chooserIndex(pc)];
}

int
StatisticalCorrector::mediumChooser(std::uint64_t pc) const
{
    return secondH[chooserIndex(pc)];
}

void
StatisticalCorrector::addComponent(ScComponent *component)
{
    voting.addComponent(component);
}

StatisticalCorrector::Decision
StatisticalCorrector::decide(const ScContext &ctx, bool tage_pred,
                             int tage_confidence) const
{
    (void)tage_confidence;
    Decision d;
    d.sum = voting.sum(ctx);
    d.scPred = d.sum >= 0;
    if (d.scPred == tage_pred) {
        d.finalPred = tage_pred;
        return d;
    }
    // Disagreement: band by |sum| against the adaptive threshold, then
    // either revert outright (strong) or consult the band chooser.
    const int abs_sum = d.sum < 0 ? -d.sum : d.sum;
    const int threshold = voting.theta();
    const unsigned ci = chooserIndex(ctx.pc);
    // Branch-light banding: |sum| lands near the threshold exactly when
    // the corrector is uncertain, so these compares are data-dependent
    // coin flips — compute both band compares and both chooser reads
    // unconditionally and select with cmov-able ternaries.
    d.band = abs_sum >= threshold ? 2 : (abs_sum >= threshold / 2 ? 1 : 0);
    const bool chooser_says =
        d.band == 1 ? secondH[ci] >= 0 : firstH[ci] >= 0;
    d.reverted = d.band == 2 ? true : chooser_says;
    d.finalPred = d.reverted ? d.scPred : tage_pred;
    return d;
}

void
StatisticalCorrector::train(const ScContext &ctx, bool taken,
                            const Decision &decision)
{
    // decide() leaves band at -1 on agreement, so the decision carries
    // the full agree/disagree/revert classification.
    if (decision.band < 0) {
        obsAgree.hit();
    } else {
        obsDisagree.hit();
        if (decision.reverted)
            obsReverse.hit();
    }

    // Band choosers learn whether the corrector wins disagreements.
    if (decision.band == 0 || decision.band == 1) {
        const unsigned ci = chooserIndex(ctx.pc);
        std::int8_t &chooser =
            decision.band == 0 ? firstH[ci] : secondH[ci];
        const int max_v = (1 << (cfg.chooserBits - 1)) - 1;
        const int min_v = -(1 << (cfg.chooserBits - 1));
        // Branch-free clamp, as in counters.hh.
        int next = chooser + (decision.scPred == taken ? 1 : -1);
        next = next < min_v ? min_v : next;
        chooser = static_cast<std::int8_t>(next > max_v ? max_v : next);
    }

    const bool sc_mispred = decision.scPred != taken;
    const int abs_sum = decision.sum < 0 ? -decision.sum : decision.sum;
    if (voting.onOutcome(sc_mispred, abs_sum))
        voting.trainAll(ctx, taken);
    voting.resolveAll(ctx, taken);
}

void
StatisticalCorrector::attachProbes(obs::MetricsScope &scope)
{
    obsAgree.slot = scope.counter("sc/agree");
    obsDisagree.slot = scope.counter("sc/disagree");
    obsReverse.slot = scope.counter("sc/reverse");
}

void
StatisticalCorrector::account(StorageAccount &acct) const
{
    voting.account(acct);
    acct.add("sc/choosers",
             2ull * cfg.chooserBits * (1ull << cfg.chooserLogEntries));
}

} // namespace imli

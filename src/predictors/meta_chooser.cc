#include "src/predictors/meta_chooser.hh"

#include <cmath>
#include <stdexcept>

#include "src/util/hashing.hh"

namespace imli
{

namespace
{

std::size_t
nextPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // anonymous namespace

MetaChooserPredictor::MetaChooserPredictor(
    const Config &config, std::vector<PredictorPtr> sub_predictors)
    : cfg(config), subs(std::move(sub_predictors))
{
    if (subs.empty())
        throw std::invalid_argument("meta chooser needs at least one sub");
    if (subs.size() > kMaxSubs)
        throw std::invalid_argument(
            "meta chooser supports at most " + std::to_string(kMaxSubs) +
            " subs, got " + std::to_string(subs.size()));
    for (const PredictorPtr &s : subs)
        if (s == nullptr)
            throw std::invalid_argument("meta chooser sub is null");

    const std::size_t entries = std::size_t(1) << cfg.logEntries;
    const std::size_t n = subs.size();
    resolvedTheta = cfg.theta != 0
                        ? cfg.theta
                        : static_cast<unsigned>(1.93 * double(n) + 14.0);
    switch (cfg.policy) {
    case Policy::Tournament:
        // Weakly-neutral start: every arm at the counter midpoint, so
        // the first outcome already separates them.
        counters.assign(entries * n,
                        std::uint16_t(1u << (cfg.counterBits - 1)));
        break;
    case Policy::Ucb:
        pulls.assign(entries * n, 0);
        rewards.assign(entries * n, 0);
        break;
    case Policy::Fusion:
        weights.assign(entries * (n + 1), 0);
        break;
    }
}

std::size_t
MetaChooserPredictor::entryIndex(std::uint64_t pc) const
{
    return static_cast<std::size_t>(pcHash(pc) &
                                    maskBits(cfg.logEntries));
}

std::size_t
MetaChooserPredictor::chooseTournament(std::size_t entry) const
{
    const std::size_t base = entry * subs.size();
    std::size_t best = 0;
    for (std::size_t i = 1; i < subs.size(); ++i)
        if (counters[base + i] > counters[base + best])
            best = i;
    return best;
}

std::size_t
MetaChooserPredictor::chooseUcb(std::size_t entry) const
{
    const std::size_t base = entry * subs.size();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < subs.size(); ++i) {
        if (pulls[base + i] == 0)
            return i; // unpulled arms first, lowest index
        total += pulls[base + i];
    }
    const double lnTotal = std::log(static_cast<double>(total));
    std::size_t best = 0;
    double bestScore = -1.0;
    for (std::size_t i = 0; i < subs.size(); ++i) {
        const double p = static_cast<double>(pulls[base + i]);
        const double score =
            static_cast<double>(rewards[base + i]) / p +
            std::sqrt(static_cast<double>(cfg.explore) * lnTotal / p);
        if (score > bestScore) {
            bestScore = score;
            best = i;
        }
    }
    return best;
}

int
MetaChooserPredictor::fusionSum(std::size_t entry) const
{
    const std::size_t base = entry * (subs.size() + 1);
    int sum = weights[base];
    for (std::size_t i = 0; i < subs.size(); ++i)
        sum += look.subPred[i] ? weights[base + 1 + i]
                               : -weights[base + 1 + i];
    return sum;
}

bool
MetaChooserPredictor::predict(std::uint64_t pc)
{
    look = LookupState();
    for (std::size_t i = 0; i < subs.size(); ++i)
        look.subPred[i] = subs[i]->predict(pc);

    const std::size_t entry = entryIndex(pc);
    switch (cfg.policy) {
    case Policy::Tournament:
        look.chosen = chooseTournament(entry);
        look.finalPred = look.subPred[look.chosen];
        break;
    case Policy::Ucb:
        look.chosen = chooseUcb(entry);
        look.finalPred = look.subPred[look.chosen];
        break;
    case Policy::Fusion:
        look.sum = fusionSum(entry);
        look.finalPred = look.sum >= 0;
        break;
    }
    return look.finalPred;
}

void
MetaChooserPredictor::trainTournament(std::size_t entry, bool taken)
{
    const std::size_t base = entry * subs.size();
    const std::uint16_t max =
        static_cast<std::uint16_t>((1u << cfg.counterBits) - 1);
    for (std::size_t i = 0; i < subs.size(); ++i) {
        std::uint16_t &c = counters[base + i];
        if (look.subPred[i] == taken) {
            if (c < max)
                ++c;
        } else if (c > 0) {
            --c;
        }
    }
}

void
MetaChooserPredictor::trainUcb(std::size_t entry, bool taken)
{
    const std::size_t base = entry * subs.size();
    const std::uint32_t max = (1u << cfg.countBits) - 1;
    std::uint32_t &p = pulls[base + look.chosen];
    std::uint32_t &r = rewards[base + look.chosen];
    ++p;
    if (look.subPred[look.chosen] == taken)
        ++r;
    if (p >= max) {
        // Halve the whole entry: reward rates survive, absolute pull
        // counts shrink, so the bandit re-explores after a phase change
        // instead of freezing on a stale champion.
        for (std::size_t i = 0; i < subs.size(); ++i) {
            pulls[base + i] >>= 1;
            rewards[base + i] >>= 1;
        }
    }
}

void
MetaChooserPredictor::trainFusion(std::size_t entry, bool taken)
{
    const bool mispred = look.finalPred != taken;
    const int absSum = look.sum < 0 ? -look.sum : look.sum;
    if (!mispred && absSum > static_cast<int>(resolvedTheta))
        return;
    const std::size_t base = entry * (subs.size() + 1);
    const int max = (1 << (cfg.weightBits - 1)) - 1;
    const int min = -(1 << (cfg.weightBits - 1));
    const auto bump = [&](std::int32_t &w, bool up) {
        if (up) {
            if (w < max)
                ++w;
        } else if (w > min) {
            --w;
        }
    };
    bump(weights[base], taken);
    for (std::size_t i = 0; i < subs.size(); ++i)
        bump(weights[base + 1 + i], look.subPred[i] == taken);
}

void
MetaChooserPredictor::update(std::uint64_t pc, bool taken,
                             std::uint64_t target)
{
    const std::size_t entry = entryIndex(pc);
    // Arm distribution: the followed sub for the selector policies; for
    // Fusion there is no single arm, so bucket the fused direction.
    obsArm.record(cfg.policy == Policy::Fusion
                      ? (look.finalPred ? 1u : 0u)
                      : static_cast<std::uint64_t>(look.chosen));
    switch (cfg.policy) {
    case Policy::Tournament:
        trainTournament(entry, taken);
        break;
    case Policy::Ucb:
        trainUcb(entry, taken);
        break;
    case Policy::Fusion:
        trainFusion(entry, taken);
        break;
    }
    // Every sub trains on every branch — arbitration never starves an
    // arm of training, so switching arms is instant, not a cold start.
    for (const PredictorPtr &s : subs)
        s->update(pc, taken, target);
}

void
MetaChooserPredictor::trackOtherInst(std::uint64_t pc, BranchType type,
                                     bool taken, std::uint64_t target)
{
    for (const PredictorPtr &s : subs)
        s->trackOtherInst(pc, type, taken, target);
}

bool
MetaChooserPredictor::supportsSpeculation() const
{
    for (const PredictorPtr &s : subs)
        if (!s->supportsSpeculation())
            return false;
    return true;
}

void
MetaChooserPredictor::prepareSpeculation(unsigned max_inflight)
{
    const std::size_t want =
        nextPow2(std::size_t(4) * max_inflight + 64);
    if (want > ringSlots) {
        ringSlots = want;
        ring.assign(ringSlots * subs.size(), SpecCheckpoint());
        ringSeq.assign(ringSlots, UINT64_MAX);
    }
    for (const PredictorPtr &s : subs)
        s->prepareSpeculation(max_inflight);
}

SpecCheckpoint
MetaChooserPredictor::checkpoint() const
{
    if (ring.empty()) {
        // Lazy default sizing for direct (non-engine) speculation use;
        // the pipeline engine always sizes the ring via
        // prepareSpeculation first.
        const std::size_t slots = 1024;
        ring.assign(slots * subs.size(), SpecCheckpoint());
        ringSeq.assign(slots, UINT64_MAX);
        const_cast<MetaChooserPredictor *>(this)->ringSlots = slots;
    }
    const std::uint64_t seq = nextSeq++;
    const std::size_t slot = static_cast<std::size_t>(seq % ringSlots);
    for (std::size_t i = 0; i < subs.size(); ++i)
        ring[slot * subs.size() + i] = subs[i]->checkpoint();
    ringSeq[slot] = seq;

    SpecCheckpoint cp;
    cp.localTicket = seq;
    return cp;
}

void
MetaChooserPredictor::restore(const SpecCheckpoint &cp)
{
    const std::uint64_t seq = cp.localTicket;
    if (ringSlots == 0 || seq >= nextSeq)
        throw std::logic_error(
            "meta chooser restore of a checkpoint it never issued");
    const std::size_t slot = static_cast<std::size_t>(seq % ringSlots);
    if (ringSeq[slot] != seq)
        throw std::logic_error(
            "meta chooser checkpoint outlived its ring slot (deepen "
            "prepareSpeculation)");
    for (std::size_t i = 0; i < subs.size(); ++i)
        subs[i]->restore(ring[slot * subs.size() + i]);
}

void
MetaChooserPredictor::speculate(std::uint64_t pc, bool pred_taken,
                                std::uint64_t target)
{
    // pred_taken is the chooser's own final answer — the direction the
    // pipeline follows — so every sub's speculative history sees the
    // architecturally-followed path, exactly as a lone sub would.
    for (const PredictorPtr &s : subs)
        s->speculate(pc, pred_taken, target);
}

void
MetaChooserPredictor::squashSpeculation()
{
    for (const PredictorPtr &s : subs)
        s->squashSpeculation();
}

std::uint64_t
MetaChooserPredictor::stateDigest() const
{
    std::uint64_t digest = hashCombine(0x4d45, std::uint64_t(cfg.policy));
    for (std::uint16_t c : counters)
        digest = hashCombine(digest, c);
    for (std::uint32_t p : pulls)
        digest = hashCombine(digest, p);
    for (std::uint32_t r : rewards)
        digest = hashCombine(digest, r);
    for (std::int32_t w : weights)
        digest = hashCombine(digest, static_cast<std::uint64_t>(
                                         static_cast<std::int64_t>(w)));
    for (const PredictorPtr &s : subs)
        digest = hashCombine(digest, s->stateDigest());
    return digest;
}

void
MetaChooserPredictor::attachProbes(obs::MetricsScope &scope)
{
    obsArm.sink = scope.histogram("meta/arm", obs::Histogram::Kind::Linear,
                                  kMaxSubs);
    for (std::size_t i = 0; i < subs.size(); ++i) {
        scope.pushPrefix("sub" + std::to_string(i) + "/");
        subs[i]->attachProbes(scope);
        scope.popPrefix();
    }
}

StorageAccount
MetaChooserPredictor::storage() const
{
    StorageAccount acct;
    const std::uint64_t entries = std::uint64_t(1) << cfg.logEntries;
    const std::uint64_t n = subs.size();
    switch (cfg.policy) {
    case Policy::Tournament:
        acct.add("meta-tournament", entries * n * cfg.counterBits);
        break;
    case Policy::Ucb:
        acct.add("meta-ucb", entries * n * 2 * cfg.countBits);
        break;
    case Policy::Fusion:
        acct.add("meta-fusion", entries * (n + 1) * cfg.weightBits);
        break;
    }
    for (std::size_t i = 0; i < subs.size(); ++i)
        acct.merge("sub" + std::to_string(i), subs[i]->storage());
    return acct;
}

} // namespace imli

#include "src/predictors/composite_host.hh"

#include "src/util/hashing.hh"

namespace imli
{

CompositeHost::CompositeHost(const CompositeHostConfig &config,
                             unsigned longest_history,
                             std::uint64_t digest_seed)
    : comp(config),
      histMgr(host_spec::historyCapacity(longest_history)),
      imliComps(comp.imli), digestSeed(digest_seed)
{
    if (comp.enableLocal)
        local = std::make_unique<LocalComponent>(comp.local);
    if (comp.enableLoop || comp.enableWh)
        loopPred = std::make_unique<LoopPredictor>(comp.loop);
    if (comp.enableItl)
        ittageLoop = std::make_unique<IttageLoopPredictor>(comp.itl);
    if (comp.enableWh)
        wormhole = std::make_unique<WormholePredictor>(comp.wh);
}

host_spec::LoopFamily
CompositeHost::loopFamily() const
{
    // The family carries mutable pointers for restore()/speculate();
    // const callers (checkpoint, digest) only read through it.
    auto *self = const_cast<CompositeHost *>(this);
    host_spec::LoopFamily fam;
    fam.loop = self->loopPred.get();
    fam.itl = self->ittageLoop.get();
    fam.wh = self->wormhole.get();
    if (fam.loop != nullptr || fam.itl != nullptr || fam.wh != nullptr)
        fam.currentLoopPc = &self->currentLoopPc;
    return fam;
}

std::optional<unsigned>
CompositeHost::currentTripCount() const
{
    if (loopPred == nullptr || currentLoopPc == 0)
        return std::nullopt;
    return loopPred->tripCount(currentLoopPc);
}

bool
CompositeHost::predict(std::uint64_t pc)
{
    famLook = FamilyLookup();
    bool pred = predictHost(pc);

    if (loopPred != nullptr) {
        famLook.loopPrediction = loopPred->lookup(pc);
        if (comp.loopOverride && famLook.loopPrediction.valid)
            pred = famLook.loopPrediction.taken;
    }
    if (ittageLoop != nullptr) {
        famLook.itlPrediction = ittageLoop->lookup(pc);
        if (famLook.itlPrediction.valid)
            pred = famLook.itlPrediction.taken;
    }
    if (wormhole != nullptr) {
        famLook.tripCount = currentTripCount();
        famLook.whPrediction = wormhole->predict(pc, famLook.tripCount);
        if (famLook.whPrediction.valid)
            pred = famLook.whPrediction.taken;
    }
    famLook.finalPred = pred;
    return pred;
}

void
CompositeHost::update(std::uint64_t pc, bool taken, std::uint64_t target)
{
    const bool final_mispred = famLook.finalPred != taken;

    if (loopPred != nullptr) {
        // Only backward conditional branches close loops (Section 4.1);
        // letting forward noise branches allocate would thrash the small
        // loop table.
        loopPred->update(pc, taken, final_mispred && target < pc,
                         famLook.loopPrediction);
    }
    if (ittageLoop != nullptr)
        ittageLoop->update(pc, taken, final_mispred && target < pc,
                           famLook.itlPrediction);
    if (wormhole != nullptr)
        wormhole->update(pc, taken, final_mispred, famLook.tripCount,
                         famLook.whPrediction);

    updateHost(pc, taken, famLook.finalPred);

    if (comp.enableImli)
        imliComps.onResolved(pc, target, taken);

    // Track which loop is currently iterating (backward taken branch),
    // for the wormhole trip-count feed.
    if (target < pc) {
        if (taken)
            currentLoopPc = pc;
        else if (pc == currentLoopPc)
            currentLoopPc = 0;
    }

    histMgr.push(taken, pc);
}

void
CompositeHost::prepareSpeculation(unsigned max_inflight)
{
    histMgr.prepare(max_inflight);
    host_spec::prepare(local.get(), max_inflight);
}

SpecCheckpoint
CompositeHost::checkpoint() const
{
    return host_spec::checkpoint(histMgr, comp.enableImli, imliComps,
                                 local.get(), loopFamily());
}

void
CompositeHost::restore(const SpecCheckpoint &cp)
{
    host_spec::restore(histMgr, comp.enableImli, imliComps, local.get(), cp,
                       loopFamily());
}

void
CompositeHost::speculate(std::uint64_t pc, bool pred_taken,
                         std::uint64_t target)
{
    host_spec::speculate(histMgr, comp.enableImli, imliComps, local.get(),
                         pc, pred_taken, target, loopFamily());
}

void
CompositeHost::squashSpeculation()
{
    host_spec::squash(local.get(), loopFamily());
}

std::uint64_t
CompositeHost::stateDigest() const
{
    // The loop-family surface is the state the hosts' speculation fix
    // covers; the global/IMLI/local state is exercised by the prediction
    // equality checks already.
    std::uint64_t digest = hashCombine(digestSeed, currentLoopPc);
    if (loopPred != nullptr)
        digest = hashCombine(digest, loopPred->stateDigest());
    if (ittageLoop != nullptr)
        digest = hashCombine(digest, ittageLoop->stateDigest());
    if (wormhole != nullptr)
        digest = hashCombine(digest, wormhole->stateDigest());
    return digest;
}

void
CompositeHost::trackOtherInst(std::uint64_t pc, BranchType type, bool taken,
                              std::uint64_t target)
{
    (void)type;
    (void)taken;
    (void)target;
    histMgr.push(true, pc);
}

void
CompositeHost::attachProbes(obs::MetricsScope &scope)
{
    if (comp.enableImli)
        imliComps.attachProbes(scope);
    if (local != nullptr)
        local->attachProbes(scope);
    if (loopPred != nullptr)
        loopPred->attachProbes(scope);
    if (ittageLoop != nullptr)
        ittageLoop->attachProbes(scope);
    attachProbesHost(scope);
}

StorageAccount
CompositeHost::storage() const
{
    StorageAccount acct;
    accountHost(acct);
    if (comp.enableImli)
        imliComps.account(acct);
    if (loopPred != nullptr)
        loopPred->account(acct, "loop");
    if (ittageLoop != nullptr)
        ittageLoop->account(acct, "itl");
    if (wormhole != nullptr)
        wormhole->account(acct, "wormhole");
    return acct;
}

} // namespace imli

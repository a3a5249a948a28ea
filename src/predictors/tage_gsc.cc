#include "src/predictors/tage_gsc.hh"

#include <algorithm>

namespace imli
{

TageGscPredictor::TageGscPredictor(const Config &config)
    : CompositeHost(config,
                    std::max(config.tage.maxHistory,
                             config.gsc.maxHistory),
                    /*digest_seed=*/0x7a6e),
      cfg(config), tage(cfg.tage, histMgr), bias(cfg.bias),
      gscGlobal(cfg.gsc, histMgr), corrector(cfg.sc)
{
    corrector.addComponent(&bias);
    corrector.addComponent(&gscGlobal);
    if (cfg.enableImli) {
        for (ScComponent *c : imliComps.components())
            corrector.addComponent(c);
    }
    if (cfg.enableLocal)
        corrector.addComponent(local.get());
}

bool
TageGscPredictor::predictHost(std::uint64_t pc)
{
    look = LookupState();
    look.tagePrediction = tage.predict(pc);

    look.ctx.pc = pc;
    look.ctx.mainPred = look.tagePrediction.taken;
    if (cfg.enableImli)
        imliComps.fillContext(look.ctx, pc);

    look.decision = corrector.decide(look.ctx, look.tagePrediction.taken,
                                     look.tagePrediction.confidence);
    return look.decision.finalPred;
}

void
TageGscPredictor::updateHost(std::uint64_t pc, bool taken, bool final_pred)
{
    corrector.train(look.ctx, taken, look.decision);
    tage.update(pc, taken, final_pred);
}

void
TageGscPredictor::accountHost(StorageAccount &acct) const
{
    tage.account(acct);
    corrector.account(acct);
}

} // namespace imli

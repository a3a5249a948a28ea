#include "src/predictors/gehl.hh"

namespace imli
{

GehlPredictor::GehlPredictor(const Config &config)
    : CompositeHost(config, config.global.maxHistory,
                    /*digest_seed=*/0x6e41),
      cfg(config), global(cfg.global, histMgr), voting(cfg.voting)
{
    voting.addComponent(&global);
    if (cfg.enableImli) {
        for (ScComponent *c : imliComps.components())
            voting.addComponent(c);
    }
    if (cfg.enableLocal)
        voting.addComponent(local.get());
}

bool
GehlPredictor::predictHost(std::uint64_t pc)
{
    look = LookupState();
    look.ctx.pc = pc;
    look.ctx.mainPred = false;
    if (cfg.enableImli)
        imliComps.fillContext(look.ctx, pc);

    look.sum = voting.sum(look.ctx);
    look.gehlPred = look.sum >= 0;
    return look.gehlPred;
}

void
GehlPredictor::updateHost(std::uint64_t pc, bool taken, bool final_pred)
{
    (void)pc;
    (void)final_pred;
    const bool gehl_mispred = look.gehlPred != taken;
    const int abs_sum = look.sum < 0 ? -look.sum : look.sum;
    if (voting.onOutcome(gehl_mispred, abs_sum))
        voting.trainAll(look.ctx, taken);
    voting.resolveAll(look.ctx, taken);
}

void
GehlPredictor::accountHost(StorageAccount &acct) const
{
    voting.account(acct);
}

} // namespace imli

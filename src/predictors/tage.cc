#include "src/predictors/tage.hh"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/util/hashing.hh"

namespace imli
{

std::vector<unsigned>
geometricLengths(unsigned count, unsigned min_length, unsigned max_length)
{
    assert(count >= 1);
    assert(min_length >= 1 && min_length <= max_length);
    std::vector<unsigned> lengths(count);
    if (count == 1) {
        lengths[0] = min_length;
        return lengths;
    }
    const double ratio =
        std::pow(static_cast<double>(max_length) / min_length,
                 1.0 / (count - 1));
    double value = min_length;
    for (unsigned i = 0; i < count; ++i) {
        unsigned rounded = static_cast<unsigned>(std::lround(value));
        // Keep the series strictly increasing even after rounding.
        if (i > 0 && rounded <= lengths[i - 1])
            rounded = lengths[i - 1] + 1;
        lengths[i] = rounded;
        value *= ratio;
    }
    lengths[count - 1] = max_length > lengths[count - 1]
                             ? max_length
                             : lengths[count - 1];
    return lengths;
}

TagePredictor::TagePredictor(const Config &config, HistoryManager &hist)
    : cfg(config), histMgr(hist),
      lengths(geometricLengths(config.numTables, config.minHistory,
                               config.maxHistory)),
      base(config.baseLogEntries, 2)
{
    if (cfg.numTables < 1 || cfg.numTables > kMaxTables)
        throw std::invalid_argument(
            "tage: numTables must be in [1, " +
            std::to_string(kMaxTables) + "]");
    tables = TableArena<Entry>(cfg.numTables, cfg.logEntries);
    indexFolds.resize(cfg.numTables);
    tagFolds1.resize(cfg.numTables);
    tagFolds2.resize(cfg.numTables);
    for (unsigned i = 0; i < cfg.numTables; ++i) {
        indexFolds[i] = histMgr.createFold(lengths[i], cfg.logEntries);
        tagFolds1[i] = histMgr.createFold(lengths[i], tagBits(i));
        tagFolds2[i] = histMgr.createFold(lengths[i], tagBits(i) - 1);
    }
    useAltOnNa.assign(8, 0);
}

unsigned
TagePredictor::tagBits(unsigned table) const
{
    if (cfg.numTables == 1)
        return cfg.tagBitsMin;
    // Linear ramp from min to max tag width across the tables.
    const unsigned span = cfg.tagBitsMax - cfg.tagBitsMin;
    return cfg.tagBitsMin + (span * table) / (cfg.numTables - 1);
}

unsigned
TagePredictor::tableIndex(unsigned table, std::uint64_t pc) const
{
    const std::uint64_t path_bits =
        foldBits(histMgr.history().path() &
                     maskBits(3 * (lengths[table] < 16 ? lengths[table]
                                                       : 16)),
                 cfg.logEntries);
    const std::uint64_t raw = (pc >> 1) ^ ((pc >> 1) >> (table + 1)) ^
                              histMgr.foldValue(indexFolds[table]) ^ path_bits;
    return static_cast<unsigned>(raw & maskBits(cfg.logEntries));
}

std::uint16_t
TagePredictor::tableTag(unsigned table, std::uint64_t pc) const
{
    const std::uint64_t raw =
        (pc >> 1) ^ histMgr.foldValue(tagFolds1[table]) ^
        (static_cast<std::uint64_t>(histMgr.foldValue(tagFolds2[table]))
         << 1);
    return static_cast<std::uint16_t>(raw & maskBits(tagBits(table)));
}

void
TagePredictor::counterUpdate(std::int8_t &ctr, bool taken, int bits)
{
    // Branch-free clamp (see counters.hh): the step direction tracks the
    // simulated outcome, so an if/else here mispredicts on the host
    // whenever the simulated predictor does.
    const int max_v = (1 << (bits - 1)) - 1;
    const int min_v = -(1 << (bits - 1));
    int next = ctr + (taken ? 1 : -1);
    next = next < min_v ? min_v : next;
    ctr = static_cast<std::int8_t>(next > max_v ? max_v : next);
}

unsigned
TagePredictor::nextRandom()
{
    const unsigned bit =
        ((lfsr >> 0) ^ (lfsr >> 1) ^ (lfsr >> 3) ^ (lfsr >> 12)) & 1u;
    lfsr = (lfsr >> 1) | (bit << 15);
    return lfsr;
}

TagePredictor::Prediction
TagePredictor::predict(std::uint64_t pc)
{
    // No wholesale lookup-state reset: every field update() can read is
    // rewritten on the path that makes it readable (provider*/alt* fields
    // only when provider/altTable is set this lookup), and indices/tags
    // are fully rewritten below.
    look.pc = pc;

    for (unsigned i = 0; i < cfg.numTables; ++i) {
        look.indices[i] = tableIndex(i, pc);
        look.tags[i] = tableTag(i, pc);
    }

    // Longest history match provides; the next match (or base) is alt.
    // Branch-light selection: fold the per-table tag compares into a
    // bitmask (a predictable counted loop), then pick the two highest
    // set bits — equivalent to the descending first/second-match scan,
    // without a data-dependent branch per table.
    std::uint32_t match = 0;
    for (unsigned i = 0; i < cfg.numTables; ++i) {
        const Entry &e = tables.at(i, look.indices[i]);
        match |= static_cast<std::uint32_t>(e.tag == look.tags[i]) << i;
    }
    int provider = -1;
    int alt = -1;
    if (match != 0) {
        provider = 31 - __builtin_clz(match);
        const std::uint32_t rest = match ^ (1u << provider);
        if (rest != 0)
            alt = 31 - __builtin_clz(rest);
    }

    Prediction pred;
    const bool base_pred = base.lookup(pc);

    look.provider = provider;
    look.altTable = alt;
    look.altPred = base_pred;
    if (alt >= 0) {
        look.altIndex = look.indices[alt];
        look.altPred = counterTaken(tables.at(alt, look.altIndex).ctr);
    }

    if (provider >= 0) {
        look.providerIndex = look.indices[provider];
        const Entry &e = tables.at(provider, look.providerIndex);
        look.providerPred = counterTaken(e.ctr);
        // Newly allocated: weak counter, no proven usefulness.
        look.providerNew =
            (e.u == 0) && (e.ctr == 0 || e.ctr == -1);

        const unsigned alt_sel =
            static_cast<unsigned>((pc >> 1) & 0x7);
        const bool prefer_alt =
            look.providerNew && useAltOnNa[alt_sel] >= 0;
        pred.taken = prefer_alt ? look.altPred : look.providerPred;
        pred.usedAlt = prefer_alt;
        look.usedAlt = prefer_alt;

        const int centered = 2 * e.ctr + 1;
        const int mag = centered < 0 ? -centered : centered;
        const int max_mag = (1 << cfg.counterBits) - 1;
        pred.confidence = mag == max_mag ? 2 : (mag >= max_mag / 2 ? 1 : 0);
    } else {
        pred.taken = base_pred;
        pred.usedAlt = false;
        pred.confidence = base.isWeak(pc) ? 0 : 1;
    }
    pred.provider = provider;
    pred.altTaken = look.altPred;
    look.finalPred = pred.taken;
    return pred;
}

void
TagePredictor::update(std::uint64_t pc, bool taken, bool final_pred)
{
    assert(pc == look.pc && "update() must pair with predict()");

    const bool tage_mispred = look.finalPred != taken;

    // Resolution classification: which component's counter actually
    // decided this branch.  usedAlt is only written on the provider
    // path, which is the only path that reads it here.
    if (look.provider >= 0) {
        if (look.usedAlt)
            obsAlt.hit();
        else
            obsProvider.hit();
    } else {
        obsBase.hit();
    }

    // --- "use alt on newly allocated" arbitration -----------------------
    if (look.provider >= 0 && look.providerNew &&
        look.providerPred != look.altPred) {
        const unsigned alt_sel = static_cast<unsigned>((pc >> 1) & 0x7);
        std::int8_t &ctr = useAltOnNa[alt_sel];
        counterUpdate(ctr, look.altPred == taken, 4);
    }

    // --- allocation on misprediction ------------------------------------
    // Allocate when the overall composed prediction was wrong (the TAGE-SC-L
    // policy) and a longer table exists.
    if ((final_pred != taken || tage_mispred) &&
        look.provider < static_cast<int>(cfg.numTables) - 1) {
        const unsigned start = static_cast<unsigned>(look.provider + 1);
        // Random starting offset biases allocation towards shorter tables
        // (geometric preference, as in the reference implementations).
        unsigned first = start;
        if (start + 1 < cfg.numTables && (nextRandom() & 1u))
            ++first;
        if (first + 1 < cfg.numTables && (nextRandom() & 3u) == 0)
            ++first;

        // Allocate up to two entries on successive tables (the reference
        // TAGE implementations allocate more than one to speed up the
        // capture of new correlation contexts).
        unsigned allocated = 0;
        unsigned blocked = 0;
        for (unsigned i = first; i < cfg.numTables && allocated < 2; ++i) {
            Entry &e = tables.at(i, look.indices[i]);
            if (e.u == 0) {
                e.tag = look.tags[i];
                e.ctr = taken ? 0 : -1;
                ++allocated;
                ++i; // skip the immediately next table after a success
            } else {
                ++blocked;
            }
        }

        // u-bit ageing controller: repeated allocation failures indicate
        // the u bits are saturated and stale.
        const std::uint32_t tick_max = 1u << cfg.tickLogMax;
        if (allocated == 0) {
            obsAllocFail.hit();
            tick = tick + blocked < tick_max ? tick + blocked : tick_max;
        } else {
            obsAllocSuccess.hit();
            tick = tick > blocked ? tick - blocked : 0;
        }
        if (tick >= tick_max) {
            obsUsefulReset.hit();
            // One linear pass over the whole arena (table-major, same
            // order as the old nested sweep) at streaming bandwidth.
            for (Entry &e : tables)
                e.u >>= 1;
            tick = 0;
        }
    }

    // --- provider / base training ---------------------------------------
    if (look.provider >= 0) {
        Entry &e = tables.at(look.provider, look.providerIndex);
        counterUpdate(e.ctr, taken, static_cast<int>(cfg.counterBits));
        // Train the alternate too while the provider is still unproven, so
        // the provider can be disposed of without losing the prediction.
        if (e.u == 0) {
            if (look.altTable >= 0) {
                Entry &a = tables.at(look.altTable, look.altIndex);
                counterUpdate(a.ctr, taken,
                              static_cast<int>(cfg.counterBits));
            } else {
                base.train(pc, taken);
            }
        }
        // Usefulness: the provider proved better (or worse) than the alt.
        if (look.providerPred != look.altPred) {
            const unsigned u_max = (1u << cfg.usefulBits) - 1;
            if (look.providerPred == taken) {
                if (e.u < u_max)
                    ++e.u;
            } else {
                if (e.u > 0)
                    --e.u;
            }
        }
    } else {
        base.train(pc, taken);
    }
}

void
TagePredictor::attachProbes(obs::MetricsScope &scope)
{
    obsProvider.slot = scope.counter("tage/resolved_provider");
    obsAlt.slot = scope.counter("tage/resolved_alt");
    obsBase.slot = scope.counter("tage/resolved_base");
    obsAllocSuccess.slot = scope.counter("tage/alloc_success");
    obsAllocFail.slot = scope.counter("tage/alloc_fail");
    obsUsefulReset.slot = scope.counter("tage/useful_reset");
}

void
TagePredictor::account(StorageAccount &acct) const
{
    std::uint64_t tagged_bits = 0;
    for (unsigned i = 0; i < cfg.numTables; ++i) {
        tagged_bits += static_cast<std::uint64_t>(1u << cfg.logEntries) *
                       (cfg.counterBits + cfg.usefulBits + tagBits(i));
    }
    acct.add("tage/tagged", tagged_bits);
    acct.add("tage/base", (1ull << cfg.baseLogEntries) * 2);
    acct.add("tage/use_alt_on_na", 8 * 4);
    acct.add("tage/tick", cfg.tickLogMax);
}

} // namespace imli

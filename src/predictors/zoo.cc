#include "src/predictors/zoo.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>

#include "src/predictors/bimodal.hh"
#include "src/predictors/gshare.hh"
#include "src/predictors/ittage_loop.hh"
#include "src/util/cli.hh"
#include "src/util/hashing.hh"

namespace imli
{

std::size_t
findTopLevel(const std::string &s, char ch, std::size_t from)
{
    int depth = 0;
    for (std::size_t i = from; i < s.size(); ++i) {
        if (s[i] == '(') {
            ++depth;
        } else if (s[i] == ')') {
            if (depth > 0)
                --depth;
        } else if (s[i] == ch && depth == 0) {
            return i;
        }
    }
    return std::string::npos;
}

namespace
{

/**
 * Split "host+a+b" into host and add-on tokens, keeping empty tokens
 * ("tage-gsc+" is {"tage-gsc", ""}) so parseSpec can reject them.
 */
std::vector<std::string>
splitSpec(const std::string &spec)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    for (std::size_t plus; (plus = spec.find('+', pos)) != std::string::npos;
         pos = plus + 1)
        parts.push_back(spec.substr(pos, plus - pos));
    parts.push_back(spec.substr(pos));
    return parts;
}

ZooOptions
parseOptions(const std::vector<std::string> &parts)
{
    ZooOptions opts;
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string &t = parts[i];
        if (t == "i") {
            opts.imliSic = true;
            opts.imliOh = true;
        } else if (t == "sic") {
            opts.imliSic = true;
        } else if (t == "oh") {
            opts.imliOh = true;
        } else if (t == "l") {
            opts.local = true;
        } else if (t == "loop") {
            opts.loopOnly = true;
        } else if (t == "itl") {
            opts.ittageLoop = true;
        } else if (t == "wh") {
            opts.wormhole = true;
        } else if (t == "omli") {
            opts.omli = true;
        } else if (t == "imligsc") {
            opts.imliInGscTables = 2;
        } else {
            throw std::invalid_argument("unknown predictor add-on: " + t);
        }
    }
    return opts;
}

/** Canonical "+addon" suffix for an option set (fixed emission order). */
std::string
addonSuffix(const ZooOptions &o)
{
    std::string s;
    if (o.imliSic && o.imliOh)
        s += "+i";
    else if (o.imliSic)
        s += "+sic";
    else if (o.imliOh)
        s += "+oh";
    if (o.omli)
        s += "+omli";
    if (o.imliInGscTables > 0)
        s += "+imligsc";
    if (o.local)
        s += "+l";
    else if (o.loopOnly)
        s += "+loop";
    if (o.ittageLoop)
        s += "+itl";
    if (o.wormhole)
        s += "+wh";
    return s;
}

/**
 * Compose the display name from the host and active add-ons: the
 * canonical suffix upper-cased ("+i" -> "+I"), so the echoed spec and
 * the display name cannot drift apart.
 */
std::string
displayName(const std::string &host, const ZooOptions &opts)
{
    std::string name = host;
    for (char c : addonSuffix(opts))
        name += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return name;
}

// -------------------------------------------------------------------------
// The override key table.  Each entry names one knob, its legal range,
// and the one applier that lands it in a Config struct.  Which applier a
// key has is its host scope (KeyScope): keys of the components both
// hosts share apply to CompositeHostConfig (gsc.* is the global bank:
// TAGE-GSC's GSC bank, GEHL's main table bank); tage.* and bias.* apply
// to the TAGE-GSC core; meta.* to the meta chooser; the run-level
// sim.delay has no applier.
// -------------------------------------------------------------------------

using HostCfg = CompositeHostConfig;
using TageCfg = TageGscPredictor::Config;
using MetaCfg = MetaChooserPredictor::Config;
using MetaPolicy = MetaChooserPredictor::Policy;

struct KeyEntry
{
    OverrideKeyInfo info;
    void (*applyHost)(HostCfg &, long long) = nullptr;
    void (*applyTage)(TageCfg &, long long) = nullptr;
    void (*applyMeta)(MetaCfg &, long long) = nullptr;
};

/** Derive each key's host scope from the one applier it has. */
std::vector<KeyEntry>
withScopes(std::vector<KeyEntry> table)
{
    for (KeyEntry &e : table)
        e.info.scope = e.applyHost   ? KeyScope::Hosts
                       : e.applyTage ? KeyScope::TageGsc
                       : e.applyMeta ? KeyScope::Meta
                                     : KeyScope::Run;
    return table;
}

const std::vector<KeyEntry> &
keyTable()
{
    static const std::vector<KeyEntry> table = withScopes({
        {{"bias.logsize", 4, 16, false, "log2 entries per bias table"},
         nullptr,
         +[](TageCfg &c, long long v) { c.bias.logEntries = unsigned(v); }},
        {{"bias.tables", 1, 4, false, "number of bias tables"},
         nullptr,
         +[](TageCfg &c, long long v) { c.bias.numTables = unsigned(v); }},
        {{"gsc.ctrbits", 1, 8, false, "global bank counter width (bits)"},
         +[](HostCfg &c, long long v) { c.gsc.counterBits = unsigned(v); }},
        {{"gsc.logsize", 4, 20, false, "log2 entries per global-bank table"},
         +[](HostCfg &c, long long v) { c.gsc.logEntries = unsigned(v); }},
        {{"gsc.maxhist", 8, 4096, false, "longest global-bank history length"},
         +[](HostCfg &c, long long v) { c.gsc.maxHistory = unsigned(v); }},
        {{"gsc.minhist", 0, 256, false,
          "shortest global-bank history length (0 = PC-only first "
          "table)"},
         +[](HostCfg &c, long long v) { c.gsc.minHistory = unsigned(v); }},
        {{"gsc.tables", 1, 32, false, "global-bank table count"},
         +[](HostCfg &c, long long v) { c.gsc.numTables = unsigned(v); }},
        {{"imli.ctrbits", 4, 16, false, "IMLI counter width (bits)"},
         +[](HostCfg &c, long long v) { c.imli.counterBits = unsigned(v); }},
        {{"itl.iterbits", 4, 16, false,
          "ITTAGE-loop iteration counter width (bits)"},
         +[](HostCfg &c, long long v) { c.itl.iterBits = unsigned(v); }},
        {{"itl.logsets", 0, 8, false, "log2 ITTAGE-loop base tracker sets"},
         +[](HostCfg &c, long long v) { c.itl.logSets = unsigned(v); }},
        {{"itl.logsize", 2, 12, false,
          "log2 entries per ITTAGE-loop tagged table"},
         +[](HostCfg &c, long long v) { c.itl.logSize = unsigned(v); }},
        {{"itl.tables", 1, 8, false, "ITTAGE-loop tagged table count"},
         +[](HostCfg &c, long long v) { c.itl.numTables = unsigned(v); }},
        {{"itl.tagbits", 4, 16, false,
          "ITTAGE-loop tagged partial tag width (bits)"},
         +[](HostCfg &c, long long v) { c.itl.taggedTagBits = unsigned(v); }},
        {{"itl.ways", 1, 8, false, "ITTAGE-loop base tracker associativity"},
         +[](HostCfg &c, long long v) { c.itl.ways = unsigned(v); }},
        {{"local.logsize", 4, 16, false, "log2 entries per local voting table"},
         +[](HostCfg &c, long long v) { c.local.logEntries = unsigned(v); }},
        {{"local.tables", 1, 8, false, "local voting table count"},
         +[](HostCfg &c, long long v) { c.local.numTables = unsigned(v); }},
        {{"loop.logsets", 0, 8, false, "log2 loop predictor sets"},
         +[](HostCfg &c, long long v) { c.loop.logSets = unsigned(v); }},
        {{"loop.ways", 1, 8, false, "loop predictor associativity"},
         +[](HostCfg &c, long long v) { c.loop.ways = unsigned(v); }},
        // meta.* keys configure the meta-chooser host (meta_chooser.hh);
        // the meta host in turn accepts only meta.* and the run-level
        // sim.* keys.
        {{"meta.countbits", 4, 16, false,
          "UCB pull/reward counter width (bits)"},
         nullptr, nullptr,
         +[](MetaCfg &c, long long v) { c.countBits = unsigned(v); }},
        {{"meta.ctrbits", 1, 8, false,
          "tournament chooser counter width (bits)"},
         nullptr, nullptr,
         +[](MetaCfg &c, long long v) { c.counterBits = unsigned(v); }},
        {{"meta.explore", 1, 16, false,
          "UCB exploration scale (inside the sqrt)"},
         nullptr, nullptr,
         +[](MetaCfg &c, long long v) { c.explore = unsigned(v); }},
        {{"meta.logsize", 4, 20, false,
          "log2 entries of the per-PC meta table"},
         nullptr, nullptr,
         +[](MetaCfg &c, long long v) { c.logEntries = unsigned(v); }},
        {{"meta.policy", 0, 2, false,
          "arbitration policy: tournament, ucb or fusion"},
         nullptr, nullptr,
         +[](MetaCfg &c, long long v) { c.policy = static_cast<MetaPolicy>(v); }},
        {{"meta.theta", 0, 1024, false,
          "fusion training threshold (0 = 1.93*N + 14)"},
         nullptr, nullptr,
         +[](MetaCfg &c, long long v) { c.theta = unsigned(v); }},
        {{"meta.wbits", 4, 16, false, "fusion weight width (bits)"},
         nullptr, nullptr,
         +[](MetaCfg &c, long long v) { c.weightBits = unsigned(v); }},
        {{"oh.ctrbits", 1, 8, false, "IMLI-OH counter width (bits)"},
         +[](HostCfg &c, long long v) { c.imli.oh.counterBits = unsigned(v); }},
        {{"oh.delay", 0, 1024, false,
          "modelled outer-history commit delay (branches)"},
         +[](HostCfg &c, long long v) { c.imli.ohUpdateDelay = unsigned(v); }},
        {{"oh.logsize", 4, 16, false, "log2 entries of the IMLI-OH table"},
         +[](HostCfg &c, long long v) { c.imli.oh.logEntries = unsigned(v); }},
        {{"oh.weight", 1, 8, false, "IMLI-OH vote weight"},
         +[](HostCfg &c, long long v) { c.imli.oh.weight = int(v); }},
        {{"outer.bits", 64, 65536, true, "outer-history table bits"},
         +[](HostCfg &c, long long v) { c.imli.outer.tableBits = unsigned(v); }},
        {{"outer.iterlog", 2, 10, false,
          "log2 iteration slots per branch in the outer history"},
         +[](HostCfg &c, long long v) { c.imli.outer.iterBitsLog = unsigned(v); }},
        // The PIPE checkpoint packs into 32 bits, so 32 is a hard cap.
        {{"outer.pipe", 4, 32, true, "PIPE vector width (checkpoint-limited)"},
         +[](HostCfg &c, long long v) { c.imli.outer.pipeEntries = unsigned(v); }},
        {{"sic.ctrbits", 1, 8, false, "IMLI-SIC counter width (bits)"},
         +[](HostCfg &c, long long v) { c.imli.sic.counterBits = unsigned(v); }},
        {{"sic.logsize", 4, 16, false, "log2 entries of the IMLI-SIC table"},
         +[](HostCfg &c, long long v) { c.imli.sic.logEntries = unsigned(v); }},
        {{"sic.weight", 1, 8, false, "IMLI-SIC vote weight"},
         +[](HostCfg &c, long long v) { c.imli.sic.weight = int(v); }},
        // Run-level, not geometry: consumed by the simulation drivers
        // (suite runner / DSE sweep) as the pipeline engine's update
        // delay for this point; specUpdateDelay() is the accessor.
        {{"sim.delay", 0, kMaxSpeculationDepth, false,
          "pipeline update delay for this config point (in-flight "
          "branches; 0 = immediate)"}},
        {{"tage.baselog", 4, 20, false,
          "log2 entries of the bimodal base table"},
         nullptr,
         +[](TageCfg &c, long long v) { c.tage.baseLogEntries = unsigned(v); }},
        {{"tage.ctrbits", 1, 8, false, "TAGE prediction counter width (bits)"},
         nullptr,
         +[](TageCfg &c, long long v) { c.tage.counterBits = unsigned(v); }},
        {{"tage.logsize", 4, 20, false, "log2 entries per tagged TAGE table"},
         nullptr,
         +[](TageCfg &c, long long v) { c.tage.logEntries = unsigned(v); }},
        {{"tage.maxhist", 8, 4096, false, "longest TAGE history length"},
         nullptr,
         +[](TageCfg &c, long long v) { c.tage.maxHistory = unsigned(v); }},
        {{"tage.minhist", 1, 64, false, "shortest TAGE history length"},
         nullptr,
         +[](TageCfg &c, long long v) { c.tage.minHistory = unsigned(v); }},
        {{"tage.tables", 1, 32, false, "tagged TAGE table count"},
         nullptr,
         +[](TageCfg &c, long long v) { c.tage.numTables = unsigned(v); }},
        {{"wh.entries", 1, 64, false, "wormhole tagged entries"},
         +[](HostCfg &c, long long v) { c.wh.numEntries = unsigned(v); }},
        {{"wh.histbits", 64, 8192, false,
          "wormhole per-entry local history bits"},
         +[](HostCfg &c, long long v) { c.wh.historyBits = unsigned(v); }},
    });
    return table;
}

const KeyEntry *
findKey(const std::string &key)
{
    for (const KeyEntry &e : keyTable())
        if (e.info.key == key)
            return &e;
    return nullptr;
}

/**
 * The key named @p key, checked against @p host's scope: the one host
 * check behind parseOverrides and the config builders (which are public
 * API over hand-built ParsedSpecs, so an unknown or wrong-host key must
 * throw there too, not reach a null applier).
 */
const KeyEntry &
keyForHost(const std::string &key, const std::string &host)
{
    const KeyEntry *entry = findKey(key);
    if (!entry)
        throw std::invalid_argument("unknown override key: " + key);
    if (host != "tage-gsc" && host != "gehl" && host != "meta")
        throw std::invalid_argument("host " + host +
                                    " accepts no overrides");
    const KeyScope scope = entry->info.scope;
    if (scope == KeyScope::TageGsc && host != "tage-gsc")
        throw std::invalid_argument("override key " + key +
                                    " only applies to the tage-gsc host");
    if (scope == KeyScope::Meta && host != "meta")
        throw std::invalid_argument("override key " + key +
                                    " only applies to the meta host");
    if (scope == KeyScope::Hosts && host == "meta")
        throw std::invalid_argument(
            "override key " + key + " does not apply to the meta "
            "host (only meta.* and sim.* keys do; sub-predictor "
            "keys go on the sub-spec inside the parentheses)");
    return *entry;
}

/**
 * Parse the "@key=value,..." section: strict keys, strict values, range
 * and host checks, then canonicalize (sort by key, last duplicate wins).
 */
std::vector<SpecOverride>
parseOverrides(const std::string &text, const std::string &host)
{
    if (text.empty())
        throw std::invalid_argument(
            "spec has an empty override section after '@'");
    // Canonical form: sorted by key, duplicates resolved last-wins.
    std::map<std::string, long long> canonical;
    std::string token;
    std::istringstream is(text);
    while (std::getline(is, token, ',')) {
        if (token.empty())
            throw std::invalid_argument(
                "empty override in spec (stray comma?)");
        const auto eq = token.find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::invalid_argument("override \"" + token +
                                        "\" is not of the form key=value");
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        const OverrideKeyInfo &info = keyForHost(key, host).info;
        const long long v =
            key == "meta.policy"
                ? metaPolicyValueFromName(value)
                : parseDecimalLLStrict(value, "override " + key);
        if (v < info.minValue || v > info.maxValue)
            throw std::invalid_argument(
                "override " + key + "=" + value + " is out of range [" +
                std::to_string(info.minValue) + ", " +
                std::to_string(info.maxValue) + "]");
        if (info.powerOfTwo && !isPowerOfTwo(v))
            throw std::invalid_argument("override " + key + "=" + value +
                                        " must be a power of two");
        canonical[key] = v;
    }
    if (text.back() == ',')
        throw std::invalid_argument(
            "empty override in spec (stray comma?)");
    std::vector<SpecOverride> overrides;
    for (const auto &[key, value] : canonical)
        overrides.push_back({key, value});
    return overrides;
}

/** "@key=value,..." suffix in canonical order; "" when no overrides. */
std::string
overrideSuffix(const std::vector<SpecOverride> &overrides)
{
    if (overrides.empty())
        return "";
    std::string s = "@";
    for (std::size_t i = 0; i < overrides.size(); ++i) {
        if (i > 0)
            s += ',';
        s += overrides[i].key + "=";
        s += overrides[i].key == "meta.policy"
                 ? metaPolicyValueName(overrides[i].value)
                 : std::to_string(overrides[i].value);
    }
    return s;
}

/**
 * The meta analog of checkOverrideApplies: reject keys that the
 * resolved policy never reads — sweeping meta.ctrbits under
 * meta.policy=ucb would fake a Pareto spread out of byte-identical
 * points.
 */
void
checkMetaOverrideApplies(const std::vector<SpecOverride> &overrides)
{
    MetaPolicy policy = MetaPolicy::Tournament;
    for (const SpecOverride &o : overrides)
        if (o.key == "meta.policy")
            policy = static_cast<MetaPolicy>(o.value);
    for (const SpecOverride &o : overrides) {
        MetaPolicy needs = policy;
        std::string need;
        if (o.key == "meta.ctrbits") {
            needs = MetaPolicy::Tournament;
            need = "tournament";
        } else if (o.key == "meta.countbits" || o.key == "meta.explore") {
            needs = MetaPolicy::Ucb;
            need = "ucb";
        } else if (o.key == "meta.wbits" || o.key == "meta.theta") {
            needs = MetaPolicy::Fusion;
            need = "fusion";
        }
        if (needs != policy)
            throw std::invalid_argument(
                "override " + o.key + " has no effect under meta.policy=" +
                metaPolicyValueName(static_cast<long long>(policy)) +
                " (it only applies to the " + need + " policy)");
    }
}

/**
 * Reject overrides of components the spec does not enable: a sweep axis
 * over (say) sic.logsize on a host without +sic would simulate
 * byte-identical points and fake a Pareto spread — the configured table
 * exists but never votes.  Keyed by the "component." prefix and read
 * from the enable switches configureHost has just set.
 */
void
checkOverrideApplies(const CompositeHostConfig &cfg, const std::string &key)
{
    const std::string prefix = key.substr(0, key.find('.'));
    bool active = true;
    std::string need;
    if (prefix == "sic") {
        active = cfg.imli.enableSic;
        need = "+sic or +i";
    } else if (prefix == "oh" || prefix == "outer") {
        active = cfg.imli.enableOh;
        need = "+oh or +i";
    } else if (prefix == "imli") {
        active = cfg.enableImli || cfg.gsc.imliIndexTables > 0;
        need = "+sic, +oh, +i or +omli";
    } else if (prefix == "loop") {
        active = cfg.enableLoop;
        need = "+loop, +l or +wh";
    } else if (prefix == "itl") {
        active = cfg.enableItl;
        need = "+itl";
    } else if (prefix == "wh") {
        active = cfg.enableWh;
        need = "+wh";
    } else if (prefix == "local") {
        active = cfg.enableLocal;
        need = "+l";
    }
    if (!active)
        throw std::invalid_argument(
            "override " + key + " has no effect on this spec (the "
            "component is disabled; add " + need + ")");
}

/**
 * Fit check for a global GEHL bank, shared by both hosts so the gsc.*
 * keys enforce one invariant.  With minhist == 0 the first table is
 * PC-only and the geometric series starts at 2; otherwise it starts at
 * minhist.  Either way the strictly increasing lengths must fit under
 * maxhist, or the rounding bump would silently exceed the declared
 * geometry.
 */
void
checkGscBank(const GlobalGehlComponent::Config &bank)
{
    if (bank.minHistory >= bank.maxHistory)
        throw std::invalid_argument(
            "gsc.minhist must be smaller than gsc.maxhist");
    if (bank.maxHistory < std::max(2u, bank.minHistory) + bank.numTables)
        throw std::invalid_argument(
            "gsc.maxhist too small for gsc.tables/gsc.minhist strictly "
            "increasing history lengths");
    // +sic/+imligsc hash the IMLI counter into the last imliIndexTables
    // tables; fewer tables than that would wrap the unsigned "last N"
    // arithmetic and silently disable the insertion.
    if (bank.imliIndexTables > bank.numTables)
        throw std::invalid_argument(
            "gsc.tables must be at least the IMLI-indexed table count "
            "(2 with +sic/+imligsc)");
}

/** Cross-constraints of the IMLI outer-history geometry. */
void
checkImliGeometry(const ImliComponents::Config &imli)
{
    if ((1u << imli.outer.iterBitsLog) > imli.outer.tableBits)
        throw std::invalid_argument(
            "outer.iterlog too large for outer.bits (need 2^iterlog <= "
            "bits)");
}

/** Cross-constraints of the TAGE core's history-length series. */
void
checkTageGeometry(const TagePredictor::Config &tage)
{
    if (tage.minHistory >= tage.maxHistory)
        throw std::invalid_argument(
            "tage.minhist must be smaller than tage.maxhist");
    if (tage.maxHistory < tage.minHistory + tage.numTables)
        throw std::invalid_argument(
            "tage.maxhist too small for tage.tables strictly increasing "
            "history lengths");
}

/**
 * The one wiring and check path both host builders share: the add-on
 * switches, every override through its single applier, the geometry
 * cross-checks and the display name.  @p tage is the TAGE-GSC Config
 * that takes the core keys (tage.*, bias.*); it is null on GEHL, where
 * keyForHost already rejects those keys.
 */
void
configureHost(CompositeHostConfig &cfg, TageCfg *tage,
              const ParsedSpec &parsed, const char *label)
{
    const ZooOptions &opts = parsed.opts;
    cfg.enableImli = opts.imliSic || opts.imliOh || opts.omli;
    cfg.imli.enableSic = opts.imliSic;
    cfg.imli.enableOh = opts.imliOh;
    cfg.imli.enableOmli = opts.omli;
    cfg.imli.sic.weight = 3;
    cfg.imli.oh.weight = 1;
    // Section 4.2: the SIC benefit increases further when the IMLI counter
    // is hashed into the indices of two global SC tables.
    cfg.gsc.imliIndexTables = opts.imliSic
                                  ? std::max(2u, opts.imliInGscTables)
                                  : opts.imliInGscTables;
    cfg.enableLocal = opts.local;
    cfg.enableLoop = opts.local || opts.loopOnly || opts.wormhole;
    cfg.loopOverride = opts.local || opts.loopOnly;
    cfg.enableItl = opts.ittageLoop;
    cfg.enableWh = opts.wormhole;
    for (const SpecOverride &o : parsed.overrides)
        checkOverrideApplies(cfg, o.key);
    for (const SpecOverride &o : parsed.overrides) {
        const KeyEntry &entry = keyForHost(o.key, parsed.host);
        if (entry.applyHost)
            entry.applyHost(cfg, o.value);
        else if (entry.applyTage)
            entry.applyTage(*tage, o.value);
    }
    if (tage)
        checkTageGeometry(tage->tage);
    checkGscBank(cfg.gsc);
    checkImliGeometry(cfg.imli);
    cfg.configName = displayName(label, opts) +
                     overrideSuffix(parsed.overrides);
}

} // anonymous namespace

ParsedSpec
parseSpec(const std::string &spec)
{
    ParsedSpec parsed;
    if (spec.compare(0, 5, "meta(") == 0) {
        // meta(sub,sub,...)[@meta.key=value,...] — commas and '@'
        // inside the parentheses belong to the sub-specs.
        int depth = 0;
        std::size_t close = std::string::npos;
        for (std::size_t i = 4; i < spec.size(); ++i) {
            if (spec[i] == '(') {
                ++depth;
            } else if (spec[i] == ')') {
                if (--depth == 0) {
                    close = i;
                    break;
                }
            }
        }
        if (close == std::string::npos)
            throw std::invalid_argument(
                "meta spec is missing the closing ')'");
        const std::string tail = spec.substr(close + 1);
        if (!tail.empty()) {
            if (tail[0] != '@')
                throw std::invalid_argument(
                    "unexpected text after ')' in meta spec (only an "
                    "'@' override section may follow): " + tail);
            if (tail.find('@', 1) != std::string::npos)
                throw std::invalid_argument(
                    "spec has more than one '@' section");
            parsed.overrides = parseOverrides(tail.substr(1), "meta");
        }
        parsed.host = "meta";
        const std::string arms = spec.substr(5, close - 5);
        // splitSpecList skips empty fragments (a stray comma in a
        // --configs list is harmless); a dropped chooser arm is not.
        for (std::size_t pos = 0; !arms.empty();) {
            const std::size_t comma = findTopLevel(arms, ',', pos);
            if (comma == pos || pos == arms.size())
                throw std::invalid_argument(
                    "meta spec has an empty sub-spec (stray comma?): " +
                    spec);
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        const std::vector<std::string> subs = splitSpecList(arms);
        if (subs.empty())
            throw std::invalid_argument(
                "meta spec needs at least one sub-spec inside the "
                "parentheses");
        if (subs.size() > MetaChooserPredictor::kMaxSubs)
            throw std::invalid_argument(
                "meta spec has " + std::to_string(subs.size()) +
                " sub-specs; the chooser arbitrates at most " +
                std::to_string(MetaChooserPredictor::kMaxSubs));
        for (const std::string &sub : subs) {
            const ParsedSpec sp = parseSpec(sub);
            if (sp.host == "meta")
                throw std::invalid_argument(
                    "meta specs cannot nest: " + sub);
            if (hasSpecUpdateDelay(sp))
                throw std::invalid_argument(
                    "run-level sim.* keys belong after meta(...)@, not "
                    "on the sub-spec \"" + sub + "\"");
            parsed.subSpecs.push_back(describeConfig(sp));
        }
        checkMetaOverrideApplies(parsed.overrides);
        return parsed;
    }
    const auto at = spec.find('@');
    if (spec.find('@', at == std::string::npos ? at : at + 1) !=
        std::string::npos)
        throw std::invalid_argument("spec has more than one '@' section");
    const std::string base =
        at == std::string::npos ? spec : spec.substr(0, at);

    const auto parts = splitSpec(base);
    if (parts[0].empty())
        throw std::invalid_argument("empty predictor spec");
    for (std::size_t i = 1; i < parts.size(); ++i)
        if (parts[i].empty())
            throw std::invalid_argument(
                "spec has an empty add-on (stray '+'): " + spec);
    parsed.host = parts[0];
    if (parsed.host == "bimodal" || parsed.host == "gshare" ||
        parsed.host == "itl") {
        if (parts.size() > 1)
            throw std::invalid_argument(parsed.host + " takes no add-ons");
    } else if (parsed.host == "tage-gsc" || parsed.host == "gehl") {
        parsed.opts = parseOptions(parts);
    } else {
        throw std::invalid_argument("unknown predictor host: " + parsed.host);
    }

    if (at != std::string::npos)
        parsed.overrides = parseOverrides(spec.substr(at + 1), parsed.host);

    // Run the cross-parameter constraints too (e.g. tage.maxhist vs
    // tage.tables): a spec that parses must also build.
    if (parsed.host == "tage-gsc")
        (void)buildTageGscConfig(parsed);
    else if (parsed.host == "gehl")
        (void)buildGehlConfig(parsed);
    return parsed;
}

std::string
describeConfig(const ParsedSpec &parsed)
{
    if (parsed.host == "meta") {
        std::string s = "meta(";
        for (std::size_t i = 0; i < parsed.subSpecs.size(); ++i) {
            if (i > 0)
                s += ',';
            s += parsed.subSpecs[i];
        }
        return s + ")" + overrideSuffix(parsed.overrides);
    }
    std::string s = parsed.host;
    if (parsed.host == "tage-gsc" || parsed.host == "gehl")
        s += addonSuffix(parsed.opts);
    return s + overrideSuffix(parsed.overrides);
}

std::string
canonicalSpec(const std::string &spec)
{
    return describeConfig(parseSpec(spec));
}

TageGscPredictor::Config
buildTageGscConfig(const ParsedSpec &parsed)
{
    if (parsed.host != "tage-gsc")
        throw std::invalid_argument("buildTageGscConfig: host is " +
                                    parsed.host);
    TageGscPredictor::Config cfg;
    configureHost(cfg, &cfg, parsed, "TAGE-GSC");
    return cfg;
}

MetaChooserPredictor::Config
buildMetaConfig(const ParsedSpec &parsed)
{
    if (parsed.host != "meta")
        throw std::invalid_argument("buildMetaConfig: host is " +
                                    parsed.host);
    checkMetaOverrideApplies(parsed.overrides);
    MetaChooserPredictor::Config cfg;
    for (const SpecOverride &o : parsed.overrides)
        if (const auto apply = keyForHost(o.key, "meta").applyMeta)
            apply(cfg, o.value);
    cfg.configName = describeConfig(parsed);
    return cfg;
}

GehlPredictor::Config
buildGehlConfig(const ParsedSpec &parsed)
{
    if (parsed.host != "gehl")
        throw std::invalid_argument("buildGehlConfig: host is " +
                                    parsed.host);
    GehlPredictor::Config cfg;
    configureHost(cfg, nullptr, parsed, "GEHL");
    return cfg;
}

namespace
{

std::string
onOff(bool v)
{
    return v ? "on" : "off";
}

/** The CompositeHostConfig slice both hosts share. */
void
describeHostDetail(std::ostream &os, const CompositeHostConfig &cfg)
{
    os << "gsc:      tables=" << cfg.gsc.numTables
       << " logsize=" << cfg.gsc.logEntries
       << " ctrbits=" << cfg.gsc.counterBits
       << " minhist=" << cfg.gsc.minHistory
       << " maxhist=" << cfg.gsc.maxHistory
       << " imli-tables=" << cfg.gsc.imliIndexTables << '\n';
    os << "imli:     sic=" << onOff(cfg.imli.enableSic)
       << " oh=" << onOff(cfg.imli.enableOh)
       << " omli=" << onOff(cfg.imli.enableOmli)
       << " ctrbits=" << cfg.imli.counterBits
       << " oh-delay=" << cfg.imli.ohUpdateDelay << '\n';
    os << "sic:      logsize=" << cfg.imli.sic.logEntries
       << " ctrbits=" << cfg.imli.sic.counterBits
       << " weight=" << cfg.imli.sic.weight << '\n';
    os << "oh:       logsize=" << cfg.imli.oh.logEntries
       << " ctrbits=" << cfg.imli.oh.counterBits
       << " weight=" << cfg.imli.oh.weight << '\n';
    os << "outer:    bits=" << cfg.imli.outer.tableBits
       << " iterlog=" << cfg.imli.outer.iterBitsLog
       << " pipe=" << cfg.imli.outer.pipeEntries << '\n';
    os << "loop:     enabled=" << onOff(cfg.enableLoop)
       << " override=" << onOff(cfg.loopOverride)
       << " logsets=" << cfg.loop.logSets << " ways=" << cfg.loop.ways
       << '\n';
    os << "itl:      enabled=" << onOff(cfg.enableItl)
       << " logsets=" << cfg.itl.logSets << " ways=" << cfg.itl.ways
       << " tables=" << cfg.itl.numTables
       << " logsize=" << cfg.itl.logSize
       << " tagbits=" << cfg.itl.taggedTagBits << '\n';
    os << "wh:       enabled=" << onOff(cfg.enableWh)
       << " entries=" << cfg.wh.numEntries
       << " histbits=" << cfg.wh.historyBits << '\n';
    os << "local:    enabled=" << onOff(cfg.enableLocal)
       << " tables=" << cfg.local.numTables
       << " logsize=" << cfg.local.logEntries << '\n';
}

} // anonymous namespace

std::string
describeConfigDetail(const ParsedSpec &parsed)
{
    std::ostringstream os;
    os << "spec:     " << describeConfig(parsed) << '\n';
    PredictorPtr pred = makePredictor(parsed);
    os << "name:     " << pred->name() << '\n';
    if (parsed.host == "tage-gsc") {
        const TageGscPredictor::Config cfg = buildTageGscConfig(parsed);
        os << "tage:     tables=" << cfg.tage.numTables
           << " logsize=" << cfg.tage.logEntries
           << " minhist=" << cfg.tage.minHistory
           << " maxhist=" << cfg.tage.maxHistory
           << " ctrbits=" << cfg.tage.counterBits
           << " baselog=" << cfg.tage.baseLogEntries << '\n';
        os << "bias:     tables=" << cfg.bias.numTables
           << " logsize=" << cfg.bias.logEntries
           << " ctrbits=" << cfg.bias.counterBits << '\n';
        describeHostDetail(os, cfg);
    } else if (parsed.host == "gehl") {
        describeHostDetail(os, buildGehlConfig(parsed));
    } else if (parsed.host == "meta") {
        const MetaChooserPredictor::Config cfg = buildMetaConfig(parsed);
        os << "meta:     policy="
           << metaPolicyValueName(static_cast<long long>(cfg.policy))
           << " logsize=" << cfg.logEntries
           << " ctrbits=" << cfg.counterBits
           << " countbits=" << cfg.countBits
           << " explore=" << cfg.explore << " wbits=" << cfg.weightBits
           << " theta=" << cfg.theta << '\n';
        for (std::size_t i = 0; i < parsed.subSpecs.size(); ++i)
            os << "sub" << i << ":     " << parsed.subSpecs[i] << '\n';
    }
    const StorageAccount storage = pred->storage();
    os << "storage:  " << storage.totalKbits() << " Kbits ("
       << storage.totalBits() << " bits, " << storage.totalBytes()
       << " bytes)\n";
    return os.str();
}

PredictorPtr
makePredictor(const ParsedSpec &parsed)
{
    if (parsed.host == "bimodal" || parsed.host == "gshare" ||
        parsed.host == "itl") {
        // parseSpec rejects overrides on these hosts; a hand-built
        // ParsedSpec must fail the same way, not silently drop them.
        if (!parsed.overrides.empty())
            throw std::invalid_argument(parsed.host +
                                        " accepts no overrides");
        if (parsed.host == "bimodal")
            return std::make_unique<BimodalPredictor>();
        if (parsed.host == "itl")
            return std::make_unique<IttageLoopStandalone>();
        return std::make_unique<GsharePredictor>();
    }
    if (parsed.host == "tage-gsc")
        return std::make_unique<TageGscPredictor>(buildTageGscConfig(parsed));
    if (parsed.host == "gehl")
        return std::make_unique<GehlPredictor>(buildGehlConfig(parsed));
    if (parsed.host == "meta") {
        std::vector<PredictorPtr> subs;
        subs.reserve(parsed.subSpecs.size());
        for (const std::string &sub : parsed.subSpecs)
            subs.push_back(makePredictor(sub));
        return std::make_unique<MetaChooserPredictor>(
            buildMetaConfig(parsed), std::move(subs));
    }
    throw std::invalid_argument("unknown predictor host: " + parsed.host);
}

PredictorPtr
makePredictor(const std::string &spec)
{
    return makePredictor(parseSpec(spec));
}

std::vector<std::string>
splitSpecList(const std::string &text)
{
    // Split on top-level commas only: commas inside "meta(...)" separate
    // that spec's sub-specs, not entries of this list.  Likewise, only a
    // top-level '@' marks a spec as accepting override continuations —
    // an '@' buried in parentheses belongs to a sub-spec.
    std::vector<std::string> specs;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = findTopLevel(text, ',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string token = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (token.empty())
            continue;
        const bool keyValue =
            findTopLevel(token, '@') == std::string::npos &&
            findTopLevel(token, '=') != std::string::npos;
        if (keyValue) {
            if (specs.empty() ||
                findTopLevel(specs.back(), '@') == std::string::npos)
                throw std::invalid_argument(
                    "config list fragment \"" + token +
                    "\" looks like an override but no preceding spec has "
                    "an '@' section");
            specs.back() += "," + token;
            continue;
        }
        specs.push_back(token);
    }
    return specs;
}

std::vector<std::string>
knownSpecs()
{
    return {
        "bimodal",
        "gshare",
        "itl",
        "tage-gsc",
        "tage-gsc+sic",
        "tage-gsc+oh",
        "tage-gsc+i",
        "tage-gsc+l",
        "tage-gsc+i+l",
        "tage-gsc+loop",
        "tage-gsc+itl",
        "tage-gsc+sic+itl",
        "tage-gsc+wh",
        "tage-gsc+sic+wh",
        "tage-gsc+i+imligsc",
        "tage-gsc+sic+omli",
        "tage-gsc+i+omli",
        "gehl",
        "gehl+sic",
        "gehl+oh",
        "gehl+i",
        "gehl+l",
        "gehl+i+l",
        "gehl+loop",
        "gehl+itl",
        "gehl+wh",
        "gehl+sic+wh",
        "gehl+sic+omli",
        "meta(gshare,bimodal)",
        "meta(tage-gsc,gehl,gshare)",
        "meta(tage-gsc,gehl,gshare)@meta.policy=ucb",
        "meta(tage-gsc,gehl,gshare)@meta.policy=fusion",
    };
}

bool
hasSpecUpdateDelay(const ParsedSpec &parsed)
{
    for (const SpecOverride &o : parsed.overrides)
        if (o.key == "sim.delay")
            return true;
    return false;
}

unsigned
specUpdateDelay(const ParsedSpec &parsed)
{
    for (const SpecOverride &o : parsed.overrides)
        if (o.key == "sim.delay")
            return static_cast<unsigned>(o.value);
    return 0;
}

std::vector<OverrideKeyInfo>
knownOverrideKeys()
{
    std::vector<OverrideKeyInfo> keys;
    keys.reserve(keyTable().size());
    for (const KeyEntry &e : keyTable())
        keys.push_back(e.info);
    return keys;
}

const OverrideKeyInfo *
findOverrideKey(const std::string &key)
{
    const KeyEntry *entry = findKey(key);
    return entry ? &entry->info : nullptr;
}

std::string
metaPolicyValueName(long long value)
{
    switch (static_cast<MetaPolicy>(value)) {
    case MetaPolicy::Tournament:
        return "tournament";
    case MetaPolicy::Ucb:
        return "ucb";
    case MetaPolicy::Fusion:
        return "fusion";
    }
    throw std::invalid_argument("meta.policy value out of range: " +
                                std::to_string(value));
}

long long
metaPolicyValueFromName(const std::string &name)
{
    if (name == "tournament")
        return static_cast<long long>(MetaPolicy::Tournament);
    if (name == "ucb")
        return static_cast<long long>(MetaPolicy::Ucb);
    if (name == "fusion")
        return static_cast<long long>(MetaPolicy::Fusion);
    throw std::invalid_argument(
        "meta.policy must be tournament, ucb or fusion, got \"" + name +
        "\"");
}

} // namespace imli

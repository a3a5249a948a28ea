/**
 * @file
 * Factory for the named predictor configurations used across the paper's
 * experiments, plus the parameterized-spec grammar behind the design-space
 * exploration subsystem (src/dse/).
 *
 * Base spec strings mirror the paper's notation:
 *
 *   "tage-gsc"            base TAGE-GSC (Section 3.2.1)
 *   "tage-gsc+sic"        + IMLI-SIC only (Section 4.2)
 *   "tage-gsc+i"          + IMLI-SIC + IMLI-OH (Section 4.4)
 *   "tage-gsc+l"          + local history components + loop predictor
 *   "tage-gsc+i+l"        both (Table 1 rightmost column)
 *   "tage-gsc+wh"         + wormhole side predictor (Section 3.3)
 *   "tage-gsc+sic+wh"     Section 4.3 intro experiment
 *   "tage-gsc+loop"       + loop predictor only (Sections 2.3.3 / 4.2.2)
 *   "tage-gsc+itl"        + ITTAGE-style tagged loop exit predictor
 *   "gehl", "gehl+i", ... same add-ons on the GEHL host
 *   "bimodal", "gshare"   simple baselines for examples
 *   "itl"                 standalone tagged exit predictor over bimodal
 *
 * Extra spec suffixes (ablations): "+imligsc" hashes the IMLI counter into
 * the last two global SC tables (Section 4.2's index insertion); "+omli"
 * enables the beyond-the-paper outer-iteration (OMLI) extension.
 *
 * Parameter overrides (the design-space grammar) append to any tage-gsc /
 * gehl spec as "spec@key=value,key=value":
 *
 *   "tage-gsc+sic@sic.logsize=10,sic.ctrbits=5"
 *   "gehl@gsc.tables=12,gsc.maxhist=300"
 *
 * Every key names one geometry knob of the underlying Config structs
 * (TAGE table count / log size / history lengths, SC table geometry,
 * SIC/OH/loop/wormhole sizes, counter widths — see knownOverrideKeys()).
 *
 * The meta-chooser host composes any other specs (see meta_chooser.hh):
 *
 *   "meta(tage-gsc,gehl,gshare)"
 *   "meta(tage-gsc+i,gehl@gsc.tables=12)@meta.policy=ucb,meta.logsize=14"
 *
 * Commas inside the parentheses separate sub-specs (and continue a
 * sub-spec's own '@' overrides, exactly like splitSpecList); the '@'
 * section after the closing parenthesis takes the meta.* keys
 * (meta.policy accepts the named values tournament / ucb / fusion and
 * canonicalizes to the name, not a number) plus the run-level sim.*
 * keys.  meta specs cannot nest, and run-level sim.* keys belong after
 * the closing parenthesis, not on a sub-spec.
 * One key is run-level rather than geometry: "sim.delay" selects the
 * speculative pipeline engine's update delay for the point (see
 * specUpdateDelay()), making update timing a sweepable DSE dimension.
 * Parsing is strict: unknown keys, values out of their documented range,
 * non-integer values, keys that do not apply to the chosen host, and
 * keys whose component the spec does not enable (e.g. sic.* without
 * +sic — the override would be silently inert) all throw
 * std::invalid_argument.  describeConfig() echoes the canonical
 * form (sorted, deduplicated keys), so
 * describeConfig(parseSpec(s)) == canonicalSpec(s) for every valid s.
 */

#ifndef IMLI_SRC_PREDICTORS_ZOO_HH
#define IMLI_SRC_PREDICTORS_ZOO_HH

#include <string>
#include <vector>

#include "src/predictors/gehl.hh"
#include "src/predictors/meta_chooser.hh"
#include "src/predictors/predictor.hh"
#include "src/predictors/tage_gsc.hh"

namespace imli
{

/** Parsed add-on set for a host predictor. */
struct ZooOptions
{
    bool imliSic = false;
    bool imliOh = false;
    bool local = false;        //!< local components + loop override
    bool loopOnly = false;     //!< loop predictor override, no local
    bool ittageLoop = false;   //!< ITTAGE-style tagged loop exit predictor
    bool wormhole = false;
    /** Beyond-the-paper OMLI extension (outer-iteration phase table). */
    bool omli = false;
    unsigned imliInGscTables = 0;
    unsigned ohUpdateDelay = 0;
};

/** One "key=value" geometry override from the @-section of a spec. */
struct SpecOverride
{
    std::string key;
    long long value = 0;
};

inline bool
operator==(const SpecOverride &a, const SpecOverride &b)
{
    return a.key == b.key && a.value == b.value;
}

/**
 * A fully parsed spec string: host, add-on set and canonicalized
 * overrides (sorted by key, duplicates resolved last-wins).
 */
struct ParsedSpec
{
    /** "tage-gsc", "gehl", "bimodal", "gshare", "itl" or "meta". */
    std::string host;
    ZooOptions opts;
    std::vector<SpecOverride> overrides;
    /**
     * For host == "meta": the canonicalized sub-spec strings, in
     * declaration order (order is semantic — it is the arm index of the
     * chooser's tables and the tie-break preference).  Empty otherwise.
     */
    std::vector<std::string> subSpecs;
};

/** One override key of the design-space grammar, with its legal range. */
struct OverrideKeyInfo
{
    std::string key;
    long long minValue = 0;
    long long maxValue = 0;
    bool powerOfTwo = false;   //!< value must be a power of two
    bool tageGscOnly = false;  //!< key only applies to the tage-gsc host
    std::string doc;           //!< one-line description for CLI help
    bool metaOnly = false;     //!< key only applies to the meta host
};

/**
 * Parse a spec string "host[+addon...][@key=value,...]" (see file
 * header).  Throws std::invalid_argument on any grammar, key, range or
 * host-applicability error; the message names the offending token.
 */
ParsedSpec parseSpec(const std::string &spec);

/**
 * Canonical spec string for @p parsed: host, add-ons in canonical order,
 * then "@" and the overrides sorted by key.  This is the round-trip echo:
 * describeConfig(parseSpec(s)) == canonicalSpec(s) for every valid s.
 */
std::string describeConfig(const ParsedSpec &parsed);

/** Parse-then-echo convenience: the canonical form of @p spec. */
std::string canonicalSpec(const std::string &spec);

/**
 * Multi-line human-readable echo of the fully resolved configuration:
 * every geometry parameter after overrides, plus the storage total.
 * Used by `explorer describe`.
 */
std::string describeConfigDetail(const ParsedSpec &parsed);

/**
 * Resolve @p parsed into the host Config struct with every override
 * applied.  Exposed so tests and the describe surface can audit the
 * plumbing; throws std::invalid_argument when @p parsed is not for the
 * matching host or a cross-parameter constraint breaks (e.g.
 * tage.minhist >= tage.maxhist).
 */
TageGscPredictor::Config buildTageGscConfig(const ParsedSpec &parsed);
GehlPredictor::Config buildGehlConfig(const ParsedSpec &parsed);
MetaChooserPredictor::Config buildMetaConfig(const ParsedSpec &parsed);

/** Build a TAGE-GSC configuration. */
PredictorPtr makeTageGsc(const ZooOptions &opts = ZooOptions());

/** Build a GEHL configuration. */
PredictorPtr makeGehl(const ZooOptions &opts = ZooOptions());

/**
 * Build any predictor from a spec string (see file header).  Throws
 * std::invalid_argument on unknown specs.
 */
PredictorPtr makePredictor(const std::string &spec);

/** Build a predictor from an already parsed spec. */
PredictorPtr makePredictor(const ParsedSpec &parsed);

/**
 * Split a comma-separated list of spec strings, keeping override commas
 * bound to their spec: a fragment of the form "key=value" that follows a
 * spec with a top-level '@' section continues that spec's overrides
 * instead of starting a new spec, so "--configs a@x=1,y=2,b" is the two
 * specs {"a@x=1,y=2", "b"}.  Commas inside parentheses never split —
 * "meta(a,b)@meta.logsize=14,c" is the two specs
 * {"meta(a,b)@meta.logsize=14", "c"} — and an '@' inside parentheses
 * (a sub-spec's overrides) does not count as the spec's own '@'
 * section.  A "key=value" fragment with no preceding top-level-'@' spec
 * throws std::invalid_argument.  Empty fragments are skipped.
 */
std::vector<std::string> splitSpecList(const std::string &text);

/** All base spec strings makePredictor accepts, for CLI help and tests. */
std::vector<std::string> knownSpecs();

/**
 * True when @p parsed carries a "sim.delay" override at all.  Presence
 * matters independently of the value: an explicit sim.delay=0 pins the
 * config to the pipeline engine at depth 0 even when the run-level
 * options select a deeper delay — the spec label must never lie about
 * the numbers next to it.
 */
bool hasSpecUpdateDelay(const ParsedSpec &parsed);

/**
 * The "sim.delay" override of @p parsed (0 when absent): the speculative
 * pipeline engine's update delay for this config point.  A run-level key,
 * not predictor geometry — makePredictor() ignores it, the simulation
 * drivers (suite runner, DSE sweep) honour it per point, and because it
 * is part of the canonical spec string, sweep journals and Pareto
 * reports distinguish delay points like any other dimension.
 */
unsigned specUpdateDelay(const ParsedSpec &parsed);

/** Every override key of the design-space grammar, sorted by key. */
std::vector<OverrideKeyInfo> knownOverrideKeys();

/**
 * Canonical name of a meta.policy override value ("tournament", "ucb"
 * or "fusion").  The value travels in SpecOverride.value as the Policy
 * enum's integer but always reads and echoes as the name — in spec
 * strings, sweep journals and report tables alike.  Throws on a value
 * outside the enum.
 */
std::string metaPolicyValueName(long long value);

/** Parse a meta.policy name into its SpecOverride value; throws. */
long long metaPolicyValueFromName(const std::string &name);

} // namespace imli

#endif // IMLI_SRC_PREDICTORS_ZOO_HH

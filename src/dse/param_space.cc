#include "src/dse/param_space.hh"

#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "src/predictors/zoo.hh"
#include "src/util/cli.hh"
#include "src/util/hashing.hh"
#include "src/util/rng.hh"

namespace imli
{

namespace
{

long long
parseDimensionInt(const std::string &text, const std::string &dim)
{
    return parseDecimalLLStrict(text, "dimension " + dim);
}

void
checkDimensionRange(long long v, const OverrideKeyInfo &info)
{
    if (v < info.minValue || v > info.maxValue)
        throw std::invalid_argument(
            "dimension " + info.key + ": value " + std::to_string(v) +
            " is out of range [" + std::to_string(info.minValue) + ", " +
            std::to_string(info.maxValue) + "]");
}

/**
 * Expand one value token: "7", "4..9" or "4..16..4".  Range endpoints
 * are bounds-checked against the key's documented range BEFORE the
 * expansion loop, so "8..99999999999" throws instead of materializing
 * billions of values.  Power-of-two keys (outer.bits, outer.pipe) step
 * ranges through the powers of two — "64..1024" means 64,128,...,1024 —
 * since every intermediate integer would be rejected anyway.
 */
void
appendValues(std::vector<long long> &out, const std::string &token,
             const OverrideKeyInfo &info)
{
    const std::string &dim = info.key;
    const auto dots = token.find("..");
    if (dots == std::string::npos) {
        const long long v = parseDimensionInt(token, dim);
        checkDimensionRange(v, info);
        if (info.powerOfTwo && !isPowerOfTwo(v))
            throw std::invalid_argument("dimension " + dim + ": value " +
                                        std::to_string(v) +
                                        " must be a power of two");
        out.push_back(v);
        return;
    }
    const std::string lo_text = token.substr(0, dots);
    std::string hi_text = token.substr(dots + 2);
    long long step = 1;
    const auto dots2 = hi_text.find("..");
    if (dots2 != std::string::npos) {
        if (info.powerOfTwo)
            throw std::invalid_argument(
                "dimension " + dim + ": power-of-two keys take a plain "
                "range (lo..hi steps through the powers of two)");
        step = parseDimensionInt(hi_text.substr(dots2 + 2), dim);
        hi_text = hi_text.substr(0, dots2);
        if (step < 1)
            throw std::invalid_argument("dimension " + dim +
                                        ": range step must be >= 1");
    }
    const long long lo = parseDimensionInt(lo_text, dim);
    const long long hi = parseDimensionInt(hi_text, dim);
    if (lo > hi)
        throw std::invalid_argument("dimension " + dim + ": range " + token +
                                    " is descending");
    checkDimensionRange(lo, info);
    checkDimensionRange(hi, info);
    if (info.powerOfTwo) {
        if (!isPowerOfTwo(lo) || !isPowerOfTwo(hi))
            throw std::invalid_argument(
                "dimension " + dim + ": range endpoints " + token +
                " must be powers of two");
        for (long long v = lo; v <= hi; v *= 2)
            out.push_back(v);
        return;
    }
    for (long long v = lo; v <= hi; v += step) {
        out.push_back(v);
        // `hi - step` cannot underflow (0 <= hi <= 65536, 1 <= step <=
        // LLONG_MAX); `v += step` CAN overflow for a huge step, so stop
        // before the increment would pass hi.
        if (v > hi - step)
            break;
    }
}

/**
 * Compose base + per-dimension assignments into one canonical point.
 * The assignments continue the base's own (top-level) '@' section when
 * it has one; an '@' inside meta(...) belongs to a sub-spec.
 * canonicalSpec runs the full zoo validation (ranges, host
 * applicability, cross-parameter constraints) on the composed string.
 */
std::string
composePoint(const std::string &base,
             const std::vector<ParamDimension> &dims,
             const std::vector<std::size_t> &pick)
{
    std::string s = base;
    char sep = findTopLevel(base, '@') == std::string::npos ? '@' : ',';
    for (std::size_t d = 0; d < dims.size(); ++d) {
        const long long v = dims[d].values[pick[d]];
        s += sep + dims[d].key + "=";
        s += dims[d].key == "meta.policy" ? metaPolicyValueName(v)
                                          : std::to_string(v);
        sep = ',';
    }
    return canonicalSpec(s);
}

void
checkDimensions(const std::vector<ParamDimension> &dims)
{
    std::set<std::string> seen;
    for (const ParamDimension &d : dims) {
        if (d.values.empty())
            throw std::invalid_argument("dimension " + d.key +
                                        " has no values");
        if (!seen.insert(d.key).second)
            throw std::invalid_argument("duplicate dimension key: " + d.key);
    }
}

} // anonymous namespace

ParamDimension
parseDimension(const std::string &text)
{
    const auto eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        throw std::invalid_argument("dimension \"" + text +
                                    "\" is not of the form key=v1,v2,...");
    ParamDimension dim;
    dim.key = text.substr(0, eq);
    const OverrideKeyInfo *info = findOverrideKey(dim.key);
    if (!info)
        throw std::invalid_argument("unknown override key in dimension: " +
                                    dim.key);

    std::string token;
    std::istringstream is(text.substr(eq + 1));
    while (std::getline(is, token, ',')) {
        if (token.empty())
            throw std::invalid_argument("dimension " + dim.key +
                                        " has an empty value token");
        // meta.policy sweeps over the named values, e.g.
        // "meta.policy=tournament,ucb,fusion" — no numeric ranges.
        if (dim.key == "meta.policy")
            dim.values.push_back(metaPolicyValueFromName(token));
        else
            appendValues(dim.values, token, *info);
    }
    if (dim.values.empty())
        throw std::invalid_argument("dimension " + dim.key +
                                    " has no values");
    // Duplicates (a repeated token or overlapping ranges) would expand
    // into duplicate grid points; name the value here rather than fail
    // later with runSweep's generic duplicate-point error.
    std::set<long long> seen;
    for (long long v : dim.values)
        if (!seen.insert(v).second)
            throw std::invalid_argument("dimension " + dim.key +
                                        ": duplicate value " +
                                        std::to_string(v));
    return dim;
}

std::size_t
ParamSpace::gridSize() const
{
    std::size_t n = 1;
    for (const ParamDimension &d : dimensions) {
        if (d.values.empty())
            continue;
        if (n > std::numeric_limits<std::size_t>::max() / d.values.size())
            return std::numeric_limits<std::size_t>::max();
        n *= d.values.size();
    }
    return n;
}

std::vector<std::string>
ParamSpace::expandGrid() const
{
    checkDimensions(dimensions);
    if (gridSize() > maxGridPoints)
        throw std::invalid_argument(
            "parameter grid has " +
            (gridSize() == std::numeric_limits<std::size_t>::max()
                 ? std::string("more than " +
                               std::to_string(maxGridPoints))
                 : std::to_string(gridSize())) +
            " points (limit " + std::to_string(maxGridPoints) +
            "); use --sample or fewer/shorter dimensions");
    std::vector<std::string> points;
    points.reserve(gridSize());
    std::vector<std::size_t> pick(dimensions.size(), 0);
    while (true) {
        points.push_back(composePoint(baseSpec, dimensions, pick));
        // Odometer increment, last dimension fastest (row-major order).
        std::size_t d = dimensions.size();
        while (d > 0) {
            --d;
            if (++pick[d] < dimensions[d].values.size())
                break;
            pick[d] = 0;
            if (d == 0)
                return points;
        }
        if (dimensions.empty())
            return points;
    }
}

std::vector<std::string>
ParamSpace::sampleRandom(std::size_t count, std::uint64_t seed) const
{
    checkDimensions(dimensions);
    std::vector<std::string> points;
    std::set<std::string> seen;
    Xoroshiro128 rng(seed);
    // Bounded re-draw: a small space stops growing once exhausted.
    const std::size_t attempts = count * 16 + 16;
    std::vector<std::size_t> pick(dimensions.size(), 0);
    for (std::size_t a = 0; a < attempts && points.size() < count; ++a) {
        for (std::size_t d = 0; d < dimensions.size(); ++d)
            pick[d] = static_cast<std::size_t>(
                rng.below(dimensions[d].values.size()));
        std::string point = composePoint(baseSpec, dimensions, pick);
        if (seen.insert(point).second)
            points.push_back(std::move(point));
    }
    return points;
}

} // namespace imli

#include "src/util/cli.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/util/thread_pool.hh"

namespace imli
{

namespace
{

/**
 * True when a lookahead argument starting with '-' is a negative number
 * ("-0.3", "-12") rather than the next flag.  "-" alone (the stdin
 * convention) and "--x" are not values.
 */
bool
looksNumeric(const std::string &arg)
{
    if (arg.size() < 2 || arg[0] != '-')
        return false;
    return std::isdigit(static_cast<unsigned char>(arg[1])) != 0 ||
           arg[1] == '.';
}

} // anonymous namespace

std::vector<std::string>
splitCommaList(const std::string &csv)
{
    std::vector<std::string> out;
    std::string token;
    std::istringstream is(csv);
    while (std::getline(is, token, ','))
        if (!token.empty())
            out.push_back(token);
    return out;
}

bool
parseDecimalU64(const std::string &text, std::uint64_t &value)
{
    const bool digits_only =
        !text.empty() &&
        text.find_first_not_of("0123456789") == std::string::npos;
    if (!digits_only)
        return false;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE)
        return false;
    value = static_cast<std::uint64_t>(v);
    return true;
}

bool
parseDecimalLL(const std::string &text, long long &value)
{
    std::uint64_t v = 0;
    if (!parseDecimalU64(text, v) ||
        v > std::uint64_t(std::numeric_limits<long long>::max()))
        return false;
    value = static_cast<long long>(v);
    return true;
}

long long
parseDecimalLLStrict(const std::string &text, const std::string &what)
{
    long long v = 0;
    if (!parseDecimalLL(text, v))
        throw std::invalid_argument(what + ": value \"" + text +
                                    "\" is not a plain decimal integer "
                                    "in range");
    return v;
}

CommandLine::CommandLine(int argc, const char *const *argv)
{
    if (argc > 0)
        program = argv[0];
    bool flags_ended = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (flags_ended) {
            positional.push_back(arg);
            continue;
        }
        if (arg == "--") {
            // Conventional separator: everything after is positional.
            flags_ended = true;
            continue;
        }
        if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
            positional.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            flags[body.substr(0, eq)] = body.substr(eq + 1);
            occurrences.emplace_back(body.substr(0, eq), body.substr(eq + 1));
        } else if (i + 1 < argc &&
                   (argv[i + 1][0] != '-' || looksNumeric(argv[i + 1]))) {
            flags[body] = argv[i + 1];
            occurrences.emplace_back(body, argv[i + 1]);
            ++i;
        } else {
            flags[body] = "";
            occurrences.emplace_back(body, "");
        }
    }
}

bool
CommandLine::has(const std::string &name) const
{
    readNames.insert(name);
    return flags.count(name) != 0;
}

std::string
CommandLine::getString(const std::string &name, const std::string &def) const
{
    readNames.insert(name);
    auto it = flags.find(name);
    return it == flags.end() ? def : it->second;
}

std::vector<std::string>
CommandLine::getList(const std::string &name) const
{
    readNames.insert(name);
    std::vector<std::string> values;
    for (const auto &occurrence : occurrences)
        if (occurrence.first == name)
            values.push_back(occurrence.second);
    return values;
}

std::int64_t
CommandLine::getInt(const std::string &name, std::int64_t def) const
{
    readNames.insert(name);
    auto it = flags.find(name);
    if (it == flags.end())
        return def;
    errno = 0;
    char *end = nullptr;
    const std::int64_t v = std::strtoll(it->second.c_str(), &end, 0);
    if (it->second.empty() || !end || *end != '\0')
        throw std::runtime_error(
            "--" + name + ": invalid integer \"" + it->second + "\"");
    // strtoll clamps on overflow with *end == '\0': ERANGE is the only
    // sign the value was not what the user typed.
    if (errno == ERANGE)
        throw std::runtime_error(
            "--" + name + ": integer \"" + it->second + "\" is out of range");
    return v;
}

double
CommandLine::getDouble(const std::string &name, double def) const
{
    readNames.insert(name);
    auto it = flags.find(name);
    if (it == flags.end())
        return def;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (it->second.empty() || !end || *end != '\0')
        throw std::runtime_error(
            "--" + name + ": invalid number \"" + it->second + "\"");
    // Overflow saturates to +-HUGE_VAL with a clean end pointer; reject
    // it (harmless underflow-to-subnormal is allowed through).
    if (errno == ERANGE && std::abs(v) == HUGE_VAL)
        throw std::runtime_error(
            "--" + name + ": number \"" + it->second + "\" is out of range");
    return v;
}

std::size_t
CommandLine::getCount(const std::string &name, std::size_t def) const
{
    if (!has(name))
        return def;
    const std::int64_t v = getInt(name);
    if (v < 0)
        throw std::runtime_error(
            "--" + name + ": expected a non-negative count, got \"" +
            getString(name) + "\"");
    return static_cast<std::size_t>(v);
}

void
CommandLine::rejectValuedBool(const std::string &name) const
{
    if (!has(name))
        return;
    const std::string v = getString(name);
    // Recognized boolean spellings (getBool's, plus explicit negatives)
    // pass through; anything else is a swallowed path or typo.
    if (v.empty() || v == "true" || v == "1" || v == "yes" ||
        v == "false" || v == "0" || v == "no")
        return;
    throw std::runtime_error(
        "--" + name + " is a boolean switch and takes no value (got \"" +
        v + "\")");
}

bool
CommandLine::getBool(const std::string &name, bool def) const
{
    readNames.insert(name);
    auto it = flags.find(name);
    if (it == flags.end())
        return def;
    const std::string &v = it->second;
    if (v.empty() || v == "true" || v == "1" || v == "yes")
        return true;
    return false;
}

unsigned
CommandLine::getJobs(unsigned def, const std::string &name) const
{
    readNames.insert(name);
    auto it = flags.find(name);
    if (it == flags.end())
        return def;
    return ThreadPool::parseJobs(it->second, def);
}

void
CommandLine::rejectUnreadFlags() const
{
    for (const auto &flag : flags)
        if (readNames.count(flag.first) == 0)
            throw std::runtime_error("unknown flag --" + flag.first);
}

} // namespace imli

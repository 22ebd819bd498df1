/**
 * @file
 * The one command-line parser: each binary declares its flags in a
 * table, and the table parses, validates and generates --help. A leaf
 * module: it includes nothing else from src/, so any layer may use
 * it.
 *
 * - A flag is a name ("--jobs"), an optional short alias ("-j"), a
 *   metavariable ("N"; empty for a switch), a help text and a typed
 *   setter. The setters below validate the whole value.
 * - A repeated single-valued flag keeps its last value.
 * - "--" ends the flags. A table may take positionals.
 * - --help and -h print the generated usage and exit 0. Every error
 *   prints "<prog>: <what>" and exits 2.
 */

#ifndef DREAM_UTIL_FLAGS_H
#define DREAM_UTIL_FLAGS_H

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dream {
namespace flags {

/** A bad command line; Table::parse(argc, argv) exits 2 on it. */
struct Error : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/**
 * Applies one occurrence of a flag, throwing Error on a bad value.
 * A switch's setter is called with an empty value.
 */
using Setter = std::function<void(const std::string& value)>;

/** @p text as an integer in [lo, hi]: digits only, no sign. */
uint64_t parseUint(const std::string& text, uint64_t lo, uint64_t hi);
/** @p text as a finite double in [lo, hi], the whole text. */
double parseReal(const std::string& text, double lo, double hi);

/** Any string, the empty one included. */
Setter text(std::string* out);
/** A non-empty string. */
Setter nonEmpty(std::string* out);
/** A switch: stores true. */
Setter set(bool* out);
/** A finite double in [lo, hi]. */
Setter real(double* out, double lo, double hi = HUGE_VAL);
/** A finite double > 0. */
Setter positive(double* out);
/** Every occurrence, in order. */
Setter append(std::vector<std::string>* out);

/** An integer in [lo, hi] (see parseUint). */
template <class Int>
Setter
integer(Int* out, uint64_t lo = 0,
        uint64_t hi = std::numeric_limits<Int>::max())
{
    return [=](const std::string& v) { *out = Int(parseUint(v, lo, hi)); };
}

/** One of the (name, value) pairs @p names, by name. */
template <class Out, class T>
Setter
choice(Out* out, std::vector<std::pair<std::string, T>> names)
{
    return [=](const std::string& v) {
        std::string want;
        for (const auto& [name, value] : names) {
            if (name == v) {
                *out = value;
                return;
            }
            want += (want.empty() ? "" : " | ") + name;
        }
        throw Error("want one of " + want);
    };
}

/** (name, value) pairs of @p values, named by @p name_of. */
template <class T, class NameOf>
std::vector<std::pair<std::string, T>>
namesOf(const std::vector<T>& values, NameOf name_of)
{
    std::vector<std::pair<std::string, T>> out;
    for (const T& v : values)
        out.emplace_back(name_of(v), v);
    return out;
}

/** One row of a table. */
struct Flag {
    std::string name;    ///< "--jobs"
    std::string alias;   ///< "-j", or empty
    std::string metavar; ///< "N"; empty for a switch
    std::string help;    ///< may span lines ('\n')
    Setter set;
};

/** One binary's command line. */
class Table {
public:
    /** @p epilog follows the flag list in --help. */
    explicit Table(std::string epilog = {}) : epilog_(std::move(epilog))
    {}

    /**
     * Register @p flag, after every flag added before it in --help.
     * @throws std::logic_error when its name or alias is taken.
     */
    Table& add(Flag flag);

    /**
     * Collect positional arguments into @p out: between @p min and
     * @p max of them. @p metavar names them in the usage line.
     */
    Table& positionals(std::string metavar, std::vector<std::string>* out,
                       size_t min, size_t max = SIZE_MAX);

    /**
     * Run @p step after every argument is applied: checks across
     * flags, and defaults that depend on several of them. It may
     * throw Error.
     */
    Table& check(std::function<void()> step);

    /**
     * Apply @p args (argv without the program name), then the check
     * steps. Returns false, applying nothing after it, at --help or
     * -h. @throws Error on a bad command line.
     */
    bool parse(const std::vector<std::string>& args);

    /**
     * parse() argv. At --help, print usage() and exit 0; on an Error,
     * print "<prog>: <what>" to stderr and exit 2.
     */
    void parse(int argc, char** argv);

    /** The generated --help text for program @p prog. */
    std::string usage(const std::string& prog) const;

private:
    const Flag* find(const std::string& arg) const;

    std::vector<Flag> flags_;
    std::vector<std::function<void()>> checks_;
    std::string epilog_;
    std::string posMetavar_;
    std::vector<std::string>* positionals_ = nullptr;
    size_t posMin_ = 0;
    size_t posMax_ = 0;
};

} // namespace flags
} // namespace dream

#endif // DREAM_UTIL_FLAGS_H

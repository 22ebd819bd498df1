#include "util/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

namespace dream {
namespace flags {

uint64_t
parseUint(const std::string& text, uint64_t lo, uint64_t hi)
{
    // Digits only: strtoull would take a sign, whitespace or a
    // fraction's integer part, and saturate on overflow.
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        errno == ERANGE || v < lo || v > hi)
        throw Error("want an integer in [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
    return v;
}

namespace {

/** @p text, the whole of it, as a finite double into @p out. */
bool
finiteReal(const std::string& text, double* out)
{
    char* end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return !text.empty() && end == text.c_str() + text.size() &&
           std::isfinite(*out);
}

} // anonymous namespace

double
parseReal(const std::string& text, double lo, double hi)
{
    double v = 0.0;
    if (!finiteReal(text, &v) || v < lo || v > hi) {
        char want[96];
        std::snprintf(want, sizeof want,
                      "want a finite number in [%g, %g]", lo, hi);
        throw Error(want);
    }
    return v;
}

Setter
text(std::string* out)
{
    return [out](const std::string& v) { *out = v; };
}

Setter
nonEmpty(std::string* out)
{
    return [out](const std::string& v) {
        if (v.empty())
            throw Error("want a non-empty value");
        *out = v;
    };
}

Setter
set(bool* out)
{
    return [out](const std::string&) { *out = true; };
}

Setter
real(double* out, double lo, double hi)
{
    return [=](const std::string& v) { *out = parseReal(v, lo, hi); };
}

Setter
positive(double* out)
{
    return [out](const std::string& v) {
        double x = 0.0;
        if (!finiteReal(v, &x) || x <= 0.0)
            throw Error("want a positive finite number");
        *out = x;
    };
}

Setter
append(std::vector<std::string>* out)
{
    return [out](const std::string& v) { out->push_back(v); };
}

Table&
Table::add(Flag flag)
{
    for (const std::string* key : {&flag.name, &flag.alias}) {
        if (!key->empty() && (find(*key) || *key == "--help" ||
                              *key == "-h" || *key == "--"))
            throw std::logic_error("flag " + *key +
                                   " registered twice");
    }
    flags_.push_back(std::move(flag));
    return *this;
}

Table&
Table::positionals(std::string metavar, std::vector<std::string>* out,
                   size_t min, size_t max)
{
    posMetavar_ = std::move(metavar);
    positionals_ = out;
    posMin_ = min;
    posMax_ = max;
    return *this;
}

Table&
Table::check(std::function<void()> step)
{
    checks_.push_back(std::move(step));
    return *this;
}

const Flag*
Table::find(const std::string& arg) const
{
    for (const Flag& f : flags_) {
        if (arg == f.name || (!f.alias.empty() && arg == f.alias))
            return &f;
    }
    return nullptr;
}

bool
Table::parse(const std::vector<std::string>& args)
{
    std::vector<std::string> loose;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (arg == "--help" || arg == "-h")
            return false;
        if (arg == "--") {
            loose.insert(loose.end(), args.begin() + long(i) + 1,
                         args.end());
            break;
        }
        if (arg.size() < 2 || arg[0] != '-') {
            loose.push_back(arg);
            continue;
        }
        const Flag* flag = find(arg);
        if (!flag)
            throw Error("unknown flag '" + arg + "'");
        if (flag->metavar.empty()) {
            flag->set("");
            continue;
        }
        if (i + 1 == args.size())
            throw Error(arg + " needs a value (" + flag->metavar + ")");
        const std::string& value = args[++i];
        try {
            flag->set(value);
        } catch (const Error& e) {
            throw Error("invalid " + flag->name + " value '" + value +
                        "': " + e.what());
        }
    }
    if (!positionals_ && !loose.empty())
        throw Error("unexpected argument '" + loose.front() + "'");
    if (positionals_) {
        if (loose.size() < posMin_)
            throw Error("missing " + posMetavar_);
        if (loose.size() > posMax_)
            throw Error("unexpected argument '" + loose[posMax_] + "'");
        *positionals_ = std::move(loose);
    }
    for (const auto& step : checks_)
        step();
    return true;
}

void
Table::parse(int argc, char** argv)
{
    const std::string prog =
        std::filesystem::path(argv[0]).filename().string();
    try {
        if (parse(std::vector<std::string>(argv + 1, argv + argc)))
            return;
        std::fputs(usage(prog).c_str(), stdout);
        std::exit(0);
    } catch (const Error& e) {
        std::fprintf(stderr, "%s: %s\n", prog.c_str(), e.what());
        std::exit(2);
    }
}

std::string
Table::usage(const std::string& prog) const
{
    std::string out = "usage: " + prog + " [options]";
    if (!posMetavar_.empty())
        out += ' ' + posMetavar_;
    out += "\noptions:\n";
    // Help text starts in column 24; a longer left column puts it on
    // the next line.
    const std::string indent(24, ' ');
    const auto row = [&](std::string left, const std::string& help) {
        left = "  " + left;
        out += left.size() < indent.size() - 1
                   ? left + std::string(indent.size() - left.size(), ' ')
                   : left + '\n' + indent;
        for (const char c : help)
            out += c == '\n' ? '\n' + indent : std::string(1, c);
        out += '\n';
    };
    for (const Flag& f : flags_) {
        row((f.alias.empty() ? "" : f.alias + ", ") + f.name +
                (f.metavar.empty() ? "" : ' ' + f.metavar),
            f.help);
    }
    row("-h, --help", "print this help and exit");
    if (!epilog_.empty())
        out += epilog_ + '\n';
    return out;
}

} // namespace flags
} // namespace dream

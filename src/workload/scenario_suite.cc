#include "workload/scenario_suite.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <stdexcept>

#include "hw/system.h"
#include "util/flags.h"
#include "util/json.h"

namespace dream {
namespace workload {

namespace {

// ------------------------------------- spec <-> JSON field table

struct SpecField {
    const char* key;
    double ScenarioGenSpec::* value;
};

/** Every numeric spec knob, in canonical (serialisation) order. */
const SpecField kSpecFields[] = {
    {"min_fps", &ScenarioGenSpec::minFps},
    {"max_fps", &ScenarioGenSpec::maxFps},
    {"chain_prob", &ScenarioGenSpec::chainProb},
    {"min_trigger_prob", &ScenarioGenSpec::minTriggerProb},
    {"max_trigger_prob", &ScenarioGenSpec::maxTriggerProb},
    {"activation_prob", &ScenarioGenSpec::activationProb},
    {"horizon_us", &ScenarioGenSpec::horizonUs},
    {"skip_prob_min", &ScenarioGenSpec::skipProbMin},
    {"skip_prob_max", &ScenarioGenSpec::skipProbMax},
    {"exit_prob_min", &ScenarioGenSpec::exitProbMin},
    {"exit_prob_max", &ScenarioGenSpec::exitProbMax},
    {"supernet_prob", &ScenarioGenSpec::supernetProb},
    {"target_load", &ScenarioGenSpec::targetLoad},
};

using json::Value;
using Kind = json::Value::Kind;

uint64_t
parseU64(const json::Document& doc, const Value& v,
         const std::string& what)
{
    try {
        if (v.kind == Kind::Number)
            return flags::parseUint(v.text, 0,
                                    std::numeric_limits<uint64_t>::max());
    } catch (const flags::Error&) {
    }
    doc.fail(v, what + " must be a non-negative 64-bit integer");
}

/** A finite number: nan/inf parse as JSON numbers, so reject here. */
double
parseNumber(const json::Document& doc, const Value& v,
            const std::string& what)
{
    if (v.kind != Kind::Number || !std::isfinite(v.number()))
        doc.fail(v, what + " must be a finite number");
    return v.number();
}

ScenarioGenSpec
parseSpec(const json::Document& doc, const Value& v,
          const std::string& tag)
{
    if (v.kind != Kind::Object)
        doc.fail(v, tag + "spec must be an object");
    ScenarioGenSpec spec;
    for (const auto& [key, value] : v.members) {
        if (key == "min_tasks" || key == "max_tasks") {
            const uint64_t n = parseU64(doc, value, tag + key);
            if (n > uint64_t(std::numeric_limits<int>::max()))
                doc.fail(value, tag + key + " is out of range");
            (key == "min_tasks" ? spec.minTasks : spec.maxTasks) = int(n);
        } else if (key == "load_system") {
            if (value.kind != Kind::String)
                doc.fail(value, tag + "load_system must be a string");
            spec.loadSystem = value.text;
        } else {
            const auto field = std::find_if(
                std::begin(kSpecFields), std::end(kSpecFields),
                [&](const SpecField& f) { return key == f.key; });
            if (field == std::end(kSpecFields))
                doc.fail(value,
                         tag + "unknown spec field '" + key + "'");
            spec.*field->value = parseNumber(doc, value, tag + key);
        }
    }
    return spec;
}

void
writeSpec(const ScenarioGenSpec& spec, std::ostream& out,
          const std::string& indent)
{
    out << "{\n";
    out << indent << "  \"min_tasks\": " << spec.minTasks << ",\n";
    out << indent << "  \"max_tasks\": " << spec.maxTasks << ",\n";
    for (const auto& field : kSpecFields) {
        out << indent << "  \"" << field.key
            << "\": " << json::preciseDouble(spec.*field.value) << ",\n";
    }
    out << indent
        << "  \"load_system\": " << json::quote(spec.loadSystem)
        << "\n";
    out << indent << "}";
}

HardScenarioEntry
parseEntry(const json::Document& doc, const Value& v,
           const std::string& tag)
{
    if (v.kind != Kind::Object)
        doc.fail(v, tag + "entry must be an object");
    HardScenarioEntry entry;
    for (const auto& [key, value] : v.members) {
        if (key == "name") {
            if (value.kind != Kind::String || value.text.empty())
                doc.fail(value,
                         tag + "name must be a non-empty string");
            entry.name = value.text;
        } else if (key == "gen_seed") {
            entry.genSeed = parseU64(doc, value, tag + key);
        } else if (key == "spec") {
            entry.spec = parseSpec(doc, value, tag);
        } else if (key == "expected") {
            if (value.kind != Kind::Object)
                doc.fail(value, tag + "expected must be an object");
            for (const auto& [sched, ux] : value.members) {
                entry.expected.emplace_back(
                    sched,
                    parseNumber(doc, ux, tag + "expected." + sched));
            }
        } else {
            doc.fail(value, tag + "unknown entry field '" + key + "'");
        }
    }
    if (entry.name.empty())
        doc.fail(v, tag + "entry has no name");
    if (!v.find("gen_seed"))
        doc.fail(v, tag + "entry has no gen_seed");
    return entry;
}

} // anonymous namespace

std::string
serializeGenSpec(const ScenarioGenSpec& spec)
{
    std::string out = "minTasks=" + std::to_string(spec.minTasks) +
                      ",maxTasks=" + std::to_string(spec.maxTasks);
    for (const auto& field : kSpecFields) {
        out += ',';
        out += field.key;
        out += '=';
        out += json::preciseDouble(spec.*field.value);
    }
    out += ",load_system=" + spec.loadSystem;
    return out;
}

HardScenarioSuite
loadHardScenarioSuite(std::istream& in, const std::string& context)
{
    const json::Document doc(in, context);
    const Value& root = doc.root();
    if (root.kind != Kind::Object)
        doc.fail(root, "top level must be an object");

    const Value& schema = doc.member(root, "schema", Kind::String);
    if (schema.text != kHardSuiteSchemaV1)
        doc.fail(schema, "unsupported schema '" + schema.text +
                             "' (want " +
                             std::string(kHardSuiteSchemaV1) + ")");

    HardScenarioSuite suite;
    const Value& system = doc.member(root, "system", Kind::String);
    suite.system = system.text;
    if (!hw::parseSystemPreset(suite.system, nullptr))
        doc.fail(system,
                 "unknown system preset '" + suite.system + "'");

    const Value& window = doc.member(root, "window_us", Kind::Number);
    suite.windowUs = parseNumber(doc, window, "window_us");
    if (!(suite.windowUs > 0.0))
        doc.fail(window, "window_us must be > 0");

    const Value& seeds = doc.member(root, "seeds", Kind::Array);
    if (seeds.items.empty())
        doc.fail(seeds, "empty \"seeds\" array");
    suite.seeds.clear();
    for (const auto& s : seeds.items)
        suite.seeds.push_back(parseU64(doc, s, "seeds[]"));

    const Value& entries = doc.member(root, "entries", Kind::Array);
    if (entries.items.empty())
        doc.fail(entries, "empty \"entries\" array");
    for (const auto& [key, value] : root.members) {
        if (key != "schema" && key != "system" && key != "window_us" &&
            key != "seeds" && key != "entries")
            doc.fail(value, "unknown suite field '" + key + "'");
    }

    std::set<std::string> names;
    for (size_t i = 0; i < entries.items.size(); ++i) {
        const Value& item = entries.items[i];
        const std::string tag = "entry[" + std::to_string(i) + "]: ";
        HardScenarioEntry entry = parseEntry(doc, item, tag);
        const auto entry_fail = [&](const std::string& why) {
            doc.fail(item, tag + "('" + entry.name + "') " + why);
        };
        if (!names.insert(entry.name).second)
            doc.fail(item,
                     tag + "duplicate entry name '" + entry.name + "'");
        // Every entry runs the full validation gauntlet: the spec
        // knobs first (half-set ranges, unknown loadSystem), then the
        // scenario the (spec, genSeed) pair actually generates.
        std::string why;
        if (!validateGenSpec(entry.spec, &why))
            entry_fail("invalid spec: " + why);
        const ScenarioGenerator gen(entry.spec);
        if (!validateScenario(gen.generate(entry.genSeed), &why))
            entry_fail("generated scenario invalid: " + why);
        for (const auto& kv : entry.expected) {
            if (kv.first.empty())
                entry_fail("expected UXCost has no scheduler name");
        }
        suite.entries.push_back(std::move(entry));
    }
    return suite;
}

HardScenarioSuite
loadHardScenarioSuite(const std::string& path)
{
    std::ifstream in(path);
    if (!in.is_open())
        throw std::runtime_error(path + ": cannot open suite file");
    return loadHardScenarioSuite(in, path);
}

void
saveHardScenarioSuite(const HardScenarioSuite& suite,
                      std::ostream& out)
{
    out << "{\n";
    out << "  \"schema\": " << json::quote(kHardSuiteSchemaV1) << ",\n";
    out << "  \"system\": " << json::quote(suite.system) << ",\n";
    out << "  \"window_us\": " << json::preciseDouble(suite.windowUs)
        << ",\n";
    out << "  \"seeds\": [";
    for (size_t i = 0; i < suite.seeds.size(); ++i)
        out << (i ? ", " : "") << suite.seeds[i];
    out << "],\n";
    out << "  \"entries\": [\n";
    for (size_t i = 0; i < suite.entries.size(); ++i) {
        const auto& e = suite.entries[i];
        out << "    {\n";
        out << "      \"name\": " << json::quote(e.name) << ",\n";
        out << "      \"gen_seed\": " << e.genSeed << ",\n";
        out << "      \"spec\": ";
        writeSpec(e.spec, out, "      ");
        if (!e.expected.empty()) {
            out << ",\n      \"expected\": {\n";
            for (size_t k = 0; k < e.expected.size(); ++k) {
                out << "        " << json::quote(e.expected[k].first)
                    << ": " << json::preciseDouble(e.expected[k].second)
                    << (k + 1 < e.expected.size() ? "," : "") << "\n";
            }
            out << "      }\n";
        } else {
            out << "\n";
        }
        out << "    }" << (i + 1 < suite.entries.size() ? "," : "")
            << "\n";
    }
    out << "  ]\n";
    out << "}\n";
}

void
saveHardScenarioSuite(const HardScenarioSuite& suite,
                      const std::string& path)
{
    std::ofstream out(path);
    if (!out.is_open())
        throw std::runtime_error(path +
                                 ": cannot open suite file for "
                                 "writing");
    saveHardScenarioSuite(suite, out);
}

} // namespace workload
} // namespace dream

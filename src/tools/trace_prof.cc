#include "tools/trace_prof.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/trace_event.h"
#include "runner/table.h"
#include "util/flags.h"
#include "util/json.h"

namespace dream {
namespace tools {

namespace {

using json::Value;
using Kind = json::Value::Kind;
using Track = std::pair<long long, long long>; ///< (pid, tid)

/**
 * @p v's token as a decimal uint64_t (the one form the writers use
 * for counts); fails at @p v with @p what otherwise.
 */
uint64_t
decimalUint64(const json::Document& doc, const Value& v,
              const std::string& what)
{
    try {
        return flags::parseUint(v.text, 0,
                                std::numeric_limits<uint64_t>::max());
    } catch (const flags::Error&) {
        doc.fail(v, what);
    }
}

/**
 * Union length of the [begin, end) intervals of @p spans, each end
 * clamped to @p window_us when it is positive (modifies @p spans).
 */
double
intervalUnion(std::vector<std::pair<double, double>>& spans,
              double window_us)
{
    if (window_us > 0.0)
        for (auto& s : spans)
            s.second = std::min(s.second, window_us);
    std::sort(spans.begin(), spans.end());
    double total = 0.0;
    double cur_begin = 0.0, cur_end = -1.0;
    bool open = false;
    for (const auto& s : spans) {
        if (s.second <= s.first)
            continue;
        if (!open || s.first > cur_end) {
            if (open)
                total += cur_end - cur_begin;
            cur_begin = s.first;
            cur_end = s.second;
            open = true;
        } else {
            cur_end = std::max(cur_end, s.second);
        }
    }
    if (open)
        total += cur_end - cur_begin;
    return total;
}

std::string
fmtNs(double ns)
{
    return runner::fmt(ns, 0);
}

/** Entry @p name of @p section, or @p fallback when absent. */
template <class T>
double
valueOr(const std::map<std::string, T>& section,
        const std::string& name, double fallback = 0.0)
{
    const auto it = section.find(name);
    return it == section.end() ? fallback : double(it->second);
}

} // namespace

TraceProfile
readTraceEventJson(std::istream& in, const std::string& name)
{
    const json::Document doc(in, name);
    const Value& root = doc.root();
    if (root.kind != Kind::Array)
        doc.fail(root, "not a trace-event array (expected '[')");

    TraceProfile profile;
    profile.eventCount = root.items.size();
    std::map<long long, PointProfile> points;
    std::map<Track, std::string> track_names;
    std::map<Track, std::vector<std::pair<double, double>>> job_spans;
    std::map<Track, double> last_ts;
    for (size_t index = 0; index < root.items.size(); ++index) {
        const Value& item = root.items[index];
        const std::string tag = "event " + std::to_string(index) + ": ";
        if (item.kind != Kind::Object)
            doc.fail(item, tag + "not an object");
        const auto num = [&](const Value& v, const std::string& key) {
            if (v.kind != Kind::Number)
                doc.fail(v, tag + "non-numeric \"" + key + "\"");
            return v.number();
        };
        const auto integer = [&](const Value& v,
                                 const std::string& key) {
            char* end = nullptr;
            errno = 0;
            const long long n = std::strtoll(v.text.c_str(), &end, 10);
            if (v.kind != Kind::Number || *end != '\0' || errno == ERANGE)
                doc.fail(v, tag + "\"" + key + "\" must be an integer");
            return n;
        };
        const auto str = [&](const Value& v, const std::string& key) {
            if (v.kind != Kind::String)
                doc.fail(v, tag + "\"" + key + "\" must be a string");
            return v.text;
        };

        obs::TraceEvent ev;
        long long pid = 0;
        const Value* args = nullptr;
        for (const auto& [key, val] : item.members) {
            if (key == "name") {
                ev.name = str(val, key);
            } else if (key == "cat") {
                ev.cat = str(val, key);
            } else if (key == "ph") {
                if (val.kind != Kind::String || val.text.size() != 1)
                    doc.fail(val,
                             tag + "\"ph\" must be a one-char string");
                ev.ph = val.text[0];
            } else if (key == "ts") {
                ev.tsUs = num(val, key);
            } else if (key == "dur") {
                ev.durUs = num(val, key);
            } else if (key == "pid") {
                pid = integer(val, key);
            } else if (key == "tid") {
                ev.tid = integer(val, key);
            } else if (key == "args") {
                if (val.kind != Kind::Object)
                    doc.fail(val, tag + "\"args\" must be an object");
                for (const auto& [arg, v] : val.members) {
                    if (v.kind != Kind::Number && v.kind != Kind::String)
                        doc.fail(v, tag + "arg \"" + arg +
                                        "\" must be a number or a "
                                        "string");
                }
                args = &val;
            }
        }

        const auto require = [&](const char* key) {
            if (!item.find(key))
                doc.fail(item, tag + "missing \"" + key + "\"");
        };
        for (const char* key : {"name", "ph", "pid", "tid"})
            require(key);
        switch (ev.ph) {
          case 'X':
            require("ts");
            require("dur");
            if (!(ev.durUs >= 0.0) || !std::isfinite(ev.durUs))
                doc.fail(item, tag + "span \"dur\" must be finite "
                                     "and >= 0");
            break;
          case 'i':
            require("ts");
            break;
          case 'M':
            break; // metadata is timeless
          default:
            doc.fail(item, tag + "unknown phase '" +
                               std::string(1, ev.ph) + "'");
        }

        // Timestamps must never step backwards within one (pid, tid)
        // track — the simulator emits in event-loop order, so a
        // violation means a corrupted or hand-edited trace.
        const Track track(pid, ev.tid);
        if (ev.ph != 'M') {
            if (!std::isfinite(ev.tsUs))
                doc.fail(item, tag + "non-finite \"ts\"");
            const auto it = last_ts.find(track);
            if (it != last_ts.end() && ev.tsUs < it->second)
                doc.fail(item,
                         tag + "timestamp " +
                             runner::preciseDouble(ev.tsUs) +
                             " goes backwards on track pid=" +
                             std::to_string(pid) +
                             " tid=" + std::to_string(ev.tid) +
                             " (previous " +
                             runner::preciseDouble(it->second) + ")");
            last_ts[track] = ev.tsUs;
        }

        // Fold the event into its point.
        const auto arg = [&](const char* key) {
            return args ? args->find(key) : nullptr;
        };
        PointProfile& pt = points[pid];
        pt.pid = pid;
        if (ev.ph == 'M') {
            const Value* n = arg("name");
            if (ev.name == "process_name" && n && pt.key.empty())
                pt.key = n->text;
            else if (ev.name == "thread_name" && n)
                track_names[track] = n->text;
            else if (ev.name == "dream_meta") {
                if (const Value* k = arg("key"))
                    pt.key = k->text;
                if (const Value* w = arg("window_us"))
                    pt.windowUs = num(*w, "window_us");
            }
        } else if (ev.ph == 'X') {
            if (ev.cat == "job") {
                // Clamped to the window after the loop: dream_meta
                // may come after the spans.
                job_spans[track].push_back(
                    {std::max(ev.tsUs, 0.0), ev.tsUs + ev.durUs});
            } else if (ev.cat == "cs") {
                pt.contextSwitches += 1;
            } else if (ev.cat == "sched") {
                pt.schedEvents += 1;
                if (const Value* r = arg("rounds"))
                    pt.planCalls += decimalUint64(
                        doc, *r,
                        tag + "\"rounds\" must be a decimal integer");
                if (const Value* w = arg("wall_ns"))
                    pt.decisionWallNs.record(num(*w, "wall_ns"));
            }
        } else if (ev.name == "frame_arrival") {
            pt.frameArrivals += 1;
        } else if (ev.name == "frame_drop") {
            pt.frameDrops += 1;
        } else if (ev.name == "deadline_violation") {
            pt.deadlineViolations += 1;
        } else if (ev.name == "variant_switch") {
            pt.variantSwitches += 1;
        }
    }

    // Accelerator tracks carry an "accel<i> ..." thread_name; their
    // busy time is the union of their job spans, each clamped to
    // [0, window] — matching the simulator's busy accounting, which
    // also stops the clock at the window edge. The map visits each
    // point's tracks in ascending tid.
    for (const auto& [track, track_name] : track_names) {
        if (track_name.compare(0, 5, "accel") != 0)
            continue;
        PointProfile& pt = points[track.first];
        AccelProfile ap;
        ap.tid = track.second;
        ap.name = track_name;
        const auto it = job_spans.find(track);
        if (it != job_spans.end()) {
            ap.jobs = it->second.size();
            ap.busyUs = intervalUnion(it->second, pt.windowUs);
        }
        pt.accels.push_back(std::move(ap));
    }
    for (auto& entry : points)
        profile.points.push_back(std::move(entry.second));
    return profile;
}

TraceProfile
readTraceEventJson(const std::string& path)
{
    std::ifstream in(path);
    if (!in.is_open())
        throw std::runtime_error("cannot open trace file: " + path);
    return readTraceEventJson(in, path);
}

std::string
profileReport(const TraceProfile& profile)
{
    std::ostringstream out;
    bool first = true;
    for (const PointProfile& pt : profile.points) {
        if (!first)
            out << "\n";
        first = false;
        out << "=== "
            << (pt.key.empty() ? std::string("pid ") +
                                     std::to_string(pt.pid)
                               : pt.key)
            << " (pid=" << pt.pid << ", window="
            << runner::preciseDouble(pt.windowUs) << " us) ===\n";

        runner::Table util({"accel", "tid", "jobs", "busy (us)",
                            "util"});
        for (const AccelProfile& ap : pt.accels)
            util.addRow({ap.name, std::to_string(ap.tid),
                         std::to_string(ap.jobs),
                         runner::fmt(ap.busyUs, 1),
                         runner::fmtPct(
                             ap.utilization(pt.windowUs), 1)});
        out << util.str();

        const obs::LatencyHistogram& wall = pt.decisionWallNs;
        out << "scheduler: events=" << pt.schedEvents
            << " plan_calls=" << pt.planCalls << "\n";
        if (!wall.empty()) {
            runner::Table lat({"decision latency", "min", "p50",
                               "p90", "p99", "max"});
            lat.addRow({"wall ns", fmtNs(wall.min()),
                        fmtNs(wall.quantile(0.50)),
                        fmtNs(wall.quantile(0.90)),
                        fmtNs(wall.quantile(0.99)),
                        fmtNs(wall.max())});
            out << lat.str();
        }
        out << "frames: arrivals=" << pt.frameArrivals
            << " drops=" << pt.frameDrops
            << " deadline_violations=" << pt.deadlineViolations
            << " variant_switches=" << pt.variantSwitches
            << " context_switches=" << pt.contextSwitches << "\n";
    }
    return out.str();
}

obs::MetricsRegistry
readMetricsJson(std::istream& in, const std::string& name)
{
    const json::Document doc(in, name);
    const Value& root = doc.root();
    if (root.kind != Kind::Object)
        doc.fail(root, "a metrics dump must be an object");

    // Every section is an object. The scalar ones ("counters",
    // "gauges") are kept; histogram summaries are parsed past.
    obs::MetricsRegistry m;
    for (const auto& [section, body] : root.members) {
        if (body.kind != Kind::Object)
            doc.fail(body, "section \"" + section +
                               "\" must be an object");
        if (section != "counters" && section != "gauges")
            continue;
        for (const auto& [key, v] : body.members) {
            if (v.kind != Kind::Number)
                doc.fail(v, section + " \"" + key +
                                "\" must be a number");
            if (section == "gauges")
                m.gaugeSet(key, v.number());
            else
                m.count(key, decimalUint64(
                                 doc, v,
                                 "counters \"" + key +
                                     "\" must be a decimal integer "
                                     "in uint64_t range"));
        }
    }
    return m;
}

obs::MetricsRegistry
readMetricsJson(const std::string& path)
{
    std::ifstream in(path);
    if (!in.is_open())
        throw std::runtime_error("cannot open metrics file: " + path);
    return readMetricsJson(in, path);
}

std::string
cacheReport(const obs::MetricsRegistry& metrics)
{
    const auto& counters = metrics.counters();
    if (!counters.count("costcache/hit") &&
        !counters.count("costcache/miss"))
        return "no cost-cache counters in this dump (they are "
               "volatile: record with --metrics-full, the canonical "
               "--metrics output excludes them)\n";
    const double hits = valueOr(counters, "costcache/hit");
    const double misses = valueOr(counters, "costcache/miss");
    const double evictions = valueOr(counters, "costcache/evict");
    const double acquisitions = hits + misses;
    runner::Table t({"cost-table cache", "count"});
    t.addRow({"acquisitions", runner::fmt(acquisitions, 0)});
    t.addRow({"hits", runner::fmt(hits, 0)});
    t.addRow({"misses (tables built)", runner::fmt(misses, 0)});
    t.addRow({"evictions", runner::fmt(evictions, 0)});
    t.addRow({"hit rate",
              acquisitions > 0.0
                  ? runner::fmtPct(hits / acquisitions, 1)
                  : std::string("n/a")});
    return t.str();
}

std::string
serveReport(const obs::MetricsRegistry& metrics)
{
    const auto& counters = metrics.counters();
    const auto& gauges = metrics.gauges();
    if (!counters.count("serve/frames/offered"))
        return "";
    const auto count = [&](const std::string& name) {
        return runner::fmt(valueOr(counters, name), 0);
    };
    const auto gauge = [&](const std::string& name, int digits) {
        const auto it = gauges.find(name);
        return it == gauges.end() ? std::string("n/a")
                                  : runner::fmt(it->second, digits);
    };
    const auto pct = [&](const std::string& name) {
        const auto it = gauges.find(name);
        return it == gauges.end() ? std::string("n/a")
                                  : runner::fmtPct(it->second, 1);
    };

    runner::Table t({"serve telemetry", "value"});
    t.addRow({"frames offered", count("serve/frames/offered")});
    t.addRow({"frames admitted", count("serve/frames/admitted")});
    t.addRow({"frames degraded", count("serve/frames/degraded")});
    t.addRow({"frames rejected", count("serve/frames/rejected")});
    t.addRow({"rolling reports", count("serve/reports")});
    t.addRow({"rolling p50 latency (us)",
              gauge("serve/rolling/latency_p50_us", 1)});
    t.addRow({"rolling p99 latency (us)",
              gauge("serve/rolling/latency_p99_us", 1)});
    t.addRow({"rolling SLO-violation rate",
              pct("serve/rolling/violation_rate")});
    t.addRow({"rolling drop rate", pct("serve/rolling/drop_rate")});
    t.addRow({"rolling reject rate", pct("serve/rolling/reject_rate")});
    t.addRow({"admission backlog (us)", gauge("serve/backlog_us", 1)});
    std::string out = t.str();

    // Cluster runs (dream_serve --devices N) namespace each device's
    // telemetry under serve/dev<k>/; the plain serve/* keys above are
    // then the cluster rollup. Render the per-device breakdown too.
    if (!counters.count("serve/dev0/frames/offered"))
        return out;
    runner::Table c({"device", "offered", "admitted", "degraded",
                     "rejected", "p99 (us)", "viol", "backlog",
                     "fairness"});
    for (size_t k = 0;; ++k) {
        const std::string dev = "dev" + std::to_string(k);
        const std::string p = "serve/" + dev + "/";
        if (!counters.count(p + "frames/offered"))
            break;
        c.addRow({dev, count(p + "frames/offered"),
                  count(p + "frames/admitted"),
                  count(p + "frames/degraded"),
                  count(p + "frames/rejected"),
                  gauge(p + "rolling/latency_p99_us", 1),
                  pct(p + "rolling/violation_rate"),
                  gauge(p + "backlog_us", 0),
                  gauge(p + "fairness_ratio", 3)});
    }
    out += '\n' + c.str();
    const auto devices = gauges.find("serve/cluster/devices");
    if (devices != gauges.end()) {
        char line[96];
        std::snprintf(line, sizeof line,
                      "cluster: %d devices, fairness spread %.4f\n",
                      int(devices->second),
                      valueOr(gauges, "serve/cluster/fairness_spread",
                              1.0));
        out += line;
    }
    return out;
}

} // namespace tools
} // namespace dream

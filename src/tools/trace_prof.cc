#include "tools/trace_prof.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "runner/table.h"
#include "util/json.h"

namespace dream {
namespace tools {

namespace {

using json::Value;
using Kind = json::Value::Kind;

/** True when @p token is decimal digits in uint64_t range: the one
 *  form obs::MetricsRegistry::writeJson writes a counter in. */
bool
isDecimalUint64(const std::string& token)
{
    uint64_t value = 0;
    const char* end = token.data() + token.size();
    const auto [stop, ec] = std::from_chars(token.data(), end, value);
    return ec == std::errc() && stop == end;
}

/** Union length of [begin, end) intervals (modifies @p spans). */
double
intervalUnion(std::vector<std::pair<double, double>>& spans)
{
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

} // namespace

const std::string*
ProfEvent::arg(const std::string& key) const
{
    for (const auto& kv : args)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

TraceProfile
readTraceEventJson(std::istream& in, const std::string& name)
{
    const json::Document doc(in, name);
    const Value& root = doc.root();
    if (root.kind != Kind::Array)
        doc.fail(root, "not a trace-event array (expected '[')");

    TraceProfile profile;
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

        ProfEvent ev;
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
                ev.pid = integer(val, key);
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
                    ev.args.push_back({arg, v.text});
                }
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
        if (ev.ph != 'M' && !std::isfinite(ev.tsUs))
            doc.fail(item, tag + "non-finite \"ts\"");
        profile.events.push_back(std::move(ev));
    }

    // Timestamps must never step backwards within one (pid, tid)
    // track — the simulator emits in event-loop order, so a
    // violation means a corrupted or hand-edited trace.
    std::map<std::pair<long long, long long>, double> last_ts;
    for (size_t i = 0; i < profile.events.size(); ++i) {
        const ProfEvent& ev = profile.events[i];
        if (ev.ph == 'M')
            continue;
        const auto track = std::make_pair(ev.pid, ev.tid);
        const auto it = last_ts.find(track);
        if (it != last_ts.end() && ev.tsUs < it->second)
            doc.fail(root.items[i],
                     "event " + std::to_string(i) + ": timestamp " +
                         runner::preciseDouble(ev.tsUs) +
                         " goes backwards on track pid=" +
                         std::to_string(ev.pid) +
                         " tid=" + std::to_string(ev.tid) +
                         " (previous " +
                         runner::preciseDouble(it->second) + ")");
        last_ts[track] = ev.tsUs;
    }

    // Fold events into per-point profiles.
    std::map<long long, PointProfile> points;
    std::map<std::pair<long long, long long>, std::string>
        track_names;
    for (const ProfEvent& ev : profile.events) {
        PointProfile& pt = points[ev.pid];
        pt.pid = ev.pid;
        if (ev.ph == 'M') {
            const std::string* n = ev.arg("name");
            if (ev.name == "process_name" && n && pt.key.empty())
                pt.key = *n;
            else if (ev.name == "thread_name" && n)
                track_names[{ev.pid, ev.tid}] = *n;
            else if (ev.name == "dream_meta") {
                if (const std::string* k = ev.arg("key"))
                    pt.key = *k;
                if (const std::string* w = ev.arg("window_us"))
                    pt.windowUs = std::strtod(w->c_str(), nullptr);
            }
        }
    }

    // Accelerator tracks carry a "accel<i> ..." thread_name; collect
    // their job spans and take the interval union per track, each
    // span clamped to [0, window] — matching the simulator's busy
    // accounting, which also stops the clock at the window edge.
    std::map<std::pair<long long, long long>,
             std::vector<std::pair<double, double>>> job_spans;
    std::map<std::pair<long long, long long>, size_t> job_counts;
    for (const ProfEvent& ev : profile.events) {
        PointProfile& pt = points[ev.pid];
        if (ev.ph == 'X') {
            if (ev.cat == "job") {
                const auto track = std::make_pair(ev.pid, ev.tid);
                double begin = std::max(ev.tsUs, 0.0);
                double end = ev.tsUs + ev.durUs;
                if (pt.windowUs > 0.0)
                    end = std::min(end, pt.windowUs);
                job_spans[track].push_back({begin, end});
                job_counts[track] += 1;
            } else if (ev.cat == "cs") {
                pt.contextSwitches += 1;
            } else if (ev.cat == "sched") {
                pt.schedInvocations += 1;
                if (const std::string* w = ev.arg("wall_ns"))
                    pt.decisionWallNs.push_back(
                        std::strtod(w->c_str(), nullptr));
            }
        } else if (ev.ph == 'i') {
            if (ev.name == "frame_arrival")
                pt.frameArrivals += 1;
            else if (ev.name == "frame_drop")
                pt.frameDrops += 1;
            else if (ev.name == "deadline_violation")
                pt.deadlineViolations += 1;
            else if (ev.name == "variant_switch")
                pt.variantSwitches += 1;
        }
    }

    for (auto& entry : points) {
        PointProfile& pt = entry.second;
        for (const auto& tn : track_names) {
            if (tn.first.first != pt.pid)
                continue;
            if (tn.second.compare(0, 5, "accel") != 0)
                continue;
            AccelProfile ap;
            ap.tid = tn.first.second;
            ap.name = tn.second;
            const auto it = job_spans.find(tn.first);
            if (it != job_spans.end()) {
                ap.jobs = job_counts[tn.first];
                ap.busyUs = intervalUnion(it->second);
            }
            pt.accels.push_back(std::move(ap));
        }
        std::sort(pt.accels.begin(), pt.accels.end(),
                  [](const AccelProfile& a, const AccelProfile& b) {
                      return a.tid < b.tid;
                  });
        profile.points.push_back(std::move(pt));
    }
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

        obs::LatencyHistogram wall;
        for (double ns : pt.decisionWallNs)
            wall.record(ns);
        out << "scheduler: " << pt.schedInvocations
            << " invocations\n";
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

double
MetricsProfile::counter(const std::string& name, double fallback) const
{
    for (const auto& kv : counters) {
        if (kv.first == name)
            return kv.second;
    }
    return fallback;
}

bool
MetricsProfile::has(const std::string& name) const
{
    for (const auto& kv : counters) {
        if (kv.first == name)
            return true;
    }
    return false;
}

double
MetricsProfile::gauge(const std::string& name, double fallback) const
{
    for (const auto& kv : gauges) {
        if (kv.first == name)
            return kv.second;
    }
    return fallback;
}

bool
MetricsProfile::hasGauge(const std::string& name) const
{
    for (const auto& kv : gauges) {
        if (kv.first == name)
            return true;
    }
    return false;
}

MetricsProfile
readMetricsJson(std::istream& in, const std::string& name)
{
    const json::Document doc(in, name);
    const Value& root = doc.root();
    if (root.kind != Kind::Object)
        doc.fail(root, "a metrics dump must be an object");

    // Every section is an object. The scalar ones ("counters",
    // "gauges") are kept; histogram summaries are parsed past.
    MetricsProfile m;
    for (const auto& [section, body] : root.members) {
        if (body.kind != Kind::Object)
            doc.fail(body, "section \"" + section +
                               "\" must be an object");
        auto* kept = section == "counters" ? &m.counters
                     : section == "gauges" ? &m.gauges
                                           : nullptr;
        for (const auto& [key, v] : body.members) {
            if (!kept)
                continue;
            if (v.kind != Kind::Number)
                doc.fail(v, section + " \"" + key +
                                "\" must be a number");
            if (kept == &m.counters && !isDecimalUint64(v.text))
                doc.fail(v, "counters \"" + key +
                                "\" must be a decimal integer in "
                                "uint64_t range");
            kept->push_back({key, v.number()});
        }
    }
    return m;
}

MetricsProfile
readMetricsJson(const std::string& path)
{
    std::ifstream in(path);
    if (!in.is_open())
        throw std::runtime_error("cannot open metrics file: " + path);
    return readMetricsJson(in, path);
}

std::string
cacheReport(const MetricsProfile& metrics)
{
    std::ostringstream out;
    if (!metrics.has("costcache/hit") &&
        !metrics.has("costcache/miss")) {
        out << "no cost-cache counters in this dump (they are "
               "volatile: record with --metrics-full, the canonical "
               "--metrics output excludes them)\n";
        return out.str();
    }
    const double hits = metrics.counter("costcache/hit");
    const double misses = metrics.counter("costcache/miss");
    const double evictions = metrics.counter("costcache/evict");
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
    out << t.str();
    return out.str();
}

std::string
serveReport(const MetricsProfile& metrics)
{
    std::ostringstream out;
    if (!metrics.has("serve/frames/offered")) {
        out << "no serve metrics in this dump (record one with "
               "dream_serve --metrics F)\n";
        return out.str();
    }
    runner::Table t({"serve telemetry", "value"});
    t.addRow({"frames offered",
              runner::fmt(metrics.counter("serve/frames/offered"),
                          0)});
    t.addRow({"frames admitted",
              runner::fmt(metrics.counter("serve/frames/admitted"),
                          0)});
    t.addRow({"frames degraded",
              runner::fmt(metrics.counter("serve/frames/degraded"),
                          0)});
    t.addRow({"frames rejected",
              runner::fmt(metrics.counter("serve/frames/rejected"),
                          0)});
    t.addRow({"rolling reports",
              runner::fmt(metrics.counter("serve/reports"), 0)});
    const auto gaugeRow = [&](const char* label, const char* name,
                              int digits) {
        t.addRow({label, metrics.hasGauge(name)
                             ? runner::fmt(metrics.gauge(name),
                                           digits)
                             : std::string("n/a")});
    };
    const auto pctRow = [&](const char* label, const char* name) {
        t.addRow({label, metrics.hasGauge(name)
                             ? runner::fmtPct(metrics.gauge(name), 1)
                             : std::string("n/a")});
    };
    gaugeRow("rolling p50 latency (us)",
             "serve/rolling/latency_p50_us", 1);
    gaugeRow("rolling p99 latency (us)",
             "serve/rolling/latency_p99_us", 1);
    pctRow("rolling SLO-violation rate",
           "serve/rolling/violation_rate");
    pctRow("rolling drop rate", "serve/rolling/drop_rate");
    pctRow("rolling reject rate", "serve/rolling/reject_rate");
    gaugeRow("admission backlog (us)", "serve/backlog_us", 1);
    out << t.str();

    // Cluster runs (dream_serve --devices N) namespace each device's
    // telemetry under serve/dev<k>/; the plain serve/* keys above are
    // then the cluster rollup. Render the per-device breakdown too.
    if (metrics.has("serve/dev0/frames/offered")) {
        out << '\n';
        runner::Table c({"device", "offered", "admitted", "degraded",
                         "rejected", "p99 (us)", "viol", "backlog",
                         "fairness"});
        for (size_t k = 0;; ++k) {
            const std::string p =
                "serve/dev" + std::to_string(k) + "/";
            if (!metrics.has(p + "frames/offered"))
                break;
            const auto cell = [&](const std::string& name,
                                  int digits) {
                return metrics.hasGauge(name)
                           ? runner::fmt(metrics.gauge(name), digits)
                           : std::string("n/a");
            };
            c.addRow(
                {"dev" + std::to_string(k),
                 runner::fmt(metrics.counter(p + "frames/offered"),
                             0),
                 runner::fmt(metrics.counter(p + "frames/admitted"),
                             0),
                 runner::fmt(metrics.counter(p + "frames/degraded"),
                             0),
                 runner::fmt(metrics.counter(p + "frames/rejected"),
                             0),
                 cell(p + "rolling/latency_p99_us", 1),
                 metrics.hasGauge(p + "rolling/violation_rate")
                     ? runner::fmtPct(
                           metrics.gauge(p +
                                         "rolling/violation_rate"),
                           1)
                     : std::string("n/a"),
                 cell(p + "backlog_us", 0),
                 cell(p + "fairness_ratio", 3)});
        }
        out << c.str();
        if (metrics.hasGauge("serve/cluster/devices")) {
            char line[96];
            std::snprintf(
                line, sizeof line,
                "cluster: %d devices, fairness spread %.4f\n",
                int(metrics.gauge("serve/cluster/devices")),
                metrics.gauge("serve/cluster/fairness_spread", 1.0));
            out << line;
        }
    }
    return out.str();
}

} // namespace tools
} // namespace dream

#include "obs/trace_event.h"

#include "util/json.h"

namespace dream {
namespace obs {

TraceArgs&
TraceArgs::str(const std::string& key, const std::string& value)
{
    kv_.push_back({key, json::quote(value)});
    return *this;
}

TraceArgs&
TraceArgs::num(const std::string& key, double value)
{
    kv_.push_back({key, json::number(value)});
    return *this;
}

TraceArgs&
TraceArgs::integer(const std::string& key, long long value)
{
    kv_.push_back({key, std::to_string(value)});
    return *this;
}

void
TraceEventSink::processName(const std::string& name)
{
    TraceEvent e;
    e.name = "process_name";
    e.ph = 'M';
    e.args.push_back({"name", json::quote(name)});
    events_.push_back(std::move(e));
}

void
TraceEventSink::threadName(int64_t tid, const std::string& name)
{
    TraceEvent e;
    e.name = "thread_name";
    e.ph = 'M';
    e.tid = tid;
    e.args.push_back({"name", json::quote(name)});
    events_.push_back(std::move(e));
}

void
TraceEventSink::runMeta(const TraceArgs& args)
{
    TraceEvent e;
    e.name = "dream_meta";
    e.ph = 'M';
    e.args = args.items();
    events_.push_back(std::move(e));
}

void
TraceEventSink::span(int64_t tid, const std::string& name,
                     const std::string& cat, double ts_us,
                     double dur_us, const TraceArgs& args)
{
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = 'X';
    e.tsUs = ts_us;
    e.durUs = dur_us;
    e.tid = tid;
    e.args = args.items();
    events_.push_back(std::move(e));
}

void
TraceEventSink::instant(int64_t tid, const std::string& name,
                        const std::string& cat, double ts_us,
                        const TraceArgs& args)
{
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.ph = 'i';
    e.tsUs = ts_us;
    e.tid = tid;
    e.args = args.items();
    events_.push_back(std::move(e));
}

void
TraceEventSink::writeJson(std::ostream& out) const
{
    out << "[\n";
    for (size_t i = 0; i < events_.size(); ++i) {
        const TraceEvent& e = events_[i];
        out << "{\"name\": " << json::quote(e.name);
        if (!e.cat.empty())
            out << ", \"cat\": " << json::quote(e.cat);
        out << ", \"ph\": \"" << e.ph << '"';
        if (e.ph != 'M') {
            out << ", \"ts\": " << json::number(e.tsUs);
            if (e.ph == 'X')
                out << ", \"dur\": " << json::number(e.durUs);
            if (e.ph == 'i')
                out << ", \"s\": \"t\"";
        }
        out << ", \"pid\": " << pid_ << ", \"tid\": " << e.tid;
        if (!e.args.empty()) {
            out << ", \"args\": {";
            for (size_t a = 0; a < e.args.size(); ++a) {
                if (a)
                    out << ", ";
                out << json::quote(e.args[a].first) << ": "
                    << e.args[a].second;
            }
            out << '}';
        }
        out << '}' << (i + 1 < events_.size() ? "," : "") << '\n';
    }
    out << "]\n";
}

} // namespace obs
} // namespace dream

#include "trace.hh"

#include <charconv>

namespace amos {

TraceSpan::TraceSpan(const char *name, const char *category)
    : _active(FlightRecorder::currentSeq() != 0 ||
              FlightRecorder::global().recordingAll())
{
    if (!_active)
        return;
    _record.name = name;
    _record.category = category;
    _record.seq = FlightRecorder::currentSeq();
    _start = std::chrono::steady_clock::now();
}

void
TraceSpan::arg(const char *key, std::string_view value)
{
    if (_active)
        _argsLen = appendFlightArg(_record, _argsLen, key, value);
}

void
TraceSpan::arg(const char *key, std::int64_t value)
{
    if (!_active)
        return;
    char buf[24];
    char *end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    arg(key, std::string_view(buf, end - buf));
}

TraceSpan::~TraceSpan()
{
    if (!_active)
        return;
    auto end = std::chrono::steady_clock::now();
    FlightRecorder &recorder = FlightRecorder::global();
    _record.startUs = recorder.sinceEpochUs(_start);
    _record.durUs =
        std::chrono::duration<double, std::micro>(end - _start)
            .count();
    recorder.push(_record);
}

} // namespace amos

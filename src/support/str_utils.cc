#include "str_utils.hh"

#include <algorithm>
#include <cstdio>

#include "logging.hh"

namespace amos {

std::string
join(const std::vector<std::string> &items, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += sep;
        out += items[i];
    }
    return out;
}

std::string
padLeft(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::string
fmtDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::uint64_t
fnv1a(const std::string &data)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : data) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hexKey(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

TextTable::TextTable(std::vector<std::string> headers)
    : _headers(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> row)
{
    require(row.size() == _headers.size(),
            "TextTable::addRow: expected ", _headers.size(),
            " cells, got ", row.size());
    _rows.push_back(std::move(row));
}

std::string
TextTable::toString() const
{
    std::vector<std::size_t> widths(_headers.size());
    for (std::size_t c = 0; c < _headers.size(); ++c)
        widths[c] = _headers[c].size();
    for (const auto &row : _rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto render_row = [&](const std::vector<std::string> &row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            line += padRight(row[c], widths[c]);
            if (c + 1 < row.size())
                line += "  ";
        }
        line += '\n';
        return line;
    };

    std::string out = render_row(_headers);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    out += std::string(total, '-') + '\n';
    for (const auto &row : _rows)
        out += render_row(row);
    return out;
}

} // namespace amos

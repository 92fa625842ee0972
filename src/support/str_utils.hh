/**
 * @file
 * String helpers: joining, fixed-width table formatting used by the
 * benchmark harnesses to print paper-style rows, and the content hash
 * that names files in the on-disk stores.
 */

#ifndef AMOS_SUPPORT_STR_UTILS_HH
#define AMOS_SUPPORT_STR_UTILS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace amos {

/** Join string items with a separator. */
std::string join(const std::vector<std::string> &items,
                 const std::string &sep);

/**
 * Render items with a per-item printer joined by a separator, e.g.
 * joinMapped(extents, "x", [](auto e){ return std::to_string(e); }).
 */
template <typename T, typename Fn>
std::string
joinMapped(const std::vector<T> &items, const std::string &sep, Fn fn)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += sep;
        out += fn(items[i]);
    }
    return out;
}

/** Left-pad (align right) to the given width. */
std::string padLeft(const std::string &s, std::size_t width);

/** Right-pad (align left) to the given width. */
std::string padRight(const std::string &s, std::size_t width);

/** Format a double with fixed precision. */
std::string fmtDouble(double v, int precision = 2);

/** FNV-1a 64-bit hash of a string. */
std::uint64_t fnv1a(const std::string &data);

/**
 * A 64-bit key as 16 lower-case hex digits: the file-name stem of the
 * JIT object store and of the serve disk tier.
 */
std::string hexKey(std::uint64_t key);

/**
 * Minimal text table used by benches: set headers, add string rows,
 * print with aligned columns.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> row);

    /** Render the whole table, header first, columns aligned. */
    std::string toString() const;

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

} // namespace amos

#endif // AMOS_SUPPORT_STR_UTILS_HH

/**
 * @file
 * Minimal process and file helpers: run a shell command, probe
 * whether a program can be invoked, drive the system C compiler to
 * produce a shared object (the kernel JIT needs "compile this file or
 * tell me why not", not a general process API), and replace a file
 * atomically even when several processes write the same path.
 */

#ifndef AMOS_SUPPORT_SUBPROCESS_HH
#define AMOS_SUPPORT_SUBPROCESS_HH

#include <string>

namespace amos {

/** Outcome of one shell command. */
struct CommandResult
{
    /// True when the shell itself could run the command line (the
    /// command may still have exited nonzero).
    bool ran = false;
    int exitCode = -1;

    bool ok() const { return ran && exitCode == 0; }
};

/**
 * A suffix unique to this process and call (pid + counter), for temp
 * files that concurrent writers — threads or processes — create next
 * to a shared destination before renaming them into place.
 */
std::string uniqueTempSuffix();

/**
 * Replace `path` with `text` atomically: write a sibling temp file
 * with a unique suffix, then rename() it into place. A crash
 * mid-write leaves the previous file intact, readers see the old or
 * the new document but never a torn one, and concurrent writers of
 * one path each rename their own temp file (the last rename wins).
 * Throws FatalError, after removing the temp file, when the write or
 * the rename fails.
 */
void writeFileAtomic(const std::string &path, const std::string &text);

/** Run a command line through the shell; never throws. */
CommandResult runShellCommand(const std::string &commandLine);

/**
 * True when `program` resolves to something executable (`command -v`
 * through the shell). Used to probe the JIT compiler once before
 * paying for a real compile attempt.
 */
bool programAvailable(const std::string &program);

/** One shared-object compilation request. */
struct SharedObjectJob
{
    std::string compiler;   ///< e.g. "cc" or "/usr/bin/gcc"
    std::string flags;      ///< e.g. "-O3 -march=native"
    std::string sourcePath; ///< input .c translation unit
    std::string outputPath; ///< output .so path
};

/**
 * Compile one C source into a shared object
 * (`<compiler> <flags> -shared -fPIC -o <out> <src>`). On failure
 * returns false and fills `errText` with the tail of the compiler's
 * stderr so fallback reasons stay diagnosable.
 */
bool compileSharedObject(const SharedObjectJob &job,
                         std::string *errText = nullptr);

} // namespace amos

#endif // AMOS_SUPPORT_SUBPROCESS_HH

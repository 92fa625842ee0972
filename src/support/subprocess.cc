#include "subprocess.hh"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/logging.hh"

namespace amos {

std::string
uniqueTempSuffix()
{
    static std::atomic<std::uint64_t> counter{0};
    return std::to_string(static_cast<long>(::getpid())) + "." +
           std::to_string(counter.fetch_add(1));
}

void
writeFileAtomic(const std::string &path, const std::string &text)
{
    const std::string tmp = path + "." + uniqueTempSuffix() + ".tmp";
    bool written;
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << text;
        out.flush();
        written = out.good();
    }
    if (!written) {
        std::remove(tmp.c_str());
        fatal("cannot write ", tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("cannot rename ", tmp, " to ", path);
    }
}

CommandResult
runShellCommand(const std::string &commandLine)
{
    CommandResult result;
    int status = std::system(commandLine.c_str());
    if (status < 0)
        return result; // the shell could not be spawned at all
    result.ran = true;
#ifdef WIFEXITED
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    else
        result.exitCode = -1; // killed by a signal
#else
    result.exitCode = status;
#endif
    return result;
}

bool
programAvailable(const std::string &program)
{
    if (program.empty())
        return false;
    // `command -v` understands both bare names (PATH lookup) and
    // absolute paths; redirect everything so probes stay silent.
    return runShellCommand("command -v '" + program +
                           "' > /dev/null 2>&1")
        .ok();
}

bool
compileSharedObject(const SharedObjectJob &job, std::string *errText)
{
    std::string errPath = job.outputPath + ".err";
    std::ostringstream cmd;
    cmd << job.compiler << " " << job.flags << " -shared -fPIC -o "
        << job.outputPath << " " << job.sourcePath << " 2> "
        << errPath;
    CommandResult result = runShellCommand(cmd.str());
    if (!result.ok()) {
        if (errText) {
            std::ifstream err(errPath);
            std::ostringstream text;
            text << err.rdbuf();
            std::string full = text.str();
            // Keep the tail: with `-Werror`-style cascades the last
            // lines carry the actual failure.
            constexpr std::size_t kMaxErr = 512;
            if (full.size() > kMaxErr)
                full = "..." + full.substr(full.size() - kMaxErr);
            *errText = "exit " + std::to_string(result.exitCode) +
                       (full.empty() ? "" : ": " + full);
        }
        std::remove(errPath.c_str());
        std::remove(job.outputPath.c_str());
        return false;
    }
    std::remove(errPath.c_str());
    return true;
}

} // namespace amos

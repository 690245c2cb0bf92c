#include "sim/fabric/worker.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>

#include "common/log.hh"

namespace tempest
{
namespace fabric
{

namespace
{

/** Write the whole buffer, retrying on EINTR/short writes.
 * MSG_NOSIGNAL: a vanished coordinator is an orderly exit(1),
 * not SIGPIPE. */
bool
writeAll(int fd, const std::string& data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeLine(int fd, const std::string& line)
{
    return writeAll(fd, line + "\n");
}

} // namespace

int
workerMain(int fd)
{
    if (!writeLine(fd, encodeHello(static_cast<long>(::getpid()))))
        return 1;

    std::string buffer;
    char chunk[4096];
    for (;;) {
        // Drain complete lines before reading more: a single
        // read() can deliver several queued messages.
        const std::size_t nl = buffer.find('\n');
        if (nl == std::string::npos) {
            const ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return 1;
            }
            if (n == 0)
                return 0; // coordinator went away
            buffer.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        const std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        if (line.empty())
            continue;

        std::string reply;
        try {
            const serve::Json doc = serve::Json::parse(line);
            const std::string op =
                doc.find("op") ? doc.find("op")->asString()
                               : std::string();
            if (op == "shutdown")
                return 0;
            if (op != "job") {
                warn("fabric worker: ignoring op '", op, "'");
                continue;
            }
            const auto [index, job] = parseJob(doc);
            reply = encodeResult(index, runJob(job));
        } catch (const std::exception& e) {
            // Malformed message: report and keep serving. The
            // index may be unknown; 0 with ok=false is still a
            // visible failure on the coordinator side.
            Outcome failed;
            failed.error = e.what();
            reply = encodeResult(0, failed);
        }
        if (!writeLine(fd, reply))
            return 1;
    }
}

} // namespace fabric
} // namespace tempest

/**
 * @file
 * tempest_perfbench: runs one workload through Tempest's public
 * entry points and prints one JSON record of raw measurements as
 * its last stdout line. perfbench/run.py builds and runs it, turns
 * the record into metrics, and checks correctness.
 *
 *   tempest_perfbench <paper_sweep|serve_mixed>
 *       --seed N --seconds S [--trace 0|1] [--trace-out FILE]
 *       [--schedule FILE]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include <malloc.h>

#include "report.hh"

int
main(int argc, char** argv)
{
    using namespace perfbench;
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s <workload> [options]\n", argv[0]);
        return 2;
    }
    // Peak RSS should measure live memory, not malloc's retention
    // policy. With per-thread arenas and glibc's sliding mmap
    // threshold, the serve daemon's peak ranged 17-23 MB across
    // seeds (24-27 MB across runs of one seed); with one arena and
    // large blocks always mmapped, so returned on free, it holds at
    // 11.6-11.8 MB.
    mallopt(M_ARENA_MAX, 1);
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    // Fix the usable CPU set before any workload pins a thread.
    usableCpus();
    Args args;
    args.workload = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            args.trace = std::string(value) == "1";
        else if (flag == "--trace-out")
            args.traceOut = value;
        else if (flag == "--schedule")
            args.schedule = value;
        else {
            std::fprintf(stderr, "unknown option %s\n", flag.c_str());
            return 2;
        }
    }
    try {
        if (args.workload == "paper_sweep")
            return runPaperSweep(args);
        if (args.workload == "serve_mixed")
            return runServeMixed(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "tempest_perfbench: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
}

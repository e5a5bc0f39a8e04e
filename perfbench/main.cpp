// perfbench: the paper-workload benchmark binary.
//
//   perfbench --workload <ci-short-tcp|cv-live-mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--source-digest <hash>]
//
// Prints a provenance line, every metric as "name value unit", and as the
// last line one JSON object {correct, attempted, failed, metrics}. Exits
// non-zero when a correctness gate fails. perfbench/run.py builds this
// binary from source and runs it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace {

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20) continue;
        out += ch;
    }
    return out + "\"";
}

std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <ci-short-tcp|cv-live-mix> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), nullptr);
        } else if (key == "--trace") {
            args.trace = value == "1";
        } else if (key == "--commit") {
            args.commit = value;
        } else if (key == "--source-digest") {
            args.source_digest = value;
        } else {
            return usage(("unknown argument " + key).c_str());
        }
    }
    if (argc % 2 == 0) return usage("arguments come in --key value pairs");
    if (!perfbench::known_workload(args.workload)) return usage("unknown workload");
    if (!(args.seconds > 0.0)) return usage("--seconds must be positive");
#if defined(PERFBENCH_SANITIZED)
    std::fprintf(stderr, "perfbench: refusing to report timings from a sanitizer build\n");
    return 3;
#elif !defined(__OPTIMIZE__)
    std::fprintf(stderr, "perfbench: refusing to report timings from an unoptimised build\n");
    return 3;
#endif

    perfbench::Result r;
    try {
        r = perfbench::run_workload(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
        return 1;
    }

    std::string prov = "{\"commit\": " + json_string(args.commit) +
                       ", \"source_digest\": " + json_string(args.source_digest) +
                       ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                       ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                       ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                       ", \"workload\": " + json_string(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + number(args.seconds) +
                       ", \"trace\": " + (args.trace ? "1" : "0");
    for (const auto& [key, value] : r.info) prov += ", " + json_string(key) + ": " + json_string(value);
    std::printf("provenance %s}\n", prov.c_str());

    std::string metrics;
    for (auto& [name, vu] : r.metrics) {
        if (!std::isfinite(vu.first)) {
            r.gate(false, "metric " + name + " is not finite");
            vu.first = -1.0;
        }
        std::printf("metric %-34s %14.6f %s\n", name.c_str(), vu.first, vu.second.c_str());
        if (!metrics.empty()) metrics += ", ";
        metrics += json_string(name) + ": {\"value\": " + number(vu.first) +
                   ", \"unit\": " + json_string(vu.second) + "}";
    }
    for (const std::string& e : r.errors) std::printf("gate FAILED: %s\n", e.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), metrics.c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}

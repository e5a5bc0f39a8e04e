// Shared plumbing for the paper-workload benchmark: command-line
// arguments, the result record printed as the final JSON line, sample
// statistics, answer fingerprints, the seeded corpus, and the deployment
// wrapper every workload queries through.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "dir/deployment.h"

namespace perfbench {

namespace dir = teraphim::dir;
namespace net = teraphim::net;
namespace corpus = teraphim::corpus;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// The paper stand-in's corpus seed (ICDCS'98); the default workload seed.
constexpr std::uint64_t kPaperSeed = 19980406;

struct Args {
    std::string workload;
    std::uint64_t seed = kPaperSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string commit = "unknown";
    std::string source_digest = "unknown";
};

/// What one run reports. `metrics` keep insertion order for printing.
struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
    std::vector<std::string> errors;
    /// Run facts printed with the provenance line (sample counts, spread,
    /// answer fingerprint).
    std::vector<std::pair<std::string, std::string>> info;

    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, {value, unit}});
    }
    /// Records a failed correctness gate; the run then reports correct=false.
    void gate(bool ok, const std::string& what) {
        if (!ok) {
            correct = false;
            errors.push_back(what);
        }
    }
};

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Peak resident set size of this process so far, MiB (VmHWM).
double peak_rss_mb();

/// FNV-1a over answers: document ids and the exact bits of each score.
struct Fingerprint {
    std::uint64_t h = 1469598103934665603ULL;
    void add(std::uint64_t v);
    void add_bytes(std::span<const std::uint8_t> bytes);
    void add_ranking(std::span<const dir::GlobalResult> ranking);
};

/// The benchmark's own frozen copy of the paper corpus configuration
/// with `seed` substituted: the workload stays fixed even if the
/// library's bench helpers change.
corpus::CorpusConfig workload_corpus_config(std::uint64_t seed);

/// True when workload_corpus_config(kPaperSeed) equals
/// bench::paper_corpus_config() field for field.
bool default_seed_matches_paper_config();

/// A TERAPHIM deployment as the workloads see it. Untraced runs hold the
/// library's own Federation or TcpFederation; traced runs assemble the
/// same parts by hand with span-recording channels and handlers
/// (trace.h). Either way queries go through the library's Receptionist.
class Deployment {
public:
    virtual ~Deployment() = default;
    virtual dir::Receptionist& receptionist() = 0;
    virtual dir::Librarian& librarian(std::size_t i) = 0;
    virtual std::size_t num_librarians() const = 0;
    /// Refreshes the receptionist's global state after ingest (CV only).
    virtual void reprepare() = 0;

    std::string external_id(const dir::GlobalResult& r) { return librarian(r.librarian).external_id(r.doc); }
};

/// Library-built deployment: Federation::create (in-process) or
/// TcpFederation::create (loopback TCP).
std::unique_ptr<Deployment> make_library_deployment(const corpus::SyntheticCorpus& corpus,
                                                    const dir::ReceptionistOptions& options,
                                                    bool tcp);

/// Receptionist options shared by all workloads: the paper's as-run
/// settings (k = 20, G = 10, k' = 100, no skips, individual fetches).
dir::ReceptionistOptions paper_options(dir::Mode mode);

/// Relevant documents in the top 20 of `answer` for topic `topic_id`.
std::size_t relevant_in_top20(Deployment& d, const corpus::SyntheticCorpus& c, int topic_id,
                              const dir::QueryAnswer& answer);

/// Endless seeded topic order: each pass over the topics is a fresh
/// seeded permutation.
class TopicOrder {
public:
    TopicOrder(std::size_t topics, std::uint64_t seed);
    std::size_t next();

private:
    std::vector<std::size_t> order_;
    std::size_t pos_ = 0;
    std::mt19937_64 rng_;
};

/// Uniform double in [0, 1) from the generator's raw bits (portable
/// across standard libraries, unlike std::uniform_real_distribution).
inline double uniform01(std::mt19937_64& rng) {
    return static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
}

/// Sixteen-document ingest batches over the librarians, round-robin,
/// drawn from a sibling-seed corpus so their text shares the main
/// corpus's vocabulary without duplicating its documents.
class IngestFeed {
public:
    static constexpr std::size_t kBatchDocs = 16;
    IngestFeed(std::uint64_t seed, std::size_t librarians);
    /// The next batch and the librarian it is for.
    std::pair<std::size_t, dir::IngestRequest> next();

private:
    corpus::SyntheticCorpus sibling_;
    std::size_t librarians_;
    std::size_t batch_ = 0;
    std::vector<std::size_t> cursor_;  ///< per sibling subcollection
};

/// Ingest probe run after the timed window on workloads whose stream
/// does not ingest: `batches` timed ingests, then one compaction of
/// librarian 0 (so traced runs see the compaction layer too).
struct IngestProbe {
    std::vector<double> ingest_ms;
    std::uint64_t accepted = 0;
    std::uint64_t grown = 0;  ///< live-document growth over the librarians
};
IngestProbe run_ingest_probe(Deployment& d, std::uint64_t seed, std::size_t batches);

}  // namespace perfbench

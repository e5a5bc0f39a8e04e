#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "bench_common.h"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
    return kb / 1024.0;
}

void Fingerprint::add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
}

void Fingerprint::add_bytes(std::span<const std::uint8_t> bytes) {
    add(bytes.size());
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ULL;
    }
}

void Fingerprint::add_ranking(std::span<const dir::GlobalResult> ranking) {
    add(ranking.size());
    for (const dir::GlobalResult& r : ranking) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &r.score, sizeof bits);
        add((std::uint64_t{r.librarian} << 32) | r.doc);
        add(bits);
    }
}

corpus::CorpusConfig workload_corpus_config(std::uint64_t seed) {
    corpus::CorpusConfig c;
    c.vocab_size = 24000;
    c.zipf_s = 1.05;
    c.subcollections = {
        {"AP", 20800, 200.0, 0.45},
        {"WSJ", 19400, 190.0, 0.45},
        {"FR", 5200, 280.0, 0.6},
        {"ZIFF", 14800, 150.0, 0.5},
    };
    c.num_long_topics = 20;
    c.num_short_topics = 20;
    c.terms_per_topic = 48;
    c.topic_skew = 0.4;
    c.doc_aspect_terms = 4;
    c.topic_term_floor = 100;
    c.topic_term_ceiling = 0;
    c.topical_doc_fraction = 0.35;
    c.mixture_min = 0.03;
    c.mixture_max = 0.15;
    c.relevance_threshold = 0.10;
    c.dialect_fraction = 0.15;
    c.dialect_strength = 4.0;
    c.short_query_terms = 8;
    c.short_query_noise_terms = 3;
    c.long_query_terms = 90;
    c.seed = seed;
    return c;
}

bool default_seed_matches_paper_config() {
    const corpus::CorpusConfig a = workload_corpus_config(kPaperSeed);
    const corpus::CorpusConfig b = teraphim::bench::paper_corpus_config();
    if (a.subcollections.size() != b.subcollections.size()) return false;
    for (std::size_t i = 0; i < a.subcollections.size(); ++i) {
        const auto& x = a.subcollections[i];
        const auto& y = b.subcollections[i];
        if (x.name != y.name || x.num_docs != y.num_docs || x.mean_doc_terms != y.mean_doc_terms ||
            x.doc_terms_sigma != y.doc_terms_sigma) {
            return false;
        }
    }
    return a.vocab_size == b.vocab_size && a.zipf_s == b.zipf_s &&
           a.num_long_topics == b.num_long_topics && a.num_short_topics == b.num_short_topics &&
           a.terms_per_topic == b.terms_per_topic && a.topic_skew == b.topic_skew &&
           a.doc_aspect_terms == b.doc_aspect_terms && a.topic_term_floor == b.topic_term_floor &&
           a.topic_term_ceiling == b.topic_term_ceiling &&
           a.topical_doc_fraction == b.topical_doc_fraction && a.mixture_min == b.mixture_min &&
           a.mixture_max == b.mixture_max && a.relevance_threshold == b.relevance_threshold &&
           a.dialect_fraction == b.dialect_fraction && a.dialect_strength == b.dialect_strength &&
           a.short_query_terms == b.short_query_terms &&
           a.short_query_noise_terms == b.short_query_noise_terms &&
           a.long_query_terms == b.long_query_terms && a.seed == b.seed;
}

namespace {

template <typename Fed>
class LibraryDeployment final : public Deployment {
public:
    explicit LibraryDeployment(Fed fed) : fed_(std::move(fed)) {}
    dir::Receptionist& receptionist() override { return fed_.receptionist(); }
    dir::Librarian& librarian(std::size_t i) override { return fed_.librarian(i); }
    std::size_t num_librarians() const override { return fed_.num_librarians(); }
    void reprepare() override { fed_.reprepare(); }

private:
    Fed fed_;
};

}  // namespace

std::unique_ptr<Deployment> make_library_deployment(const corpus::SyntheticCorpus& corpus,
                                                    const dir::ReceptionistOptions& options,
                                                    bool tcp) {
    if (tcp) {
        return std::make_unique<LibraryDeployment<dir::TcpFederation>>(
            dir::TcpFederation::create(corpus, options));
    }
    return std::make_unique<LibraryDeployment<dir::Federation>>(
        dir::Federation::create(corpus, options));
}

dir::ReceptionistOptions paper_options(dir::Mode mode) {
    dir::ReceptionistOptions o;
    o.mode = mode;
    o.answers = 20;
    o.group_size = 10;
    o.k_prime = 100;
    o.use_skips = false;
    o.bundle_fetch = false;
    return o;
}

std::size_t relevant_in_top20(Deployment& d, const corpus::SyntheticCorpus& c, int topic_id,
                              const dir::QueryAnswer& answer) {
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < answer.ranking.size() && i < 20; ++i) {
        ids.push_back(d.external_id(answer.ranking[i]));
    }
    return teraphim::eval::relevant_in_top(ids, c.judgments.relevant_for(topic_id), 20);
}

TopicOrder::TopicOrder(std::size_t topics, std::uint64_t seed) : order_(topics), rng_(seed) {
    std::iota(order_.begin(), order_.end(), 0);
    pos_ = topics;  // shuffle on first use
}

std::size_t TopicOrder::next() {
    if (pos_ == order_.size()) {
        for (std::size_t i = order_.size(); i > 1; --i) {
            std::swap(order_[i - 1], order_[rng_() % i]);
        }
        pos_ = 0;
    }
    return order_[pos_++];
}

namespace {

corpus::CorpusConfig sibling_config(std::uint64_t seed) {
    corpus::CorpusConfig c = workload_corpus_config(seed ^ 0x5151B11BULL);
    for (auto& sub : c.subcollections) sub.num_docs /= 10;
    c.num_long_topics = 1;
    c.num_short_topics = 1;
    return c;
}

}  // namespace

IngestFeed::IngestFeed(std::uint64_t seed, std::size_t librarians)
    : sibling_(corpus::generate_corpus(sibling_config(seed))),
      librarians_(librarians),
      cursor_(sibling_.subcollections.size(), 0) {}

std::pair<std::size_t, dir::IngestRequest> IngestFeed::next() {
    const std::size_t target = batch_ % librarians_;
    const std::size_t sub = target % sibling_.subcollections.size();
    const auto& docs = sibling_.subcollections[sub].documents;
    dir::IngestRequest req;
    for (std::size_t i = 0; i < kBatchDocs; ++i) {
        const std::size_t n = cursor_[sub]++;
        const auto& doc = docs[n % docs.size()];
        req.docs.push_back({"live-" + doc.external_id + "-" + std::to_string(n / docs.size()),
                            doc.text});
    }
    ++batch_;
    return {target, std::move(req)};
}

IngestProbe run_ingest_probe(Deployment& d, std::uint64_t seed, std::size_t batches) {
    IngestProbe probe;
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < d.num_librarians(); ++i) before += d.librarian(i).num_documents();
    IngestFeed feed(seed, d.num_librarians());
    for (std::size_t b = 0; b < batches; ++b) {
        auto [target, req] = feed.next();
        const auto t0 = Clock::now();
        const dir::IngestResponse resp = d.receptionist().ingest(target, req);
        probe.ingest_ms.push_back(ms_between(t0, Clock::now()));
        probe.accepted += resp.accepted;
    }
    d.receptionist().compact(0, dir::CompactRequest{true});
    std::uint64_t live_docs = 0;
    for (std::size_t i = 0; i < d.num_librarians(); ++i) live_docs += d.librarian(i).num_documents();
    probe.grown = live_docs - before;
    return probe;
}

}  // namespace perfbench

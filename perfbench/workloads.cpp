// The paper workloads: what each runs, how it is timed, and the
// correctness gates it must pass. See README.md for why each exists.
#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>

#include "index/builder.h"
#include "rank/query_processor.h"
#include "trace.h"

namespace perfbench {

namespace {

/// A failed query misses every latency limit.
constexpr double kFailedLatencyMs = 1e9;
/// Setups per run; setup_s reports their median.
constexpr int kSetupSamples = 2;
/// Ranking depth of every timed query (k = 20, the paper's Tables 3-4),
/// and of the CV == MS oracle (Table 1's depth).
constexpr std::size_t kDepth = 20;
constexpr std::size_t kOracleDepth = 1000;
/// ci-short-tcp: closed-loop clients.
constexpr int kClients = 3;
/// cv-live-mix: readers, tail share, and write pacing. Writes follow the
/// clock, not read progress, so a run ingests and compacts the same
/// amount however fast its reads go.
constexpr int kLiveReaders = 2;
constexpr double kTailShare = 0.10;
constexpr double kBatchesPerSecond = 8.0;
constexpr std::uint64_t kBatchesPerCompaction = 8;
/// Ingest probe on workloads whose stream does not write.
constexpr std::size_t kProbeBatches = 128;

struct Spec {
    const char* name;
    dir::Mode mode;
    bool tcp;
    bool cache;
    bool fetch;
};

constexpr Spec kSpecs[] = {
    {"ci-short-tcp", dir::Mode::CentralIndex, true, false, true},
    {"cv-live-mix", dir::Mode::CentralVocabulary, false, true, false},
};

struct Topic {
    int id = 0;
    std::string text;
};

/// What one timed window measured.
struct Window {
    double seconds = 0.0;
    std::vector<double> latency_ms;
    std::vector<double> lag_ms;
    std::uint64_t queries = 0;
    std::uint64_t failed = 0;
    std::uint64_t wire_bytes = 0;
    std::vector<double> ingest_ms;
    std::uint64_t batches = 0;
    std::uint64_t batches_failed = 0;
    std::uint64_t accepted = 0;
    std::uint64_t grown = 0;
    std::vector<std::string> errors;
};

dir::QueryRequest request(std::string_view text, std::size_t depth, bool fetch = false) {
    dir::QueryRequest req;
    req.text = text;
    req.depth = depth;
    req.fetch = fetch;
    return req;
}

Clock::time_point after(Clock::time_point t, double seconds) {
    return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

bool same_answer(const dir::QueryAnswer& a, const dir::QueryAnswer& b) {
    if (a.ranking != b.ranking || a.documents.size() != b.documents.size()) return false;
    for (std::size_t i = 0; i < a.documents.size(); ++i) {
        if (a.documents[i].external_id != b.documents[i].external_id ||
            a.documents[i].payload != b.documents[i].payload) {
            return false;
        }
    }
    return true;
}

/// Runs queries against one deployment, timing each and folding the
/// outcome into a Window. Thread-safe.
class Runner {
public:
    Runner(Deployment& d, LayerReport* layers) : d_(d), layers_(layers) {}

    /// Times one query. Returns the answer when it is complete; failures
    /// are counted.
    std::optional<dir::QueryAnswer> run(const std::string& text, const Spec& spec) {
        std::shared_ptr<QuerySpans> spans = layers_ ? layers_->begin(text) : nullptr;
        const Clock::time_point t0 = Clock::now();
        std::optional<dir::QueryAnswer> answer;
        try {
            answer = d_.receptionist().query(
                request(text, kDepth, spec.fetch));
        } catch (const std::exception&) {
            // Counted as failed below.
        }
        const Clock::time_point t1 = Clock::now();
        if (spans) {
            if (answer) {
                layers_->end(spans, t0, t1, answer->trace);
            } else {
                Tracer::set_current(nullptr);
            }
        }
        const bool ok = answer.has_value() && answer->degraded().ok();
        std::lock_guard<std::mutex> lock(mu_);
        ++w_.queries;
        if (!ok) {
            ++w_.failed;
            w_.latency_ms.push_back(kFailedLatencyMs);
            return std::nullopt;
        }
        w_.latency_ms.push_back(ms_between(t0, t1));
        w_.wire_bytes += answer->trace.total_message_bytes();
        return answer;
    }

    void error(std::string what) {
        std::lock_guard<std::mutex> lock(mu_);
        if (w_.errors.size() < 8) w_.errors.push_back(std::move(what));
    }
    void lag(double ms) {
        std::lock_guard<std::mutex> lock(mu_);
        w_.lag_ms.push_back(ms);
    }
    Window& window() { return w_; }

private:
    Deployment& d_;
    LayerReport* layers_;
    std::mutex mu_;
    Window w_;
};

/// One untimed answer per topic: the reference every repetition must
/// match, and the source of rel_at_20 and the answer fingerprint.
std::vector<dir::QueryAnswer> warm_up(Deployment& d, const std::vector<Topic>& topics,
                                      const Spec& spec, Result& r) {
    std::vector<dir::QueryAnswer> answers;
    for (const Topic& t : topics) {
        answers.push_back(d.receptionist().query(
            request(t.text, kDepth, spec.fetch)));
        r.gate(answers.back().degraded().ok(), "warm-up query " + std::to_string(t.id) +
                                                   " degraded: " +
                                                   answers.back().degraded().summary());
    }
    if (spec.cache) d.receptionist().flush_caches();
    return answers;
}

/// ci-short-tcp: closed-loop clients, each over the topics in its own
/// seeded order; every repetition must answer as the warm-up did.
Window closed_loop(Deployment& d, const std::vector<Topic>& topics, const Spec& spec,
                   double seconds, std::uint64_t seed, LayerReport* layers,
                   const std::vector<dir::QueryAnswer>& warm) {
    Runner runner(d, layers);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = after(start, seconds);
    auto client = [&](int id) {
        TopicOrder order(topics.size(), seed * 1000003ULL + static_cast<std::uint64_t>(id));
        Clock::time_point last = Clock::now();
        while (Clock::now() < end) {
            const std::size_t i = order.next();
            runner.lag(ms_between(last, Clock::now()));
            const auto answer = runner.run(topics[i].text, spec);
            if (answer && !same_answer(*answer, warm[i])) {
                runner.error("topic " + std::to_string(topics[i].id) +
                             " answered differently on repeat");
            }
            last = Clock::now();
        }
    };
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) clients.emplace_back(client, i);
    for (auto& t : clients) t.join();
    runner.window().seconds = s_between(start, end);
    return std::move(runner.window());
}

/// Eight consecutive words of a random corpus document: a one-off query.
std::string tail_query(const corpus::SyntheticCorpus& c, std::mt19937_64& rng) {
    const auto& sub = c.subcollections[rng() % c.subcollections.size()];
    const std::string& text = sub.documents[rng() % sub.documents.size()].text;
    std::vector<std::string> words;
    std::istringstream in(text);
    for (std::string w; in >> w;) words.push_back(std::move(w));
    const std::size_t first = words.size() > 8 ? rng() % (words.size() - 8) : 0;
    std::string out;
    for (std::size_t i = first; i < words.size() && i < first + 8; ++i) {
        if (!out.empty()) out += ' ';
        out += words[i];
    }
    return out;
}

/// cv-live-mix: Zipf readers over the 40 topics plus one-off tail
/// queries, and one writer ingesting 16-document batches at a fixed
/// rate, compacting every few batches.
Window live_mix(Deployment& d, const corpus::SyntheticCorpus& c, const std::vector<Topic>& topics,
                const Spec& spec, double seconds, std::uint64_t seed, LayerReport* layers) {
    Runner runner(d, layers);
    IngestFeed feed(seed, d.num_librarians());
    std::vector<double> zipf_cdf;
    double total = 0.0;
    for (std::size_t i = 0; i < topics.size(); ++i) zipf_cdf.push_back(total += 1.0 / (i + 1.0));
    // The short topics hold popularity ranks 1-20 and the long ones ranks
    // 21-40 (topics holds the short ones first). Within each class the
    // ranking drifts: it rotates by one topic every 1/20 of the window,
    // so over the window each topic of a class is equally popular and
    // the latency distribution does not hang on which topic is rank 1.
    const std::size_t half = topics.size() / 2;

    std::uint64_t before = 0;
    for (std::size_t i = 0; i < d.num_librarians(); ++i) before += d.librarian(i).num_documents();

    const Clock::time_point start = Clock::now();
    const Clock::time_point end = after(start, seconds);
    auto topic_at = [&](std::size_t rank) {
        const auto shift = static_cast<std::size_t>(static_cast<double>(half) *
                                                    s_between(start, Clock::now()) / seconds);
        const std::size_t cls = rank < half ? 0 : half;
        return cls + (rank - cls + shift) % half;
    };
    auto reader = [&](int id) {
        std::mt19937_64 rng(seed * 1000003ULL + static_cast<std::uint64_t>(id));
        Clock::time_point last = Clock::now();
        while (Clock::now() < end) {
            std::string text;
            if (uniform01(rng) < kTailShare) {
                text = tail_query(c, rng);
            } else {
                const double u = uniform01(rng) * total;
                const auto rank = static_cast<std::size_t>(
                    std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), u) - zipf_cdf.begin());
                text = topics[topic_at(std::min(rank, topics.size() - 1))].text;
            }
            runner.lag(ms_between(last, Clock::now()));
            runner.run(text, spec);
            last = Clock::now();
        }
    };
    std::vector<std::thread> readers;
    for (int i = 0; i < kLiveReaders; ++i) readers.emplace_back(reader, i);

    Window writes;
    for (std::uint64_t b = 0;; ++b) {
        const Clock::time_point due = after(start, static_cast<double>(b + 1) / kBatchesPerSecond);
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        auto [target, req] = feed.next();
        ++writes.batches;
        try {
            const Clock::time_point t0 = Clock::now();
            const dir::IngestResponse resp = d.receptionist().ingest(target, req);
            writes.ingest_ms.push_back(ms_between(t0, Clock::now()));
            writes.accepted += resp.accepted;
            if ((b + 1) % kBatchesPerCompaction == 0) {
                d.receptionist().compact((b / kBatchesPerCompaction) % d.num_librarians(),
                                         dir::CompactRequest{true});
            }
        } catch (const std::exception&) {
            ++writes.batches_failed;
        }
    }
    for (auto& t : readers) t.join();

    Window w = std::move(runner.window());
    w.seconds = s_between(start, end);
    std::uint64_t live_docs = 0;
    for (std::size_t i = 0; i < d.num_librarians(); ++i) live_docs += d.librarian(i).num_documents();
    w.ingest_ms = std::move(writes.ingest_ms);
    w.batches = writes.batches;
    w.batches_failed = writes.batches_failed;
    w.accepted = writes.accepted;
    w.grown = live_docs - before;
    return w;
}

Window run_window(Deployment& d, const corpus::SyntheticCorpus& c,
                  const std::vector<Topic>& topics, const Spec& spec, double seconds,
                  std::uint64_t seed, LayerReport* layers,
                  const std::vector<dir::QueryAnswer>& warm) {
    if (spec.cache) return live_mix(d, c, topics, spec, seconds, seed, layers);
    return closed_loop(d, topics, spec, seconds, seed, layers, warm);
}

/// Gates on what the window itself saw.
void gate_window(const Window& w, const Spec& spec, Result& r) {
    for (const std::string& e : w.errors) r.gate(false, e);
    if (spec.cache) {
        r.gate(w.accepted == w.batches * IngestFeed::kBatchDocs,
               "ingest acknowledged " + std::to_string(w.accepted) + " of " +
                   std::to_string(w.batches * IngestFeed::kBatchDocs) + " documents");
        r.gate(w.grown == w.accepted, "librarians grew by " + std::to_string(w.grown) +
                                          " documents but ingest acknowledged " +
                                          std::to_string(w.accepted));
    }
    r.attempted += w.queries + w.batches;
    r.failed += w.failed + w.batches_failed;
}

/// ci-short-tcp: every fetched payload decodes to the document its
/// ranked (librarian, doc) names.
void gate_payloads(Deployment& d, const corpus::SyntheticCorpus& c,
                   const std::vector<dir::QueryAnswer>& warm, Result& r) {
    for (const dir::QueryAnswer& a : warm) {
        bool ok = a.documents.size() == a.ranking.size() && !a.ranking.empty();
        for (std::size_t j = 0; ok && j < a.ranking.size(); ++j) {
            const dir::GlobalResult& g = a.ranking[j];
            const dir::FetchedDocument& doc = a.documents[j];
            const auto& source = c.subcollections[g.librarian].documents[g.doc];
            const std::string text =
                doc.compressed ? d.librarian(g.librarian).store().codec().decode(doc.payload)
                               : std::string(doc.payload.begin(), doc.payload.end());
            ok = doc.external_id == source.external_id && text == source.text;
        }
        r.gate(ok, "a fetched payload does not decode to its ranked document");
    }
}

/// cv-live-mix: after the stream and a re-prepare, a cache-served answer
/// equals the uncached fan-out it was cached from.
void gate_cache(Deployment& d, const std::vector<Topic>& topics, Result& r) {
    d.reprepare();
    d.receptionist().flush_caches();
    for (const Topic& t : topics) {
        const dir::QueryRequest req = request(t.text, kDepth);
        const dir::QueryAnswer fresh = d.receptionist().query(req);
        const dir::QueryAnswer cached = d.receptionist().query(req);
        r.gate(fresh.degraded().ok() && !fresh.trace.served_from_cache &&
                   cached.trace.served_from_cache && cached.ranking == fresh.ranking,
               "topic " + std::to_string(t.id) + ": cached answer differs from its fan-out");
    }
}

/// CV rankings of the long topics to depth 1000, untimed: the input of
/// the CV == MS oracle.
std::vector<std::vector<dir::GlobalResult>> oracle_rankings(Deployment& d,
                                                            const corpus::SyntheticCorpus& c) {
    std::vector<std::vector<dir::GlobalResult>> out;
    for (const auto& q : c.long_queries.queries) {
        out.push_back(d.receptionist().query(request(q.text, kOracleDepth)).ranking);
    }
    d.receptionist().flush_caches();
    return out;
}

/// The CV ranking of every long topic equals the mono-server (MS)
/// ranking to depth 1000, scores bit for bit (the CV == MS oracle). The
/// MS reference is what an MS librarian computes — one index over every
/// document in subcollection order, ranked by the library's query
/// processor with collection-wide weights — without building the
/// document store the oracle never reads.
void gate_mono_server(const corpus::SyntheticCorpus& c,
                      const std::vector<std::vector<dir::GlobalResult>>& cv, Result& r) {
    const teraphim::text::Pipeline pipeline;
    teraphim::index::IndexBuilder builder;
    std::vector<std::uint32_t> offsets{0};
    for (const auto& sub : c.subcollections) {
        for (const auto& doc : sub.documents) builder.add_document(pipeline.terms(doc.text));
        offsets.push_back(offsets.back() + static_cast<std::uint32_t>(sub.documents.size()));
    }
    const teraphim::index::InvertedIndex mono = std::move(builder).build();
    const teraphim::rank::QueryProcessor ms(mono, teraphim::rank::cosine_log_tf());
    for (std::size_t i = 0; i < cv.size(); ++i) {
        const auto& q = c.long_queries.queries[i];
        const auto ranking =
            ms.rank(teraphim::rank::parse_query(q.text, pipeline), kOracleDepth);
        bool ok = ranking.size() == cv[i].size();
        for (std::size_t j = 0; ok && j < cv[i].size(); ++j) {
            const dir::GlobalResult& g = cv[i][j];
            ok = ranking[j].doc == offsets[g.librarian] + g.doc &&
                 std::memcmp(&ranking[j].score, &g.score, sizeof g.score) == 0;
        }
        r.gate(ok, "topic " + std::to_string(q.id) + ": CV ranking differs from MS");
    }
}

std::string hex(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

}  // namespace

bool known_workload(const std::string& name) {
    return std::any_of(std::begin(kSpecs), std::end(kSpecs),
                       [&](const Spec& s) { return name == s.name; });
}

Result run_workload(const Args& args) {
    const Spec& spec = *std::find_if(std::begin(kSpecs), std::end(kSpecs),
                                     [&](const Spec& s) { return args.workload == s.name; });
    Result r;
    r.gate(default_seed_matches_paper_config(),
           "the benchmark's corpus config no longer matches bench::paper_corpus_config()");
    // Every seed runs on the paper stand-in itself: the seed drives the
    // streams (query order, Zipf and tail draws, the ingest feed), not
    // the corpus, whose per-topic costs would otherwise move the
    // latencies between seeds by more than any bound.
    const corpus::SyntheticCorpus c = corpus::generate_corpus(workload_corpus_config(kPaperSeed));
    std::vector<Topic> topics;
    for (const auto& q : c.short_queries.queries) topics.push_back({q.id, q.text});
    if (spec.cache) {
        for (const auto& q : c.long_queries.queries) topics.push_back({q.id, q.text});
    }
    dir::ReceptionistOptions options = paper_options(spec.mode);
    options.cache.enabled = spec.cache;

    std::vector<double> setup_s;
    auto library_setup = [&] {
        const Clock::time_point t0 = Clock::now();
        std::unique_ptr<Deployment> d = make_library_deployment(c, options, spec.tcp);
        setup_s.push_back(s_between(t0, Clock::now()));
        return d;
    };

    // The tracer outlives every deployment: their channels and servers
    // call into it until they are torn down.
    Tracer tracer;
    LayerReport layers;
    LayerReport::Extras extras;
    std::unique_ptr<Deployment> d;
    std::vector<dir::QueryAnswer> warm;
    std::vector<std::vector<dir::GlobalResult>> oracle;
    Window w;
    if (!args.trace) {
        for (int i = 0; i < kSetupSamples; ++i) {
            d.reset();
            d = library_setup();
        }
        warm = warm_up(*d, topics, spec, r);
        if (spec.mode == dir::Mode::CentralVocabulary) oracle = oracle_rankings(*d, c);
        w = run_window(*d, c, topics, spec, args.seconds, args.seed, nullptr, warm);
    } else {
        // Phase A: the library deployment, untraced, for the overhead base.
        d = library_setup();
        warm = warm_up(*d, topics, spec, r);
        if (spec.mode == dir::Mode::CentralVocabulary) oracle = oracle_rankings(*d, c);
        const Window base = run_window(*d, c, topics, spec, args.seconds / 2, args.seed, nullptr, warm);
        gate_window(base, spec, r);
        extras.untraced_p50_ms = median(base.latency_ms);
        d.reset();
        // Phase B: the same parts assembled by hand with spans.
        d = make_traced_deployment(c, options, spec.tcp, tracer, extras.build_s, extras.prepare_s);
        const std::vector<dir::QueryAnswer> again = warm_up(*d, topics, spec, r);
        for (std::size_t i = 0; i < topics.size(); ++i) {
            r.gate(same_answer(again[i], warm[i]),
                   "topic " + std::to_string(topics[i].id) + " differs between deployments");
        }
        const auto start = tracer.totals();
        w = run_window(*d, c, topics, spec, args.seconds / 2, args.seed, &layers, warm);
        extras.stream_totals = subtract(tracer.totals(), start);
        extras.traced_p50_ms = median(w.latency_ms);
    }
    gate_window(w, spec, r);
    const double rss_mb = peak_rss_mb();
    for (std::size_t i = 0; i < d->num_librarians(); ++i) {
        extras.delta_docs_end += d->librarian(i).delta_documents();
    }

    // Outputs: relevance and fingerprint come from the warm-up answers,
    // which depend only on the seed.
    double rel = 0.0;
    Fingerprint fp;
    for (std::size_t i = 0; i < topics.size(); ++i) {
        rel += static_cast<double>(relevant_in_top20(*d, c, topics[i].id, warm[i]));
        fp.add_ranking(warm[i].ranking);
        for (const auto& doc : warm[i].documents) fp.add_bytes(doc.payload);
    }
    rel /= static_cast<double>(topics.size());

    if (spec.tcp) gate_payloads(*d, c, warm, r);
    if (spec.cache) gate_cache(*d, topics, r);
    if (args.trace) {
        for (const Topic& t : topics) {
            layers.add_decode_walk(*d, t.text);
            if (!spec.fetch) {
                const dir::QueryAnswer a =
                    d->receptionist().query(request(t.text, kDepth, true));
                layers.add_fetch(a.trace);
            }
        }
    }
    std::vector<double> ingest_ms = w.ingest_ms;
    if (!spec.cache) {
        const IngestProbe probe = run_ingest_probe(*d, args.seed, kProbeBatches);
        r.gate(probe.accepted == kProbeBatches * IngestFeed::kBatchDocs &&
                   probe.grown == probe.accepted,
               "ingest probe: acknowledged " + std::to_string(probe.accepted) +
                   " documents, librarians grew by " + std::to_string(probe.grown));
        ingest_ms = probe.ingest_ms;
    }
    if (args.trace) extras.final_totals = tracer.totals();
    d.reset();
    if (!oracle.empty()) gate_mono_server(c, oracle, r);

    const std::uint64_t ok_queries = w.queries - w.failed;
    r.info.push_back({"fingerprint", hex(fp.h)});
    r.info.push_back({"timed_queries", std::to_string(w.queries)});
    r.info.push_back({"setup_samples", std::to_string(setup_s.size())});
    if (!args.trace) {
        const double p50 = median(w.latency_ms);
        const double setup = median(setup_s);
        const auto [lo, hi] = std::minmax_element(setup_s.begin(), setup_s.end());
        r.info.push_back({"setup_spread", std::to_string((*hi - *lo) / setup)});
        r.info.push_back({"latency_iqr_frac",
                          std::to_string((quantile(w.latency_ms, 0.75) -
                                          quantile(w.latency_ms, 0.25)) / p50)});
        r.add("setup_s", setup, "s");
        r.add("latency_p50_ms", p50, "ms");
        r.info.push_back({"latency_p99_ms", std::to_string(quantile(w.latency_ms, 0.99))});
        r.add("latency_p90_ms", quantile(w.latency_ms, 0.90), "ms");
        r.add("throughput_qps", static_cast<double>(ok_queries) / w.seconds, "queries/s");
        r.add("answered_frac",
              1.0 - static_cast<double>(r.failed) / static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)),
              "fraction");
        r.add("wire_bytes_per_query",
              static_cast<double>(w.wire_bytes) / static_cast<double>(std::max<std::uint64_t>(ok_queries, 1)),
              "bytes");
        r.add("rel_at_20", rel, "docs");
        r.add("peak_rss_mb", rss_mb, "MiB");
        r.add("ingest_p50_ms", median(ingest_ms), "ms");
    } else {
        extras.generator_lag_p99_ms = quantile(w.lag_ms, 0.99);
        layers.emit(r, extras);
    }
    return r;
}

}  // namespace perfbench

#include "trace.h"

#include <algorithm>
#include <thread>

#include "index/postings.h"
#include "rank/similarity.h"

namespace perfbench {

namespace {

thread_local std::shared_ptr<QuerySpans> t_current;

/// Length of the union of `spans` clipped to [lo, hi], ms.
double union_ms(std::vector<Interval> spans, Clock::time_point lo, Clock::time_point hi) {
    std::sort(spans.begin(), spans.end(),
              [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
    double total = 0.0;
    Clock::time_point cur_b{};
    Clock::time_point cur_e{};
    bool open = false;
    for (Interval s : spans) {
        s.begin = std::max(s.begin, lo);
        s.end = std::min(s.end, hi);
        if (s.end <= s.begin) continue;
        if (open && s.begin <= cur_e) {
            cur_e = std::max(cur_e, s.end);
            continue;
        }
        if (open) total += ms_between(cur_b, cur_e);
        cur_b = s.begin;
        cur_e = s.end;
        open = true;
    }
    if (open) total += ms_between(cur_b, cur_e);
    return total;
}

}  // namespace

void QuerySpans::settle() {
    while (pending.load(std::memory_order_acquire) > 0) std::this_thread::yield();
}

/// Channel decorator: registers each request for handler linkage and
/// records its submit -> ready span when the future completes.
class SpanChannel final : public dir::Channel {
public:
    SpanChannel(std::unique_ptr<dir::Channel> inner, std::size_t librarian, Tracer& tracer)
        : inner_(std::move(inner)), librarian_(librarian), tracer_(&tracer) {}

    teraphim::util::Future<net::Message> submit(const net::Message& request) override {
        std::shared_ptr<QuerySpans> spans = t_current;
        tracer_->on_submit(Tracer::key(librarian_, request), spans);
        if (spans) spans->pending.fetch_add(1, std::memory_order_relaxed);
        const Clock::time_point t0 = Clock::now();
        teraphim::util::Future<net::Message> fut = inner_->submit(request);
        fut.on_ready([tracer = tracer_, spans, type = request.type, t0] {
            const Interval span{t0, Clock::now()};
            tracer->on_channel(type, span);
            if (spans) {
                {
                    std::lock_guard<std::mutex> lock(spans->mu);
                    spans->channel.push_back(span);
                }
                spans->pending.fetch_sub(1, std::memory_order_release);
            }
        });
        return fut;
    }

    teraphim::util::Future<net::Message> submit_backup(const net::Message& request) override {
        return inner_->submit_backup(request);
    }
    void reset() override { inner_->reset(); }
    const std::string& name() const override { return inner_->name(); }

private:
    std::unique_ptr<dir::Channel> inner_;
    std::size_t librarian_;
    Tracer* tracer_;
};

void Tracer::set_current(std::shared_ptr<QuerySpans> spans) { t_current = std::move(spans); }

std::uint64_t Tracer::key(std::size_t librarian, const net::Message& m) {
    Fingerprint f;
    f.add(librarian);
    f.add(static_cast<std::uint64_t>(m.type));
    f.add_bytes(m.payload);
    return f.h;
}

std::unique_ptr<dir::Channel> Tracer::wrap_channel(std::unique_ptr<dir::Channel> inner,
                                                   std::size_t librarian) {
    return std::make_unique<SpanChannel>(std::move(inner), librarian, *this);
}

net::MessageServer::Handler Tracer::wrap_handler(dir::Librarian& lib, std::size_t librarian) {
    return [this, &lib, librarian](const net::Message& m) {
        const std::uint64_t k = key(librarian, m);
        const Clock::time_point t0 = Clock::now();
        net::Message reply = lib.handle(m);
        on_handle(k, librarian, m.type, {t0, Clock::now()});
        return reply;
    };
}

void Tracer::on_submit(std::uint64_t key, const std::shared_ptr<QuerySpans>& spans) {
    std::lock_guard<std::mutex> lock(mu_);
    waiting_[key].push_back(spans);
}

void Tracer::on_channel(net::MessageType type, const Interval& span) {
    std::lock_guard<std::mutex> lock(mu_);
    TypeTotals& t = totals_[type];
    t.channel_ms += ms_between(span.begin, span.end);
    ++t.channel_n;
}

void Tracer::on_handle(std::uint64_t key, std::size_t librarian, net::MessageType type,
                       const Interval& busy) {
    std::shared_ptr<QuerySpans> spans;
    {
        std::lock_guard<std::mutex> lock(mu_);
        TypeTotals& t = totals_[type];
        t.handle_ms += ms_between(busy.begin, busy.end);
        ++t.handle_n;
        const auto it = waiting_.find(key);
        if (it != waiting_.end()) {
            spans = std::move(it->second.front());
            it->second.pop_front();
            if (it->second.empty()) waiting_.erase(it);
        }
    }
    if (spans) {
        std::lock_guard<std::mutex> lock(spans->mu);
        spans->handler.push_back({librarian, busy});
    }
}

std::map<net::MessageType, TypeTotals> Tracer::totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return totals_;
}

namespace {

class TracedDeployment final : public Deployment {
public:
    TracedDeployment(const corpus::SyntheticCorpus& corpus, const dir::ReceptionistOptions& options,
                     bool tcp, Tracer& tracer, double& build_s, double& prepare_s) {
        const Clock::time_point t0 = Clock::now();
        for (const auto& sub : corpus.subcollections) {
            librarians_.push_back(dir::build_librarian(sub));
        }
        build_s = s_between(t0, Clock::now());
        std::vector<std::unique_ptr<dir::Channel>> channels;
        for (std::size_t i = 0; i < librarians_.size(); ++i) {
            dir::Librarian& lib = *librarians_[i];
            std::unique_ptr<dir::Channel> channel;
            if (tcp) {
                servers_.push_back(std::make_unique<net::MessageServer>(
                    0, tracer.wrap_handler(lib, i), net::ServerLimits{}, &lib.metrics()));
                channel = std::make_unique<dir::TcpChannel>(
                    lib.name(), "127.0.0.1", servers_.back()->port(),
                    dir::TcpChannel::Timeouts{options.fault.connect_timeout_ms,
                                              options.fault.io_timeout_ms});
            } else {
                channel = std::make_unique<dir::HandlerChannel>(lib.name(),
                                                                tracer.wrap_handler(lib, i));
            }
            channels.push_back(tracer.wrap_channel(std::move(channel), i));
        }
        receptionist_ = std::make_unique<dir::Receptionist>(std::move(channels), options);
        const Clock::time_point t1 = Clock::now();
        prepare();
        prepare_s = s_between(t1, Clock::now());
    }

    ~TracedDeployment() override {
        receptionist_.reset();  // closes client connections first
        for (auto& server : servers_) server->stop();
    }

    dir::Receptionist& receptionist() override { return *receptionist_; }
    dir::Librarian& librarian(std::size_t i) override { return *librarians_[i]; }
    std::size_t num_librarians() const override { return librarians_.size(); }
    void reprepare() override { prepare(); }

private:
    void prepare() {
        std::vector<teraphim::index::InvertedIndex> live;
        std::vector<const teraphim::index::InvertedIndex*> indexes;
        if (receptionist_->options().mode == dir::Mode::CentralIndex) {
            for (const auto& lib : librarians_) live.push_back(lib->materialize_index());
            for (const auto& ix : live) indexes.push_back(&ix);
        }
        receptionist_->prepare(indexes);
    }

    std::vector<std::unique_ptr<dir::Librarian>> librarians_;
    std::vector<std::unique_ptr<net::MessageServer>> servers_;
    std::unique_ptr<dir::Receptionist> receptionist_;
};

}  // namespace

std::unique_ptr<Deployment> make_traced_deployment(const corpus::SyntheticCorpus& corpus,
                                                   const dir::ReceptionistOptions& options,
                                                   bool tcp, Tracer& tracer, double& build_s,
                                                   double& prepare_s) {
    return std::make_unique<TracedDeployment>(corpus, options, tcp, tracer, build_s, prepare_s);
}

std::shared_ptr<QuerySpans> LayerReport::begin(std::string_view text) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<std::string> terms = pipeline_.terms(text);
    const double us = ms_between(t0, Clock::now()) * 1000.0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        parse_us_ += us;
        terms_ += terms.size();
    }
    auto spans = std::make_shared<QuerySpans>();
    Tracer::set_current(spans);
    return spans;
}

void LayerReport::end(const std::shared_ptr<QuerySpans>& spans, Clock::time_point q0,
                      Clock::time_point q1, const dir::QueryTrace& trace) {
    Tracer::set_current(nullptr);
    spans->settle();
    std::vector<Interval> handler;
    std::map<std::size_t, double> per_librarian;
    double frames = 0;
    double channel_union = 0.0;
    {
        std::lock_guard<std::mutex> lock(spans->mu);
        for (const auto& [lib, busy] : spans->handler) {
            handler.push_back(busy);
            per_librarian[lib] += ms_between(busy.begin, busy.end);
        }
        frames = static_cast<double>(spans->channel.size());
        channel_union = union_ms(spans->channel, q0, q1);
    }
    const double handler_union = union_ms(handler, q0, q1);
    double lib_sum = 0.0;
    double lib_max = 0.0;
    for (const auto& [lib, ms] : per_librarian) {
        lib_sum += ms;
        lib_max = std::max(lib_max, ms);
    }
    const auto& t = trace.timing;
    std::lock_guard<std::mutex> lock(mu_);
    ++queries_;
    wall_ms_ += ms_between(q0, q1);
    union_ms_ += channel_union;
    handler_ms_ += handler_union;
    lib_sum_ms_ += lib_sum;
    lib_max_ms_ += lib_max;
    frames_ += static_cast<std::uint64_t>(frames);
    stage_parse_ += t.parse_ms;
    stage_submit_ += t.submit_ms;
    stage_gather_ += t.gather_ms;
    stage_merge_ += t.merge_ms;
    stage_residual_ += t.total_ms - t.parse_ms - t.submit_ms - t.gather_ms - t.merge_ms - t.fetch_ms;
    for (const auto& w : trace.index_phase) {
        postings_ += w.postings_decoded;
        bits_ += w.index_bits_read;
        lists_ += w.lists_opened;
    }
    central_postings_ += trace.receptionist.central_postings;
    candidates_ += trace.receptionist.candidates_expanded;
    if (trace.served_from_cache) ++cache_hits_;
    if (trace.stale_generation) ++stale_;
    if (!trace.fetch_phase.empty()) add_fetch_locked(trace);
}

void LayerReport::add_fetch(const dir::QueryTrace& trace) {
    std::lock_guard<std::mutex> lock(mu_);
    add_fetch_locked(trace);
}

void LayerReport::add_fetch_locked(const dir::QueryTrace& trace) {
    ++fetch_queries_;
    stage_fetch_ += trace.timing.fetch_ms;
    for (const auto& f : trace.fetch_phase) {
        fetched_docs_ += f.docs;
        payload_bytes_ += f.payload_bytes;
    }
}

void LayerReport::add_decode_walk(Deployment& d, std::string_view text) {
    const teraphim::rank::Query query = teraphim::rank::parse_query(text, pipeline_);
    std::uint64_t postings = 0;
    std::uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < d.num_librarians(); ++i) {
        const teraphim::index::InvertedIndex& ix = d.librarian(i).index();
        for (const auto& qt : query.terms) {
            const auto id = ix.vocabulary().lookup(qt.term);
            if (!id) continue;
            teraphim::index::PostingsCursor cursor(ix.postings(*id), false);
            for (; !cursor.at_end(); cursor.next()) sink += cursor.doc() ^ cursor.fdt();
            postings += cursor.postings_decoded();
        }
    }
    const double ns = ms_between(t0, Clock::now()) * 1e6;
    std::lock_guard<std::mutex> lock(mu_);
    decode_ns_ += ns;
    decode_postings_ += postings;
    decode_sink_ += sink;
}

namespace {

TypeTotals sum_of(const std::map<net::MessageType, TypeTotals>& totals,
                  std::initializer_list<net::MessageType> types) {
    TypeTotals out;
    for (net::MessageType type : types) {
        const auto it = totals.find(type);
        if (it == totals.end()) continue;
        out.channel_ms += it->second.channel_ms;
        out.channel_n += it->second.channel_n;
        out.handle_ms += it->second.handle_ms;
        out.handle_n += it->second.handle_n;
    }
    return out;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

std::map<net::MessageType, TypeTotals> subtract(std::map<net::MessageType, TypeTotals> end,
                                                const std::map<net::MessageType, TypeTotals>& start) {
    for (const auto& [type, s] : start) {
        TypeTotals& e = end[type];
        e.channel_ms -= s.channel_ms;
        e.channel_n -= s.channel_n;
        e.handle_ms -= s.handle_ms;
        e.handle_n -= s.handle_n;
    }
    return end;
}

void LayerReport::emit(Result& r, const Extras& x) const {
    using T = net::MessageType;
    std::lock_guard<std::mutex> lock(mu_);
    const double n = static_cast<double>(std::max<std::uint64_t>(queries_, 1));
    const TypeTotals rank = sum_of(x.stream_totals, {T::RankRequest, T::RankWeightedRequest,
                                                     T::CandidateRequest});
    const TypeTotals fetch = sum_of(x.final_totals, {T::FetchRequest});
    TypeTotals all;
    for (const auto& [type, t] : x.stream_totals) {
        all.channel_ms += t.channel_ms;
        all.channel_n += t.channel_n;
        all.handle_ms += t.handle_ms;
    }
    const double decode_ns = ratio(decode_ns_, static_cast<double>(decode_postings_));
    const double postings = static_cast<double>(postings_);

    r.add("text.parse_us", parse_us_ / n, "us");
    r.add("text.terms_per_query", static_cast<double>(terms_) / n, "count");
    r.add("dir.librarian.rank_ms", ratio(rank.handle_ms, static_cast<double>(rank.handle_n)), "ms");
    r.add("dir.librarian.sum_ms_per_query", lib_sum_ms_ / n, "ms");
    r.add("dir.librarian.max_ms_per_query", lib_max_ms_ / n, "ms");
    r.add("index.postings_per_query", postings / n, "count");
    r.add("index.bits_per_query", static_cast<double>(bits_) / n, "bits");
    r.add("index.lists_per_query", static_cast<double>(lists_) / n, "count");
    r.add("index.decode_ns_per_posting", decode_ns, "ns");
    r.add("rank.score_ns_per_posting",
          ratio(rank.handle_ms * 1e6 - decode_ns * postings, postings), "ns");
    r.add("dir.receptionist.self_ms", (wall_ms_ - union_ms_) / n, "ms");
    r.add("dir.central.postings_per_query", static_cast<double>(central_postings_) / n, "count");
    r.add("dir.central.candidates_per_query", static_cast<double>(candidates_) / n, "count");
    r.add("dir.stage.parse_ms", stage_parse_ / n, "ms");
    r.add("dir.stage.submit_ms", stage_submit_ / n, "ms");
    r.add("dir.stage.gather_ms", stage_gather_ / n, "ms");
    r.add("dir.stage.merge_ms", stage_merge_ / n, "ms");
    r.add("dir.stage.fetch_ms", ratio(stage_fetch_, static_cast<double>(fetch_queries_)), "ms");
    r.add("dir.stage.residual_ms", stage_residual_ / n, "ms");
    r.add("dir.librarian.fetch_ms", ratio(fetch.handle_ms, static_cast<double>(fetch.handle_n)),
          "ms");
    r.add("net.rtt_ms", ratio(all.channel_ms, static_cast<double>(all.channel_n)), "ms");
    r.add("net.wait_ms",
          ratio(all.channel_ms - all.handle_ms, static_cast<double>(all.channel_n)), "ms");
    r.add("net.frames_per_query", static_cast<double>(frames_) / n, "count");
    r.add("store.docs_per_query",
          ratio(static_cast<double>(fetched_docs_), static_cast<double>(fetch_queries_)), "count");
    r.add("store.payload_bytes_per_doc",
          ratio(static_cast<double>(payload_bytes_), static_cast<double>(fetched_docs_)), "bytes");
    r.add("cache.hit_ratio", static_cast<double>(cache_hits_) / n, "fraction");
    r.add("cache.stale_frac", static_cast<double>(stale_) / n, "fraction");
    const TypeTotals ingest = sum_of(x.final_totals, {T::IngestRequest});
    const TypeTotals compact = sum_of(x.final_totals, {T::CompactRequest});
    r.add("dir.librarian.ingest_ms", ratio(ingest.handle_ms, static_cast<double>(ingest.handle_n)),
          "ms");
    r.add("dir.librarian.compact_ms",
          ratio(compact.handle_ms, static_cast<double>(compact.handle_n)), "ms");
    r.add("index.delta_docs_end", static_cast<double>(x.delta_docs_end), "count");
    r.add("setup.build_s", x.build_s, "s");
    r.add("setup.prepare_s", x.prepare_s, "s");
    r.add("bench.generator_lag_p99_ms", x.generator_lag_p99_ms, "ms");
    r.add("bench.trace_overhead_frac", ratio(x.traced_p50_ms, x.untraced_p50_ms) - 1.0, "fraction");
    r.add("acct.query_ms", wall_ms_ / n, "ms");
    r.add("acct.librarian_ms", handler_ms_ / n, "ms");
    r.add("acct.channel_ms", (union_ms_ - handler_ms_) / n, "ms");
    r.add("acct.residual_ms", (wall_ms_ - stage_parse_ - stage_merge_ - union_ms_) / n, "ms");
}

}  // namespace perfbench

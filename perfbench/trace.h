// Traced runs: spans recorded from outside the library.
//
// A traced deployment is assembled from the library's public parts with
// two kinds of probes: a Channel decorator that records each request's
// submit -> ready span (completion via util::Future::on_ready), and a
// wrapper around Librarian::handle that records the librarian's busy
// interval. Handler intervals are tied back to the query that caused
// them by a key over (librarian, type, payload) registered at submit,
// so the same code links in-process and loopback-TCP requests.
//
// LayerReport turns the spans, the QueryTrace counters and StageTimings
// into the per-layer metrics, including an accounting identity:
//   query = parse + merge + librarian + channel + residual
// where librarian is the union of this query's handler intervals,
// channel the rest of the union of its channel spans (wire, server queue
// and transport for TCP; call overhead in-process), and residual the
// receptionist time no span or stage covers.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "text/pipeline.h"

namespace perfbench {

struct Interval {
    Clock::time_point begin;
    Clock::time_point end;
};

/// Spans of one user query. Completion callbacks may land on transport
/// threads after the query thread has woken, so readers wait for
/// `pending` to drain first (QuerySpans::settle).
struct QuerySpans {
    std::mutex mu;
    std::vector<Interval> channel;
    std::vector<std::pair<std::size_t, Interval>> handler;  ///< (librarian, busy interval)
    std::atomic<int> pending{0};

    void settle();
};

/// Per-request-type totals over a whole phase.
struct TypeTotals {
    double channel_ms = 0.0;
    std::uint64_t channel_n = 0;
    double handle_ms = 0.0;
    std::uint64_t handle_n = 0;
};

class Tracer {
public:
    /// The query the calling thread is running (null outside queries).
    static void set_current(std::shared_ptr<QuerySpans> spans);

    std::unique_ptr<dir::Channel> wrap_channel(std::unique_ptr<dir::Channel> inner,
                                               std::size_t librarian);
    net::MessageServer::Handler wrap_handler(dir::Librarian& lib, std::size_t librarian);

    std::map<net::MessageType, TypeTotals> totals() const;

private:
    friend class SpanChannel;
    static std::uint64_t key(std::size_t librarian, const net::Message& m);
    void on_submit(std::uint64_t key, const std::shared_ptr<QuerySpans>& spans);
    void on_channel(net::MessageType type, const Interval& span);
    void on_handle(std::uint64_t key, std::size_t librarian, net::MessageType type,
                   const Interval& busy);

    mutable std::mutex mu_;
    std::map<net::MessageType, TypeTotals> totals_;
    std::unordered_map<std::uint64_t, std::deque<std::shared_ptr<QuerySpans>>> waiting_;
};

/// Per-type totals accumulated between two Tracer::totals() snapshots.
std::map<net::MessageType, TypeTotals> subtract(std::map<net::MessageType, TypeTotals> end,
                                                const std::map<net::MessageType, TypeTotals>& start);

/// Assembles the workload's deployment by hand — build_librarian,
/// MessageServer (TCP), TcpChannel or HandlerChannel, Receptionist —
/// with every channel and handler probed by `tracer`. Reports the time
/// spent building librarians and in Receptionist::prepare.
std::unique_ptr<Deployment> make_traced_deployment(const corpus::SyntheticCorpus& corpus,
                                                   const dir::ReceptionistOptions& options,
                                                   bool tcp, Tracer& tracer, double& build_s,
                                                   double& prepare_s);

/// Accumulates per-query layer figures over a traced phase.
class LayerReport {
public:
    /// Times text::Pipeline::terms on the query text, then makes a fresh
    /// span set current on the calling thread.
    std::shared_ptr<QuerySpans> begin(std::string_view text);
    /// Folds one finished query in (thread-safe).
    void end(const std::shared_ptr<QuerySpans>& spans, Clock::time_point q0,
             Clock::time_point q1, const dir::QueryTrace& trace);
    /// Folds in a query from the post-window fetch sweep (store layer).
    void add_fetch(const dir::QueryTrace& trace);
    /// Times a decode-only PostingsCursor walk over the query's lists on
    /// every librarian.
    void add_decode_walk(Deployment& d, std::string_view text);

    struct Extras {
        std::map<net::MessageType, TypeTotals> stream_totals;  ///< tracer at window end
        std::map<net::MessageType, TypeTotals> final_totals;   ///< after sweeps/probes
        std::uint64_t delta_docs_end = 0;
        double build_s = 0.0;
        double prepare_s = 0.0;
        double generator_lag_p99_ms = 0.0;
        double untraced_p50_ms = 0.0;
        double traced_p50_ms = 0.0;
    };
    void emit(Result& result, const Extras& extras) const;

private:
    void add_fetch_locked(const dir::QueryTrace& trace);

    mutable std::mutex mu_;
    teraphim::text::Pipeline pipeline_;
    std::uint64_t queries_ = 0;
    double parse_us_ = 0.0;
    std::uint64_t terms_ = 0;
    double decode_ns_ = 0.0;
    std::uint64_t decode_postings_ = 0;
    std::uint64_t decode_sink_ = 0;  ///< keeps the decode walk observable
    // Per-query sums.
    double wall_ms_ = 0.0, union_ms_ = 0.0, handler_ms_ = 0.0;
    double lib_sum_ms_ = 0.0, lib_max_ms_ = 0.0;
    double stage_parse_ = 0.0, stage_submit_ = 0.0, stage_gather_ = 0.0, stage_merge_ = 0.0,
           stage_residual_ = 0.0;
    std::uint64_t postings_ = 0, bits_ = 0, lists_ = 0, frames_ = 0;
    std::uint64_t central_postings_ = 0, candidates_ = 0;
    std::uint64_t cache_hits_ = 0, stale_ = 0;
    // Fetching queries (stream or sweep).
    std::uint64_t fetch_queries_ = 0, fetched_docs_ = 0, payload_bytes_ = 0;
    double stage_fetch_ = 0.0;
};

}  // namespace perfbench

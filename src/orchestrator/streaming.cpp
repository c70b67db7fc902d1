#include "orchestrator/streaming.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

#include "obs/obs.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace mecra::orchestrator {

namespace {
/// Poll interval of the pipeline/commit consumers while their queue is
/// empty. Only a latency floor for the parked path — a push wakes the
/// consumer immediately through the queue's park protocol.
constexpr std::chrono::milliseconds kIdlePoll{2};
/// Grace poll after the stop sentinel: bounds the MPSC momentary-unlink
/// race with a producer whose submit was accepted but not yet linked.
constexpr std::chrono::milliseconds kDrainPoll{1};

/// Encodes one journal record's data at the end of the ticket's buffer and
/// notes its extent; the commit thread appends it later.
template <typename Ticket, typename Encode>
void capture(Ticket& ticket, std::string_view kind, double time,
             Encode&& encode) {
  const std::size_t begin = ticket.journal_data.size();
  encode(ticket.journal_data);
  ticket.records.push_back({kind, time, begin, ticket.journal_data.size()});
}
}  // namespace

StreamingService::StreamingService(Orchestrator& orch,
                                   StreamingOptions options,
                                   Controller* controller, Journal* journal)
    : orch_(orch),
      options_(std::move(options)),
      controller_(controller),
      journal_(journal) {
  MECRA_CHECK_MSG(options_.window_width > 0.0,
                  "streaming: window_width must be positive");
  latency_hist_ = &registry().histogram("stream.admit_latency_seconds");
  shed_counter_ = &registry().counter("admit.shed");
}

StreamingService::~StreamingService() { stop(); }

obs::MetricsRegistry& StreamingService::registry() const {
  return options_.registry != nullptr ? *options_.registry
                                      : obs::MetricsRegistry::global();
}

void StreamingService::start() {
  MECRA_CHECK_MSG(!started_.load(std::memory_order_acquire),
                  "streaming: start() called twice");
  if (options_.snapshot_on_start) {
    MECRA_CHECK_MSG(controller_ != nullptr && journal_ != nullptr,
                    "streaming: snapshot_on_start needs controller+journal");
    (void)journal_->snapshot(orch_, *controller_, options_.start_time);
    // The start snapshot is the recovery anchor — make it durable before
    // accepting events, whatever the journal's group-commit policy.
    journal_->flush();
  }
  started_.store(true, std::memory_order_release);
  accepting_.store(true, std::memory_order_release);
  pipeline_thread_ = std::thread([this] { pipeline_loop(); });
  if (options_.pipelined_commit) {
    commit_thread_ = std::thread([this] { commit_loop(); });
  }
}

void StreamingService::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  accepting_.store(false, std::memory_order_release);
  if (pipeline_thread_.joinable()) {
    StreamEvent sentinel;
    sentinel.kind = StreamEventKind::kStop;
    ingress_.push(std::move(sentinel));
    pipeline_thread_.join();
  }
  if (commit_thread_.joinable()) {
    CommitTicket sentinel;
    sentinel.stop = true;
    commit_queue_.push(std::move(sentinel));
    commit_thread_.join();
  }
  started_.store(false, std::memory_order_release);
}

SubmitStatus StreamingService::submit_event(StreamEvent ev) {
  if (!accepting_.load(std::memory_order_acquire)) {
    return SubmitStatus::kStopped;
  }
  if (ev.kind == StreamEventKind::kArrival) {
    if (shed_mode_.load(std::memory_order_relaxed)) {
      shed_slo_.fetch_add(1, std::memory_order_relaxed);
      shed_counter_->add(1);
      return SubmitStatus::kShedSlo;
    }
    if (options_.max_queue_depth > 0 &&
        queue_depth_.load(std::memory_order_relaxed) >=
            options_.max_queue_depth) {
      shed_queue_.fetch_add(1, std::memory_order_relaxed);
      shed_counter_->add(1);
      return SubmitStatus::kShedQueue;
    }
  }
  ev.enqueued_at = std::chrono::steady_clock::now();
  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  ingress_.push(std::move(ev));
  return SubmitStatus::kAccepted;
}

SubmitStatus StreamingService::submit_arrival(mec::SfcRequest request,
                                              double time,
                                              std::uint64_t ticket) {
  StreamEvent ev;
  ev.kind = StreamEventKind::kArrival;
  ev.time = time;
  ev.ticket = ticket;
  ev.request = std::move(request);
  return submit_event(std::move(ev));
}

SubmitStatus StreamingService::submit_departure(ServiceId service,
                                                double time) {
  StreamEvent ev;
  ev.kind = StreamEventKind::kDeparture;
  ev.time = time;
  ev.service = service;
  return submit_event(std::move(ev));
}

SubmitStatus StreamingService::submit_readmit(ServiceId service, double time,
                                              std::uint64_t ticket) {
  StreamEvent ev;
  ev.kind = StreamEventKind::kReadmit;
  ev.time = time;
  ev.ticket = ticket;
  ev.service = service;
  return submit_event(std::move(ev));
}

void StreamingService::flush(double time) {
  StreamEvent ev;
  ev.kind = StreamEventKind::kFlush;
  ev.time = time;
  ingress_.push(std::move(ev));
}

std::uint64_t StreamingService::flushes_processed() const {
  util::LockGuard lock(flush_mutex_);
  return flushes_processed_;
}

void StreamingService::wait_flushes_processed(std::uint64_t n) {
  util::LockGuard lock(flush_mutex_);
  while (flushes_processed_ < n) flush_cv_.wait(flush_mutex_);
}

std::string StreamingService::error() const {
  util::LockGuard lock(stats_mutex_);
  return error_;
}

StreamStats StreamingService::stats() const {
  StreamStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.arrivals = arrivals_.load(std::memory_order_relaxed);
  s.readmits = readmits_.load(std::memory_order_relaxed);
  s.departures = departures_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed_queue = shed_queue_.load(std::memory_order_relaxed);
  s.shed_slo = shed_slo_.load(std::memory_order_relaxed);
  s.unknown_service = unknown_service_.load(std::memory_order_relaxed);
  s.windows = windows_.load(std::memory_order_relaxed);
  {
    util::LockGuard lock(flush_mutex_);
    s.flushes = flushes_processed_;
  }
  return s;
}

void StreamingService::record_failure(const std::string& what) {
  accepting_.store(false, std::memory_order_release);
  const bool first = !failed_.exchange(true, std::memory_order_acq_rel);
  if (first) {
    util::LockGuard lock(stats_mutex_);
    error_ = what;
  }
  if (obs::enabled()) registry().counter("stream.failures").add(1);
}

void StreamingService::pipeline_loop() {
  Window win;
  bool stop_seen = false;
  for (;;) {
    StreamEvent ev;
    if (!ingress_.try_pop(ev)) {
      if (stop_seen) {
        if (!ingress_.pop_wait(ev, kDrainPoll)) {
          if (win.open) close_window(win, WindowTrigger::kDrain);
          break;
        }
      } else if (!ingress_.pop_wait(ev, kIdlePoll)) {
        continue;
      }
    }
    if (ev.kind == StreamEventKind::kStop) {
      stop_seen = true;
      continue;
    }
    if (ev.kind == StreamEventKind::kFlush) {
      if (win.open) close_window(win, WindowTrigger::kFlush);
      util::LockGuard lock(flush_mutex_);
      ++flushes_processed_;
      flush_cv_.notify_all();
      continue;
    }
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    // After a commit failure the stream can no longer journal effects, so
    // remaining events are drained and discarded (see file comment).
    if (failed_.load(std::memory_order_acquire)) continue;
    handle_event(win, std::move(ev));
  }
}

void StreamingService::handle_event(Window& win, StreamEvent&& ev) {
  if (win.open && ev.time >= win.close_time) {
    close_window(win, WindowTrigger::kTime);
  }
  if (!win.open) {
    win.open = true;
    win.seq = next_window_seq_++;
    const double w = options_.window_width;
    win.open_time = std::floor(ev.time / w) * w;
    win.close_time = win.open_time + w;
  }
  const bool candidate = ev.kind == StreamEventKind::kArrival ||
                         ev.kind == StreamEventKind::kReadmit;
  win.events.push_back(std::move(ev));
  if (candidate) {
    ++win.candidates;
    if (options_.window_max_arrivals > 0 &&
        win.candidates >= options_.window_max_arrivals) {
      close_window(win, WindowTrigger::kSize);
    }
  }
}

void StreamingService::close_window(Window& win, WindowTrigger trigger) {
  Window w = std::move(win);
  win = Window{};
  util::Timer timer;
  CommitTicket ticket;
  WindowReport& rep = ticket.report;
  rep.seq = w.seq;
  rep.open_time = w.open_time;
  rep.close_time = w.close_time;
  rep.trigger = trigger;
  std::vector<StreamOutcome> outcomes;
  try {
    // Phase 1 — lifecycle, event order: free capacity before this
    // window's arrivals compete for it; capture re-admit requests and
    // journal payloads while the state is current.
    for (StreamEvent& ev : w.events) {
      if (ev.kind != StreamEventKind::kDeparture &&
          ev.kind != StreamEventKind::kReadmit) {
        continue;
      }
      if (!orch_.has_service(ev.service)) {
        unknown_service_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (ev.kind == StreamEventKind::kReadmit) {
        ev.request = orch_.service(ev.service).request;
        ev.readmit_valid = true;
      }
      if (journal_ != nullptr) {
        capture(ticket, kJournalTeardown, ev.time, [&](std::string& out) {
          encode_teardown_record(out, ev.service);
        });
      }
      orch_.teardown(ev.service);
      if (controller_ != nullptr) controller_->on_teardown(ev.service);
      if (ev.kind == StreamEventKind::kDeparture) ++rep.departures;
    }
    // Phase 2 — one admit_batch over arrivals + captured re-admits, event
    // order (the batch slot determines each request's derived RNG stream,
    // so the order is part of the determinism contract).
    std::vector<mec::SfcRequest> requests;
    std::vector<const StreamEvent*> candidates;
    requests.reserve(w.candidates);
    candidates.reserve(w.candidates);
    for (const StreamEvent& ev : w.events) {
      if (ev.kind == StreamEventKind::kArrival) {
        ++rep.arrivals;
      } else if (ev.kind == StreamEventKind::kReadmit) {
        ++rep.readmits;
        if (!ev.readmit_valid) {
          StreamOutcome o;
          o.ticket = ev.ticket;
          o.time = w.close_time;
          o.readmit = true;
          outcomes.push_back(o);
          ++rep.rejected;
          continue;
        }
      } else {
        continue;
      }
      requests.push_back(ev.request);
      candidates.push_back(&ev);
    }
    if (!requests.empty()) {
      util::Rng rng(util::derive_seed(
          options_.seed,
          options_.first_admission_window +
              admission_windows_.load(std::memory_order_relaxed)));
      admission_windows_.fetch_add(1, std::memory_order_relaxed);
      const std::vector<std::optional<ServiceId>> ids =
          orch_.admit_batch(requests, rng);
      std::vector<const Service*> admitted;
      admitted.reserve(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const StreamEvent& ev = *candidates[i];
        StreamOutcome o;
        o.ticket = ev.ticket;
        o.time = w.close_time;
        o.readmit = ev.kind == StreamEventKind::kReadmit;
        o.admitted = ids[i].has_value();
        if (ids[i].has_value()) {
          o.service = *ids[i];
          admitted.push_back(&orch_.service(*ids[i]));
          if (controller_ != nullptr) {
            controller_->on_admit(*ids[i], w.close_time);
          }
          ++rep.admitted;
        } else {
          ++rep.rejected;
        }
        ticket.enqueued.push_back(ev.enqueued_at);
        outcomes.push_back(o);
      }
      if (journal_ != nullptr) {
        capture(ticket, kJournalBatch, w.close_time, [&](std::string& out) {
          encode_batch_record(out, orch_, admitted);
        });
      }
    }
    if (options_.reconcile_each_window && controller_ != nullptr) {
      (void)controller_->reconcile(w.close_time);
      if (journal_ != nullptr) {
        capture(ticket, kJournalReconcile, w.close_time,
                [](std::string& out) { out += "{}"; });
      }
    }
    if (journal_ != nullptr && controller_ != nullptr &&
        options_.snapshot_every_windows > 0 &&
        (w.seq + 1) % options_.snapshot_every_windows == 0) {
      capture(ticket, kJournalSnapshot, w.close_time, [&](std::string& out) {
        encode_snapshot_record(out, orch_, *controller_);
      });
    }
  } catch (const std::exception& e) {
    record_failure(e.what());
    return;
  }
  rep.admit_seconds = timer.elapsed_seconds();
  arrivals_.fetch_add(rep.arrivals, std::memory_order_relaxed);
  readmits_.fetch_add(rep.readmits, std::memory_order_relaxed);
  departures_.fetch_add(rep.departures, std::memory_order_relaxed);
  admitted_.fetch_add(rep.admitted, std::memory_order_relaxed);
  rejected_.fetch_add(rep.rejected, std::memory_order_relaxed);
  if (options_.on_decided) options_.on_decided(outcomes);
  if (commit_thread_.joinable()) {
    {
      const std::size_t bound =
          std::max<std::size_t>(1, options_.max_inflight_windows);
      util::LockGuard lock(inflight_mutex_);
      while (windows_enqueued_ >= windows_committed_ + bound) {
        inflight_cv_.wait(inflight_mutex_);
      }
      ++windows_enqueued_;
    }
    commit_queue_.push(std::move(ticket));
  } else {
    commit_ticket(ticket);
  }
}

void StreamingService::commit_loop() {
  for (;;) {
    CommitTicket ticket;
    if (!commit_queue_.pop_wait(ticket, kIdlePoll)) continue;
    if (ticket.stop) break;
    commit_ticket(ticket);
  }
}

void StreamingService::commit_ticket(CommitTicket& ticket) {
  util::Timer timer;
  WindowReport& rep = ticket.report;
  if (journal_ != nullptr && !failed_.load(std::memory_order_acquire)) {
    try {
      const std::string_view data = ticket.journal_data;
      for (const PendingRecord& r : ticket.records) {
        (void)journal_->append(r.kind, r.time,
                               data.substr(r.begin, r.end - r.begin));
      }
      // Group-commit boundary: under Durability::per_window the window's
      // records were only framed into the journal's pending buffer; one
      // flush persists them as a single contiguous write. A no-op under
      // per_record (every append already flushed itself).
      journal_->flush();
    } catch (const std::exception& e) {
      record_failure(e.what());
    }
  }
  if (obs::enabled()) {
    const auto now = std::chrono::steady_clock::now();
    for (const auto& enqueued_at : ticket.enqueued) {
      latency_hist_->observe(
          std::chrono::duration<double>(now - enqueued_at).count());
    }
    obs::MetricsRegistry& reg = registry();
    reg.counter("stream.windows").add(1);
    reg.counter("stream.arrivals").add(rep.arrivals);
    reg.counter("stream.admitted").add(rep.admitted);
    reg.counter("stream.rejected").add(rep.rejected);
    reg.counter("stream.departures").add(rep.departures);
    reg.counter("stream.readmits").add(rep.readmits);
    reg.gauge("stream.queue_depth").set(static_cast<double>(queue_depth()));
    // The service is the delta-chain consumer (see file comment): one
    // scrape per committed window, forwarded in the report.
    rep.obs_delta = reg.delta_snapshot();
    for (const auto& h : rep.obs_delta.histograms) {
      if (h.name == "stream.admit_latency_seconds") {
        rep.p99_latency_seconds = h.data.quantile(0.99);
        break;
      }
    }
  }
  if (options_.slo_p99_seconds > 0.0) {
    if (rep.p99_latency_seconds > options_.slo_p99_seconds) {
      compliant_windows_ = 0;
      if (!shed_mode_.exchange(true, std::memory_order_relaxed) &&
          obs::enabled()) {
        registry().counter("stream.slo_trips").add(1);
      }
    } else if (shed_mode_.load(std::memory_order_relaxed) &&
               ++compliant_windows_ >= options_.slo_recover_windows) {
      shed_mode_.store(false, std::memory_order_relaxed);
      compliant_windows_ = 0;
    }
    if (obs::enabled()) {
      registry().gauge("stream.shedding")
          .set(shed_mode_.load(std::memory_order_relaxed) ? 1.0 : 0.0);
    }
  }
  rep.shedding = shed_mode_.load(std::memory_order_relaxed);
  rep.commit_seconds = timer.elapsed_seconds();
  windows_.fetch_add(1, std::memory_order_relaxed);
  {
    util::LockGuard lock(inflight_mutex_);
    ++windows_committed_;
    inflight_cv_.notify_all();
  }
  if (options_.on_commit) options_.on_commit(rep);
}

}  // namespace mecra::orchestrator

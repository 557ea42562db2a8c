// End-to-end measurement: closed-loop readers (and, in ingest_mixed, a
// paced writer) over the loopback stack, with no tracing at all.
//
// The run is kSetups phases, each reading a freshly set-up stack for an
// equal share of the window. Host speed on a shared machine drifts over
// tens of seconds and swings within one, so a figure taken from a second or
// two of the run is noisy. Without a writer, the next phase's stack is set
// up during the current phase's window, one step (one load call) at a time
// while the readers wait, so the set-up and load figures sample the whole
// run; the first stack is set up before the window and not reported. With
// the paced writer (ingest_mixed), whose schedule must not stall, each
// phase begins with a set-up of its own.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "src/core/ingest_pipeline.h"
#include "wrebench/harness.h"

namespace wrebench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// How often the readers yield to the next phase's set-up.
constexpr double kSlotSeconds = 0.25;

/// Readers pass the gate around each read. The set-up loader closes it,
/// waits until no read is in flight, runs one step and opens it again.
class Gate {
 public:
  void enter() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return !closed_; });
    ++inside_;
  }
  void leave() {
    std::lock_guard<std::mutex> l(mu_);
    if (--inside_ == 0 && closed_) cv_.notify_all();
  }
  void close() {
    std::unique_lock<std::mutex> l(mu_);
    closed_ = true;
    cv_.wait(l, [&] { return inside_ == 0; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> l(mu_);
      closed_ = false;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  int inside_ = 0;
};

/// Everything the window measured, merged over readers and phases.
struct Tally {
  std::vector<double> read_ms;
  double read_seconds = 0;  // window time the readers were not held
  std::vector<double> write_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t server_rows = 0;
  uint64_t kept_rows = 0;
  int64_t window_rows = 0;  // acknowledged by the paced writer
  /// Time the paced writer took for window_rows: from the first timed
  /// batch's due time to the last one's acknowledgement, plus one period.
  /// A writer that keeps up spends about the window; one that falls behind
  /// spends longer, which lowers write_rows_per_s below the offered rate.
  double window_write_s = 0;
  std::string first_error;

  void error(const std::string& e) {
    if (first_error.empty()) first_error = e;
  }
  void merge(const Tally& t) {
    read_ms.insert(read_ms.end(), t.read_ms.begin(), t.read_ms.end());
    read_seconds += t.read_seconds;
    write_ms.insert(write_ms.end(), t.write_ms.begin(), t.write_ms.end());
    attempted += t.attempted;
    failed += t.failed;
    mismatches += t.mismatches;
    server_rows += t.server_rows;
    kept_rows += t.kept_rows;
    window_rows += t.window_rows;
    window_write_s += t.window_write_s;
    error(t.first_error);
  }
};

/// Writer progress shared with readers: rows [0, acked) of the writer's
/// share are acknowledged, rows [0, sent) may be visible.
struct WriterProgress {
  std::atomic<int64_t> acked{0};
  std::atomic<int64_t> sent{0};
};

/// One phase's window on a freshly set-up stack. Reads continue the query
/// sequence from `next_read`, where the previous phase stopped: a run then
/// covers more distinct reads than one phase does, so the heavy-tailed
/// result sizes of a seed's few reads weigh less on the read metrics.
/// When `next` is given, its steps run spread over the window, and any
/// left at the end of the window run after it.
void measure_phase(const WorkloadConfig& cfg, const Inputs& in,
                   const Reference& ref, Stack& stack, double seconds,
                   SetUp* next, std::atomic<size_t>& next_read, Tally* out) {
  const bool writer_on = cfg.write_batches_per_s > 0;
  // The writer's first second is warm-up: its samples, and the readers',
  // are discarded.
  const auto settle = std::chrono::milliseconds(writer_on ? 1000 : 0);
  const Clock::time_point origin = Clock::now();
  const Clock::time_point t_start = origin + settle;
  const Clock::time_point t_end =
      t_start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));

  WriterProgress progress;
  Gate gate;
  std::vector<Tally> readers(cfg.client_threads);
  auto reader = [&](Tally& t) {
    for (;;) {
      gate.enter();
      const Clock::time_point t0 = Clock::now();
      if (t0 >= t_end) {
        gate.leave();
        break;
      }
      const Read& r = in.reads[next_read.fetch_add(1) % in.reads.size()];
      const bool timed = t0 >= t_start;
      const int64_t acked = progress.acked.load(std::memory_order_acquire);
      if (timed) ++t.attempted;
      core::EncryptedQueryResult res;
      try {
        res = run_read(*stack.conn, r);
      } catch (const std::exception& e) {
        gate.leave();
        if (timed) ++t.failed;
        t.error(e.what());
        continue;
      }
      const Clock::time_point t1 = Clock::now();
      gate.leave();
      const int64_t sent = progress.sent.load(std::memory_order_acquire);
      std::string err =
          ref.check(r, res, in.loaded + acked, in.loaded + sent);
      if (!err.empty()) {
        ++t.mismatches;
        t.error(err);
      }
      if (!timed) continue;
      t.read_ms.push_back(ms_between(t0, t1));
      t.server_rows += res.server_rows_returned;
      t.kept_rows += r.kind == ReadKind::kIds ? res.ids.size()
                                              : res.rows.size();
    }
  };

  Tally w;
  auto writer = [&] {
    Client client = attach_client(stack, in);
    core::IngestOptions io;
    io.threads = 1;
    io.batch_rows = cfg.write_batch_rows;
    io.stream_nonce = in.stream_nonce;
    io.start_index = static_cast<uint64_t>(in.loaded);
    core::IngestPipeline pipe(*client.conn, kTable, io);
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / cfg.write_batches_per_s));
    const auto batch = static_cast<int64_t>(cfg.write_batch_rows);
    const int64_t capacity =
        static_cast<int64_t>(in.rows.size()) - in.loaded;
    Clock::time_point first_due{};
    Clock::time_point last_ack{};
    for (int64_t k = 0;; ++k) {
      const Clock::time_point due = origin + k * period;
      if (due >= t_end) break;
      const int64_t off = k * batch;
      if (off + batch > capacity) {
        ++w.failed;
        w.error("writer ran out of registered rows");
        break;
      }
      std::this_thread::sleep_until(due);
      const bool timed = due >= t_start;
      if (timed) ++w.attempted;
      std::vector<sql::Row> rows(in.rows.begin() + in.loaded + off,
                                 in.rows.begin() + in.loaded + off + batch);
      progress.sent.store(off + batch, std::memory_order_release);
      try {
        pipe.ingest(rows);
      } catch (const std::exception& e) {
        // The batch may or may not have landed; stop writing so the
        // recovery check can bound it by `sent`.
        if (timed) ++w.failed;
        w.error(std::string("write: ") + e.what());
        break;
      }
      const Clock::time_point done = Clock::now();
      progress.acked.store(off + batch, std::memory_order_release);
      if (timed) {
        if (w.window_rows == 0) first_due = due;
        last_ack = done;
        w.write_ms.push_back(ms_between(due, done));
        w.window_rows += batch;
      }
    }
    if (w.window_rows > 0) {
      w.window_write_s =
          std::chrono::duration<double>(last_ack - first_due + period).count();
    }
  };

  // The next set-up, on this thread while the readers wait at the gate:
  // its steps in equal groups, one group in the middle of every
  // kSlotSeconds of the window. A group that falls behind still leaves the
  // readers as long as it took. The readers are held from the moment the
  // gate closes, so reads still in flight then finish inside held time.
  double held_s = 0;
  std::exception_ptr setup_error;
  auto load_next = [&] {
    const auto slots =
        std::max<size_t>(1, static_cast<size_t>(seconds / kSlotSeconds));
    const size_t per_slot = (next->steps() + slots - 1) / slots;
    Clock::time_point free_from = t_start;
    for (size_t k = 0; !next->done(); ++k) {
      const auto offset = std::chrono::duration_cast<Clock::duration>(
          (t_end - t_start) *
          ((static_cast<double>(k) + 0.5) / static_cast<double>(slots)));
      const Clock::time_point due = std::max(t_start + offset, free_from);
      if (due >= t_end) break;
      std::this_thread::sleep_until(due);
      const Clock::time_point p0 = Clock::now();
      gate.close();
      try {
        for (size_t i = 0; i < per_slot && !next->done(); ++i) next->step();
      } catch (...) {
        setup_error = std::current_exception();
      }
      const Clock::time_point p1 = Clock::now();
      gate.open();
      if (setup_error) return;
      held_s += seconds_between(p0, std::min(p1, t_end));
      free_from = p1 + (p1 - p0);
    }
  };

  {
    std::vector<std::thread> threads;
    for (auto& t : readers) threads.emplace_back(reader, std::ref(t));
    if (writer_on) threads.emplace_back(writer);
    if (next != nullptr) load_next();
    for (auto& th : threads) th.join();
  }
  if (setup_error) std::rethrow_exception(setup_error);
  if (next != nullptr) {
    while (!next->done()) next->step();
  }
  for (const auto& t : readers) out->merge(t);
  out->merge(w);
  out->read_seconds += seconds - held_s;

  if (writer_on) {
    std::string err =
        check_recovery(stack, cfg, in.loaded + progress.acked.load(),
                       in.loaded + progress.sent.load());
    if (!err.empty()) {
      ++out->mismatches;
      out->error("recovery: " + err);
    }
  }
}

std::string fmt_share(uint64_t part, uint64_t whole) {
  return std::to_string(whole == 0 ? 0.0
                                   : static_cast<double>(part) /
                                         static_cast<double>(whole));
}

}  // namespace

RunReport run_untraced(const RunOptions& opt) {
  const WorkloadConfig& cfg = workload_config(opt.workload);
  const Inputs in = make_inputs(cfg, opt.seed, opt.seconds);
  const Reference ref(in);
  const bool writer_on = cfg.write_batches_per_s > 0;
  const double phase_s = static_cast<double>(opt.seconds) / kSetups;

  std::vector<SetupResult> setups;
  Tally all;
  std::atomic<size_t> next_read{static_cast<size_t>(cfg.warm_reads)};
  if (writer_on) {
    for (int phase = 0; phase < kSetups; ++phase) {
      SetupResult res;
      std::unique_ptr<Stack> stack =
          set_up(cfg, in, opt.work_dir / "db", ref, &res);
      setups.push_back(std::move(res));
      measure_phase(cfg, in, ref, *stack, phase_s, nullptr, next_read, &all);
    }
  } else {
    // Two directories in turn: phase p reads one stack while the other is
    // set up for phase p + 1. The last set-up is measured and not read.
    auto dir = [&](int i) {
      return opt.work_dir / ("db" + std::to_string(i % 2));
    };
    SetupResult first;
    std::unique_ptr<Stack> stack = set_up(cfg, in, dir(0), ref, &first);
    for (int phase = 0; phase < kSetups; ++phase) {
      SetUp next(cfg, in, dir(phase + 1), ref);
      measure_phase(cfg, in, ref, *stack, phase_s, &next, next_read, &all);
      SetupResult res;
      stack = next.finish(&res);
      setups.push_back(std::move(res));
    }
  }

  RunReport rep;
  // Read metrics pool every timed read of the run. Over sets of ten runs on
  // a shared host, whole-window throughput and percentiles over all reads
  // spread less than medians over sub-windows or phases. Throughput counts
  // only the window time the readers were not held for a set-up step.
  const size_t reads = all.read_ms.size();
  if (reads < 1000) {
    rep.notes.push_back("warning: only " + std::to_string(reads) +
                        " reads, the p99 rests on fewer than 10 samples");
  }

  // Write metrics: the paced writer's batches in ingest_mixed, pooled over
  // the phases (one phase holds too few for a p90); elsewhere the set-up
  // loads' calls, pooled over the set-ups, which were spread over the run.
  double write_rows_per_s = 0;
  double write_p50 = 0;
  double write_p90 = 0;
  size_t write_batches = 0;
  auto check_count = [&](size_t n) {
    if (n < 100) {
      rep.notes.push_back("warning: only " + std::to_string(n) +
                          " write batches, a p90 rests on fewer than 10");
    }
  };
  if (writer_on) {
    write_rows_per_s = all.window_write_s > 0
                           ? static_cast<double>(all.window_rows) /
                                 all.window_write_s
                           : 0;
    write_p50 = percentile(all.write_ms, 0.50);
    write_p90 = percentile(all.write_ms, 0.90);
    write_batches = all.write_ms.size();
    check_count(write_batches);
  } else {
    std::vector<double> chunk_ms;
    double rows = 0;
    double load_s = 0;
    for (const auto& s : setups) {
      chunk_ms.insert(chunk_ms.end(), s.chunk_ms.begin(), s.chunk_ms.end());
      rows += static_cast<double>(s.rows);
      load_s += s.load_seconds;
    }
    write_rows_per_s = rows / load_s;
    write_p50 = percentile(chunk_ms, 0.50);
    write_p90 = percentile(chunk_ms, 0.90);
    write_batches = chunk_ms.size();
    check_count(write_batches);
  }
  std::vector<double> setup_s;
  for (const auto& s : setups) setup_s.push_back(s.seconds);

  rep.attempted = all.attempted;
  rep.failed = all.failed;
  rep.correct = all.mismatches == 0;
  rep.metrics = {
      {"read_ops_per_s", static_cast<double>(reads) / all.read_seconds,
       "ops/s"},
      {"read_p50_ms", percentile(all.read_ms, 0.50), "ms"},
      {"read_p99_ms", percentile(all.read_ms, 0.99), "ms"},
      {"write_rows_per_s", write_rows_per_s, "rows/s"},
      {"write_p50_ms", write_p50, "ms"},
      {"write_p90_ms", write_p90, "ms"},
      {"fp_ratio",
       all.kept_rows == 0 ? 0
                          : static_cast<double>(all.server_rows) /
                                static_cast<double>(all.kept_rows),
       "ratio"},
      {"bytes_per_plain_byte",
       static_cast<double>(setups.back().table_bytes) /
           static_cast<double>(in.plaintext_bytes),
       "ratio"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"setup_s", median(setup_s), "s"},
  };
  rep.notes.push_back("failed_op_share " + fmt_share(rep.failed, rep.attempted) +
                      " share (" + std::to_string(rep.failed) + " of " +
                      std::to_string(rep.attempted) + " operations)");
  rep.notes.push_back("reads " + std::to_string(reads) + " in " +
                      std::to_string(all.read_seconds) + " s, mismatches " +
                      std::to_string(all.mismatches) + ", write batches " +
                      std::to_string(write_batches) +
                      (writer_on ? ", recovery checked after each phase" : ""));
  rep.notes.push_back(
      "table bytes " + std::to_string(setups.back().table_bytes) + ", " +
      std::to_string(static_cast<double>(setups.back().table_bytes) /
                     (static_cast<double>(cfg.pool_pages) * 4096)) +
      " x the buffer pool");
  if (!all.first_error.empty()) {
    rep.notes.push_back("first error: " + all.first_error);
  }
  return rep;
}

}  // namespace wrebench

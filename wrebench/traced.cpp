// The traced run: per-layer breakdown of the reads of one workload.
//
// Reads run sequentially on one thread. Each read runs once as the real
// EncryptedConnection call under the span core.read, and is then replayed
// as its public steps, each under its own span:
//
//   core.tag_expand      WreScheme::search_tags (first query of a value only;
//                        repeats are tag-cache hits in the real call)
//   net.request_encode   the request frame, built with the wire codec
//   net.transport        RemoteConnection::tag_scan / execute, with children
//     sql.parse          sql::parse_statement   (SQL-text reads)
//     sql.execute        Database::execute_select, in process
//     net.response_encode  net::encode_result_set
//     net.response_decode  net::decode_result_set
//   core.decrypt         WreScheme::decrypt over every returned payload cell
//   core.filter          the client-side equality filter
//   core.client          the same EncryptedConnection call over a transport
//                        that hands back the replayed result set, i.e. all
//                        client work without the network
//
// Self time per read: core = core.tag_expand + core.client; net =
// net.transport minus sql.parse and sql.execute (request encode, loopback,
// dispatch, lock wait and both response codecs); sql = sql.parse +
// sql.execute. What the real call took beyond core + net + sql is reported
// as unattributed. Counters are read around the real call only,
// so the replay never shows in them.
//
// The first counted_reads reads (and, in ingest_mixed, one write batch per
// trace_reads_per_write reads) form a deterministic prefix whose counters
// repeat exactly for a seed. The rest of the window alternates untraced and
// traced blocks of reads (ingest_mixed writes at its offered rate between
// two reads); the difference of the blocks' read means is the tracing
// overhead.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <numeric>
#include <unordered_set>
#include <variant>

#include "src/columnar/store_manager.h"
#include "src/core/ingest_pipeline.h"
#include "src/datagen/record_generator.h"
#include "src/net/wire.h"
#include "src/sql/parser.h"
#include "wrebench/harness.h"

namespace wrebench {

namespace {

using Clock = std::chrono::steady_clock;

enum SpanName : uint8_t {
  kRead,
  kTagExpand,
  kRequestEncode,
  kTransport,
  kParse,
  kExecute,
  kResponseEncode,
  kResponseDecode,
  kDecrypt,
  kFilter,
  kClient,
  kWrite,
  kSpanCount
};

constexpr const char* kSpanNames[kSpanCount] = {
    "core.read",         "core.tag_expand",    "net.request_encode",
    "net.transport",     "sql.parse",          "sql.execute",
    "net.response_encode", "net.response_decode", "core.decrypt",
    "core.filter",       "core.client",        "core.write"};

constexpr uint8_t kNoParent = 0xff;

struct Span {
  uint32_t op = 0;
  uint8_t name = 0;
  uint8_t parent = kNoParent;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span log; written out when the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  template <typename F>
  auto span(uint32_t op, SpanName name, uint8_t parent, F&& fn) {
    Span s;
    s.op = op;
    s.name = name;
    s.parent = parent;
    s.start_ns = now_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      s.end_ns = now_ns();
      spans_.push_back(s);
    } else {
      auto result = fn();
      s.end_ns = now_ns();
      spans_.push_back(s);
      return result;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  void write(const std::filesystem::path& path) const {
    std::ofstream f(path);
    f << "op\tname\tparent\tstart_ns\tend_ns\n";
    for (const Span& s : spans_) {
      f << s.op << '\t' << kSpanNames[s.name] << '\t'
        << (s.parent == kNoParent ? "-" : kSpanNames[s.parent]) << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }

 private:
  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Hands back the replayed result set, so an EncryptedConnection call over
/// it runs every client-side step without the network. Catalog calls go to
/// the real server.
class ReplayTransport final : public core::DbTransport {
 public:
  explicit ReplayTransport(core::DbTransport& real) : real_(real) {}
  void set(sql::ResultSet rs) { next_ = std::move(rs); }

  sql::ResultSet execute(const std::string&) override {
    return std::move(next_);
  }
  sql::ResultSet tag_scan(const std::string&, const std::string&,
                          const std::vector<uint64_t>&, bool) override {
    return std::move(next_);
  }
  void create_table(const std::string&, const sql::Schema&) override {
    throw std::logic_error("replay transport is read-only");
  }
  void create_index(const std::string&, const std::string&) override {
    throw std::logic_error("replay transport is read-only");
  }
  bool has_table(const std::string& t) override { return real_.has_table(t); }
  uint64_t row_count(const std::string& t) override {
    return real_.row_count(t);
  }
  sql::Schema table_schema(const std::string& t) override {
    return real_.table_schema(t);
  }
  std::vector<int64_t> insert_batch(const std::string&,
                                    const std::vector<sql::Row>&) override {
    throw std::logic_error("replay transport is read-only");
  }
  void scan(const std::string& t,
            const std::function<void(const sql::Row&)>& fn) override {
    real_.scan(t, fn);
  }

 private:
  core::DbTransport& real_;
  sql::ResultSet next_;
};

/// Engine and client counters, read around real calls.
struct Counters {
  uint64_t pool_hits = 0, pool_misses = 0, evictions = 0;
  uint64_t page_reads = 0, page_writes = 0;
  uint64_t wal_commits = 0, wal_groups = 0, wal_fsyncs = 0, wal_bytes = 0;
  uint64_t col_hits = 0, col_rebuilds = 0;
  uint64_t requests = 0, retries = 0, overloaded = 0;

  static Counters read(Stack& s) {
    Counters c;
    auto bs = s.db->buffer_pool().stats();
    c.pool_hits = bs.hits;
    c.pool_misses = bs.misses;
    c.evictions = bs.evictions;
    auto ds = s.db->disk().stats();
    c.page_reads = ds.page_reads;
    c.page_writes = ds.page_writes;
    if (s.db->wal() != nullptr) {
      auto ws = s.db->wal()->stats();
      c.wal_commits = ws.commits;
      c.wal_groups = ws.groups;
      c.wal_fsyncs = ws.fsyncs;
      c.wal_bytes = ws.bytes_appended;
    }
    if (s.db->column_store() != nullptr) {
      auto cs = s.db->column_store()->stats();
      c.col_hits = cs.hits;
      c.col_rebuilds = cs.rebuilds;
    }
    auto rs = s.remote->stats();
    c.requests = rs.requests;
    c.retries = rs.retries;
    c.overloaded = rs.overloaded;
    return c;
  }

  Counters operator-(const Counters& o) const {
    Counters d;
    d.pool_hits = pool_hits - o.pool_hits;
    d.pool_misses = pool_misses - o.pool_misses;
    d.evictions = evictions - o.evictions;
    d.page_reads = page_reads - o.page_reads;
    d.page_writes = page_writes - o.page_writes;
    d.wal_commits = wal_commits - o.wal_commits;
    d.wal_groups = wal_groups - o.wal_groups;
    d.wal_fsyncs = wal_fsyncs - o.wal_fsyncs;
    d.wal_bytes = wal_bytes - o.wal_bytes;
    d.col_hits = col_hits - o.col_hits;
    d.col_rebuilds = col_rebuilds - o.col_rebuilds;
    d.requests = requests - o.requests;
    d.retries = retries - o.retries;
    d.overloaded = overloaded - o.overloaded;
    return d;
  }

  Counters& operator+=(const Counters& d) {
    pool_hits += d.pool_hits;
    pool_misses += d.pool_misses;
    evictions += d.evictions;
    page_reads += d.page_reads;
    page_writes += d.page_writes;
    wal_commits += d.wal_commits;
    wal_groups += d.wal_groups;
    wal_fsyncs += d.wal_fsyncs;
    wal_bytes += d.wal_bytes;
    col_hits += d.col_hits;
    col_rebuilds += d.col_rebuilds;
    requests += d.requests;
    retries += d.retries;
    overloaded += d.overloaded;
    return *this;
  }
};

/// Exact tallies of the counted prefix.
struct Prefix {
  uint64_t reads = 0, equality_reads = 0, repeats = 0;
  uint64_t tags = 0, server_rows = 0, kept_rows = 0;
  uint64_t request_bytes = 0, response_bytes = 0;
  uint64_t index_probes = 0, heap_fetches = 0, rows_returned = 0;
  uint64_t columnar_reads = 0, columnar_rows = 0;
  uint64_t writes = 0, rows_written = 0;
  Counters read_counters;   // around real reads
  Counters write_counters;  // around real writes
  Counters all;             // whole prefix, replay included
};

class TracedRun {
 public:
  TracedRun(const WorkloadConfig& cfg, const Inputs& in, const Reference& ref,
            Stack& stack)
      : cfg_(cfg),
        in_(in),
        ref_(ref),
        stack_(stack),
        tracer_(Clock::now()),
        replay_transport_(*stack.remote),
        replay_conn_(replay_transport_, in.master_secret) {
    replay_conn_.attach_table(kTable, datagen::RecordGenerator::schema(),
                              in.specs, in.distributions, in.range_specs);
    const sql::Schema physical = stack.remote->table_schema(kTable);
    for (const auto& c : datagen::RecordGenerator::encrypted_columns()) {
      enc_cols_.push_back(EncColumn{c, *physical.index_of(c + "_enc"),
                                    &stack.conn->scheme(kTable, c)});
    }
    if (cfg.write_batches_per_s > 0) {
      writer_ = attach_client(stack, in);
      core::IngestOptions io;
      io.threads = 1;
      io.batch_rows = cfg.write_batch_rows;
      io.stream_nonce = in.stream_nonce;
      io.start_index = static_cast<uint64_t>(in.loaded);
      pipe_ = std::make_unique<core::IngestPipeline>(*writer_.conn, kTable,
                                                     io);
    }
    // The warm-up reads went through the real connection: their values
    // are already in its tag cache.
    for (int i = 0; i < cfg.warm_reads; ++i) {
      note_repeat(in.reads[static_cast<size_t>(i) % in.reads.size()]);
    }
    cursor_ = static_cast<size_t>(cfg.warm_reads);
  }

  RunReport run(int seconds, const std::filesystem::path& span_file,
                const SetupResult& setup);
  int64_t rows_written() const { return rows_written_; }

 private:
  const Read& next_read() { return in_.reads[cursor_++ % in_.reads.size()]; }

  /// True if the run already queried this (column, value).
  bool note_repeat(const Read& r) {
    if (r.kind == ReadKind::kRange) return false;
    return !seen_.insert(r.column + '\0' + r.value).second;
  }

  void check(const Read& r, const core::EncryptedQueryResult& res) {
    const int64_t below = in_.loaded + rows_written_;
    std::string err = ref_.check(r, res, below, below);
    if (!err.empty()) {
      ++mismatches_;
      if (first_error_.empty()) first_error_ = err;
    }
  }

  void untraced_read();
  void traced_read(Prefix* prefix);
  void write(Prefix* prefix);

  const WorkloadConfig& cfg_;
  const Inputs& in_;
  const Reference& ref_;
  Stack& stack_;
  Tracer tracer_;
  ReplayTransport replay_transport_;
  core::EncryptedConnection replay_conn_;
  struct EncColumn {
    std::string name;
    size_t enc_index;  // of <name>_enc in the physical schema
    const core::WreScheme* scheme;
  };
  std::vector<EncColumn> enc_cols_;
  Client writer_;
  std::unique_ptr<core::IngestPipeline> pipe_;
  std::unordered_set<std::string> seen_;
  std::unordered_map<std::string, std::vector<crypto::Tag>> tags_;
  size_t cursor_ = 0;
  uint32_t op_ = 0;
  int64_t rows_written_ = 0;
  uint64_t attempted_ = 0, failed_ = 0, mismatches_ = 0;
  std::string first_error_;
  std::vector<double> untraced_ms_, traced_block_ms_;
  bool in_block_ = false;
};

void TracedRun::untraced_read() {
  const Read& r = next_read();
  note_repeat(r);
  ++attempted_;
  const Clock::time_point t0 = Clock::now();
  core::EncryptedQueryResult res;
  try {
    res = run_read(*stack_.conn, r);
  } catch (const std::exception& e) {
    ++failed_;
    if (first_error_.empty()) first_error_ = e.what();
    return;
  }
  untraced_ms_.push_back(
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  check(r, res);
}

void TracedRun::traced_read(Prefix* prefix) {
  const Read& r = next_read();
  const bool repeat = note_repeat(r);
  const uint32_t op = op_++;
  ++attempted_;

  const Counters before = Counters::read(stack_);
  core::EncryptedQueryResult res;
  try {
    res = tracer_.span(op, kRead, kNoParent,
                       [&] { return run_read(*stack_.conn, r); });
  } catch (const std::exception& e) {
    ++failed_;
    if (first_error_.empty()) first_error_ = e.what();
    return;
  }
  const Counters delta = Counters::read(stack_) - before;
  if (in_block_) traced_block_ms_.push_back(tracer_.spans().back().ms());
  check(r, res);

  // Replay the read's steps.
  const bool star = r.kind != ReadKind::kIds;
  std::string sql_text;
  std::vector<crypto::Tag> tags;
  std::string tag_column;
  net::WireWriter req;
  if (r.kind == ReadKind::kRange) {
    sql_text = res.sql;
  } else {
    const std::string key = r.column + '\0' + r.value;
    auto it = tags_.find(key);
    if (it == tags_.end()) {
      const core::WreScheme& scheme = stack_.conn->scheme(kTable, r.column);
      auto fresh = [&] { return scheme.search_tags(r.value); };
      // Only a first query pays the expansion in the real call.
      tags = repeat ? fresh() : tracer_.span(op, kTagExpand, kRead, fresh);
      tags_.emplace(key, tags);
    } else {
      tags = it->second;
    }
    tag_column = r.column + "_tag";
  }
  Bytes frame = tracer_.span(op, kRequestEncode, kRead, [&] {
    if (sql_text.empty()) {
      req.string(kTable);
      req.string(tag_column);
      req.u8(star ? 1 : 0);
      req.u32(static_cast<uint32_t>(tags.size()));
      for (crypto::Tag t : tags) req.u64(t);
      return net::encode_request_frame(net::Opcode::kTagScan, req.bytes(),
                                       net::RequestExt{});
    }
    req.string(sql_text);
    return net::encode_request_frame(net::Opcode::kExecSql, req.bytes(),
                                     net::RequestExt{});
  });

  sql::ResultSet wire_rs = tracer_.span(op, kTransport, kRead, [&] {
    return sql_text.empty()
               ? stack_.remote->tag_scan(kTable, tag_column, tags, star)
               : stack_.remote->execute(sql_text);
  });

  // Server-side steps, in process. Sequential: no write is in flight.
  sql::SelectStmt stmt;
  if (sql_text.empty()) {
    stmt.star = star;
    if (!star) stmt.columns = {"id"};
    stmt.table = kTable;
    std::vector<sql::Value> probe;
    for (crypto::Tag t : tags) probe.push_back(sql::Value::tag(t));
    stmt.where = sql::Expr::in_list(tag_column, std::move(probe));
  } else {
    stmt = tracer_.span(op, kParse, kTransport, [&] {
      return std::get<sql::SelectStmt>(sql::parse_statement(sql_text));
    });
  }
  sql::ResultSet rs = tracer_.span(
      op, kExecute, kTransport, [&] { return stack_.db->execute_select(stmt); });
  net::WireWriter resp;
  tracer_.span(op, kResponseEncode, kTransport,
               [&] { net::encode_result_set(rs, resp); });
  tracer_.span(op, kResponseDecode, kTransport, [&] {
    net::WireReader rd(resp.bytes());
    return net::decode_result_set(rd);
  });

  // Client-side steps.
  std::vector<std::string> queried;  // plaintext of the queried column
  if (star) {
    tracer_.span(op, kDecrypt, kRead, [&] {
      for (const sql::Row& row : wire_rs.rows) {
        for (const EncColumn& c : enc_cols_) {
          const sql::Value& cell = row[c.enc_index];
          if (cell.is_null()) continue;
          std::string plain = c.scheme->decrypt(cell.as_blob());
          if (c.name == r.column) queried.push_back(std::move(plain));
        }
      }
    });
  }
  if (r.kind == ReadKind::kStar) {
    tracer_.span(op, kFilter, kRead, [&] {
      return std::count(queried.begin(), queried.end(), r.value);
    });
  }
  if (wire_rs.rows.size() != res.server_rows_returned) {
    ++mismatches_;
    if (first_error_.empty()) first_error_ = "replay returned other rows";
  }
  const uint64_t wire_rows = wire_rs.rows.size();
  replay_transport_.set(std::move(wire_rs));
  if (r.kind != ReadKind::kRange) {
    // Warms the replay connection's tag cache: core.client must not pay an
    // expansion that core.tag_expand already accounts for.
    replay_conn_.rewrite_select(kTable, r.column, r.value, star);
  }
  core::EncryptedQueryResult again = tracer_.span(
      op, kClient, kRead, [&] { return run_read(replay_conn_, r); });
  if (again.ids != res.ids || again.rows != res.rows) {
    ++mismatches_;
    if (first_error_.empty()) first_error_ = "client replay differs";
  }

  if (prefix != nullptr) {
    ++prefix->reads;
    if (r.kind != ReadKind::kRange) {
      ++prefix->equality_reads;
      if (repeat) ++prefix->repeats;
    }
    prefix->tags += res.tags_in_query;
    prefix->server_rows += res.server_rows_returned;
    prefix->kept_rows += r.kind == ReadKind::kIds ? res.ids.size()
                                                  : res.rows.size();
    prefix->request_bytes += frame.size();
    prefix->response_bytes += resp.bytes().size() + net::kFrameHeaderBytes;
    prefix->index_probes += rs.index_probes;
    prefix->heap_fetches += rs.heap_fetches;
    prefix->rows_returned += wire_rows;
    if (rs.used_columnar) ++prefix->columnar_reads;
    prefix->columnar_rows += rs.columnar_rows;
    prefix->read_counters += delta;
  }
}

void TracedRun::write(Prefix* prefix) {
  const auto batch = static_cast<int64_t>(cfg_.write_batch_rows);
  const int64_t capacity = static_cast<int64_t>(in_.rows.size()) - in_.loaded;
  if (rows_written_ + batch > capacity) {
    ++failed_;
    if (first_error_.empty()) first_error_ = "writer ran out of registered rows";
    return;
  }
  std::vector<sql::Row> rows(
      in_.rows.begin() + in_.loaded + rows_written_,
      in_.rows.begin() + in_.loaded + rows_written_ + batch);
  ++attempted_;
  const Counters before = Counters::read(stack_);
  try {
    tracer_.span(op_++, kWrite, kNoParent, [&] { pipe_->ingest(rows); });
  } catch (const std::exception& e) {
    ++failed_;
    if (first_error_.empty()) first_error_ = e.what();
    return;
  }
  rows_written_ += batch;
  if (prefix != nullptr) {
    ++prefix->writes;
    prefix->rows_written += static_cast<uint64_t>(batch);
    prefix->write_counters += Counters::read(stack_) - before;
  }
}

double per(double num, double den) { return den == 0 ? 0 : num / den; }

RunReport TracedRun::run(int seconds, const std::filesystem::path& span_file,
                         const SetupResult& setup) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + std::chrono::seconds(seconds);
  const Counters run_before = Counters::read(stack_);
  const int per_write = cfg_.trace_reads_per_write;
  const bool writes = pipe_ != nullptr;

  // Counted prefix: a fixed interleaving, so its counters repeat exactly.
  Prefix prefix;
  const Counters prefix_before = Counters::read(stack_);
  for (int i = 0; i < cfg_.counted_reads; ++i) {
    if (writes && i > 0 && i % per_write == 0) write(&prefix);
    traced_read(&prefix);
  }
  prefix.all = Counters::read(stack_) - prefix_before;

  // Then alternating untraced / traced blocks until the window closes,
  // with writes at the workload's offered rate, between two reads.
  const int block = std::max(1, cfg_.counted_reads / 2);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(
          writes ? 1.0 / cfg_.write_batches_per_s : 0.0));
  Clock::time_point next_write = Clock::now();
  uint64_t n = 0;
  while (Clock::now() < end) {
    const bool traced = (n / static_cast<uint64_t>(block)) % 2 == 1;
    if (writes && Clock::now() >= next_write) {
      write(nullptr);
      next_write += period;
    }
    if (traced) {
      in_block_ = true;
      traced_read(nullptr);
      in_block_ = false;
    } else {
      untraced_read();
    }
    ++n;
  }
  const double window_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const Counters run_delta = Counters::read(stack_) - run_before;
  tracer_.write(span_file);

  // Per-read span sums.
  double sum[kSpanCount] = {};
  uint64_t traced_reads = 0;
  for (const Span& s : tracer_.spans()) {
    sum[s.name] += s.ms();
    if (s.name == kRead) ++traced_reads;
  }
  const double reads = static_cast<double>(traced_reads);
  auto mean = [&](SpanName s) { return per(sum[s], reads); };
  const double server_side = sum[kParse] + sum[kExecute] +
                             sum[kResponseEncode] + sum[kResponseDecode];
  const double dispatch = per(sum[kTransport] - server_side, reads);
  const double core_self =
      per(sum[kClient] - sum[kDecrypt] - sum[kFilter], reads);
  const double layer_core = mean(kTagExpand) + mean(kClient);
  const double layer_net =
      dispatch + mean(kResponseEncode) + mean(kResponseDecode);
  const double layer_sql = mean(kParse) + mean(kExecute);
  const double read_ms = mean(kRead);
  auto avg = [](const std::vector<double>& v) {
    return per(std::accumulate(v.begin(), v.end(), 0.0),
               static_cast<double>(v.size()));
  };
  const double untraced = avg(untraced_ms_);
  const double traced_block = avg(traced_block_ms_);

  const Prefix& p = prefix;
  const double pr = static_cast<double>(p.reads);
  const Counters& rc = p.read_counters;
  const Counters& wc = p.write_counters;
  double resident_mib = 0;
  if (stack_.db->column_store() != nullptr) {
    resident_mib = static_cast<double>(stack_.db->column_store()->stats().bytes) /
                   (1024.0 * 1024.0);
  }

  RunReport rep;
  rep.attempted = attempted_;
  rep.failed = failed_;
  rep.correct = mismatches_ == 0;
  rep.metrics = {
      {"core.tag_expand_ms", mean(kTagExpand), "ms"},
      {"core.tags_per_read", per(static_cast<double>(p.tags), pr), "count"},
      {"core.repeat_value_share",
       per(static_cast<double>(p.repeats),
           static_cast<double>(p.equality_reads)),
       "share"},
      {"core.decrypt_ms", mean(kDecrypt), "ms"},
      {"core.filter_ms", mean(kFilter), "ms"},
      {"core.self_ms", core_self, "ms"},
      {"core.ingest_encrypt_s", setup.encrypt_seconds, "s"},
      {"core.ingest_write_s", setup.write_seconds, "s"},
      {"net.request_encode_ms", mean(kRequestEncode), "ms"},
      {"net.request_bytes", per(static_cast<double>(p.request_bytes), pr),
       "bytes"},
      {"net.transport_dispatch_ms", dispatch, "ms"},
      {"net.response_encode_ms", mean(kResponseEncode), "ms"},
      {"net.response_decode_ms", mean(kResponseDecode), "ms"},
      {"net.response_bytes", per(static_cast<double>(p.response_bytes), pr),
       "bytes"},
      {"net.requests_per_op",
       per(static_cast<double>(rc.requests), pr), "count"},
      {"net.retries", static_cast<double>(run_delta.retries), "count"},
      {"net.overloaded", static_cast<double>(run_delta.overloaded), "count"},
      {"sql.parse_ms", mean(kParse), "ms"},
      {"sql.execute_ms", mean(kExecute), "ms"},
      {"sql.index_probes_per_read",
       per(static_cast<double>(p.index_probes), pr), "count"},
      {"sql.heap_fetches_per_read",
       per(static_cast<double>(p.heap_fetches), pr), "count"},
      {"sql.rows_returned_per_read",
       per(static_cast<double>(p.rows_returned), pr), "count"},
      {"sql.columnar_read_share",
       per(static_cast<double>(p.columnar_reads), pr), "share"},
      {"storage.pool_hit_ratio",
       per(static_cast<double>(rc.pool_hits),
           static_cast<double>(rc.pool_hits + rc.pool_misses)),
       "ratio"},
      {"storage.pool_misses_per_read",
       per(static_cast<double>(rc.pool_misses), pr), "count"},
      {"storage.evictions_per_read",
       per(static_cast<double>(rc.evictions), pr), "count"},
      {"storage.page_reads_per_read",
       per(static_cast<double>(rc.page_reads), pr), "count"},
      {"storage.page_writes_per_row",
       per(static_cast<double>(p.all.page_writes),
           static_cast<double>(p.rows_written)),
       "count"},
      {"storage.wal_commits_per_group",
       per(static_cast<double>(wc.wal_commits),
           static_cast<double>(wc.wal_groups)),
       "count"},
      {"storage.wal_fsyncs_per_s",
       per(static_cast<double>(run_delta.wal_fsyncs), window_s), "1/s"},
      {"storage.wal_bytes_per_row",
       per(static_cast<double>(wc.wal_bytes),
           static_cast<double>(p.rows_written)),
       "bytes"},
      {"columnar.rebuilds_per_write_batch",
       per(static_cast<double>(p.all.col_rebuilds),
           static_cast<double>(p.writes)),
       "count"},
      {"columnar.snapshot_hits_per_read",
       per(static_cast<double>(rc.col_hits), pr), "count"},
      {"columnar.rows_per_read",
       per(static_cast<double>(p.columnar_rows), pr), "count"},
      {"columnar.resident_mib", resident_mib, "MiB"},
      {"trace.read_ms", read_ms, "ms"},
      {"trace.layer_core_ms", layer_core, "ms"},
      {"trace.layer_net_ms", layer_net, "ms"},
      {"trace.layer_sql_ms", layer_sql, "ms"},
      {"trace.unattributed_ms",
       read_ms - layer_core - layer_net - layer_sql, "ms"},
      {"trace.untraced_read_ms", untraced, "ms"},
      {"trace.overhead_ms", traced_block - untraced, "ms"},
  };
  rep.counts = {
      {"reads", p.reads},
      {"writes", p.writes},
      {"tags", p.tags},
      {"server_rows", p.server_rows},
      {"kept_rows", p.kept_rows},
      {"request_bytes", p.request_bytes},
      {"response_bytes", p.response_bytes},
      {"index_probes", p.index_probes},
      {"heap_fetches", p.heap_fetches},
      {"columnar_rows", p.columnar_rows},
      {"pool_hits", rc.pool_hits},
      {"pool_misses", rc.pool_misses},
      {"evictions", rc.evictions},
      {"page_reads", rc.page_reads},
      {"page_writes", p.all.page_writes},
      {"wal_commits", wc.wal_commits},
      {"wal_groups", wc.wal_groups},
      {"wal_bytes", wc.wal_bytes},
      {"columnar_rebuilds", p.all.col_rebuilds},
      {"columnar_hits", rc.col_hits},
      {"table_bytes", setup.table_bytes},
      {"plaintext_bytes", in_.plaintext_bytes},
  };
  rep.notes.push_back("traced reads " + std::to_string(traced_reads) +
                      ", untraced reads " +
                      std::to_string(untraced_ms_.size()) + ", writes " +
                      std::to_string(rows_written_ /
                                     std::max<int64_t>(
                                         1, static_cast<int64_t>(
                                                cfg_.write_batch_rows))));
  if (!first_error_.empty()) rep.notes.push_back("first error: " + first_error_);
  return rep;
}

}  // namespace

RunReport run_traced(const RunOptions& opt) {
  const WorkloadConfig& cfg = workload_config(opt.workload);
  const Inputs in = make_inputs(cfg, opt.seed, opt.seconds);
  const Reference ref(in);
  SetupResult setup;
  std::unique_ptr<Stack> stack =
      set_up(cfg, in, opt.work_dir / "db", ref, &setup);
  RunReport rep;
  int64_t written = 0;
  {
    TracedRun run(cfg, in, ref, *stack);
    rep = run.run(opt.seconds,
                  opt.work_dir / ("spans-" + opt.workload + "-" +
                                  std::to_string(opt.seed) + ".tsv"),
                  setup);
    written = run.rows_written();
  }
  if (cfg.write_batches_per_s > 0) {
    std::string err = check_recovery(*stack, cfg, in.loaded + written,
                                     in.loaded + written);
    if (!err.empty()) {
      rep.correct = false;
      rep.notes.push_back("recovery: " + err);
    }
  }
  return rep;
}

}  // namespace wrebench

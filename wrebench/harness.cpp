#include "wrebench/harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/core/ingest_pipeline.h"
#include "src/datagen/query_generator.h"
#include "src/datagen/record_generator.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace wrebench {

namespace {

// Income is uniform on [12000, 262000) in the record generator.
constexpr int64_t kIncomeLo = 12000;
constexpr int64_t kIncomeHi = 261999;
constexpr uint32_t kIncomeBuckets = 256;

std::vector<WorkloadConfig> make_configs() {
  const std::vector<std::pair<uint64_t, uint64_t>> point_bands = {
      {1, 1}, {2, 10}, {11, 100}};
  // One scan band: at these table sizes only two or three values hold more
  // than 1000 rows, and QueryGenerator's round-robin over bands would send
  // half of all equality reads to them, so the read mix (and its median)
  // would hinge on a seed's few largest values. Range reads cover the
  // larger results instead.
  const std::vector<std::pair<uint64_t, uint64_t>> scan_bands = {{100, 1000}};

  WorkloadConfig point;
  point.name = "point_lookup";
  point.rows = 24000;
  point.pool_pages = 1536;  // 6 MiB: the table is several times larger
  point.method = core::SaltMethod::kPoisson;
  point.point_bands = point_bands;
  point.point_star_share = 0.2;
  point.client_threads = 2;
  point.warm_reads = 2000;
  point.counted_reads = 400;

  WorkloadConfig scan;
  scan.name = "scan_filter";
  scan.rows = 16000;
  scan.pool_pages = 16384;  // 64 MiB: the table fits
  scan.method = core::SaltMethod::kBucketizedPoisson;
  scan.columnar = true;
  scan.scan_bands = scan_bands;
  scan.scan_range_share = 0.3;
  scan.client_threads = 2;
  scan.warm_reads = 20;
  scan.counted_reads = 20;

  WorkloadConfig mixed;
  mixed.name = "ingest_mixed";
  mixed.rows = 3000;
  mixed.pool_pages = 16384;
  mixed.method = core::SaltMethod::kPoisson;
  mixed.columnar = true;
  mixed.durable = true;
  mixed.point_bands = point_bands;
  mixed.point_star_share = 0.2;
  mixed.scan_bands = scan_bands;
  mixed.scan_range_share = 0.3;
  mixed.scan_share = 0.3;
  mixed.client_threads = 1;
  // Every batch makes the next select_star or range read rebuild the column
  // segment. At this rate and table size about 3% of reads rebuild, so the
  // read p99 lies inside the rebuild reads instead of on their edge, and
  // rebuilds take about a third of the reader's time, so reads per second
  // do not swing with every change in rebuild cost.
  mixed.write_batch_rows = 10;
  mixed.write_batches_per_s = 12;
  mixed.trace_reads_per_write = 8;
  mixed.warm_reads = 200;
  mixed.counted_reads = 100;

  return {point, scan, mixed};
}

const std::vector<WorkloadConfig>& configs() {
  static const std::vector<WorkloadConfig> kConfigs = make_configs();
  return kConfigs;
}

/// Independent 64-bit streams from one seed: the dataset, the query
/// sequence, the master secret and the ingest nonce each get their own.
uint64_t derive(uint64_t seed, uint64_t label) {
  uint64_t s = seed ^ (label * 0x9e3779b97f4a7c15ULL);
  splitmix64(s);
  return splitmix64(s);
}

Bytes derive_bytes(uint64_t seed, uint64_t label, size_t n) {
  Xoshiro256 rng(derive(seed, label));
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng());
  return out;
}

uint64_t row_plain_bytes(const sql::Row& row) {
  uint64_t n = 0;
  for (const sql::Value& v : row) {
    n += v.type() == sql::ValueType::kText ? v.as_text().size() : 8;
  }
  return n;
}

size_t column_index(const std::string& name) {
  return *datagen::RecordGenerator::schema().index_of(name);
}

std::vector<Read> equality_reads(const datagen::ColumnHistogram& hist,
                                 uint64_t seed,
                                 std::vector<std::pair<uint64_t, uint64_t>> bands,
                                 size_t n, double star_share, Xoshiro256& rng) {
  datagen::QueryGeneratorOptions qo;
  qo.seed = seed;
  qo.bands = std::move(bands);
  datagen::QueryGenerator gen(hist, datagen::RecordGenerator::encrypted_columns(),
                              qo);
  std::vector<Read> out;
  for (const auto& q : gen.generate(n)) {
    Read r;
    r.kind = rng.next_double() < star_share ? ReadKind::kStar : ReadKind::kIds;
    r.column = q.column;
    r.value = q.value;
    out.push_back(std::move(r));
  }
  return out;
}

/// Range reads on income whose answer has 100..10000 rows of the loaded
/// table: the width is drawn log-uniformly, then rejected if off-band.
std::vector<Read> range_reads(const std::vector<int64_t>& sorted_income,
                              size_t n, Xoshiro256& rng) {
  std::vector<Read> out;
  const double rows = static_cast<double>(sorted_income.size());
  const double hi_count = std::min(10000.0, rows / 2);
  const double span = static_cast<double>(kIncomeHi - kIncomeLo + 1);
  while (out.size() < n) {
    double target = 100 * std::pow(hi_count / 100, rng.next_double());
    auto width = static_cast<int64_t>(target / rows * span);
    int64_t lo = kIncomeLo + static_cast<int64_t>(rng.next_below(
                                 static_cast<uint64_t>(span) - width));
    int64_t hi = lo + width;
    auto count = std::upper_bound(sorted_income.begin(), sorted_income.end(),
                                  hi) -
                 std::lower_bound(sorted_income.begin(), sorted_income.end(),
                                  lo);
    if (count < 100 || count > 10000) continue;
    Read r;
    r.kind = ReadKind::kRange;
    r.column = "income";
    r.lo = lo;
    r.hi = hi;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

const WorkloadConfig& workload_config(const std::string& name) {
  for (const auto& c : configs()) {
    if (c.name == name) return c;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

Inputs make_inputs(const WorkloadConfig& cfg, uint64_t seed, int seconds) {
  Inputs in;
  in.master_secret = derive_bytes(seed, 1, 32);
  in.stream_nonce = derive_bytes(seed, 2, 16);
  in.loaded = cfg.rows;

  // Writer capacity: the sequential traced prefix plus the paced window
  // with a few seconds of slack.
  int64_t writer_rows = 0;
  if (cfg.write_batches_per_s > 0) {
    double batches =
        std::ceil(cfg.write_batches_per_s * (seconds + 5)) +
        cfg.counted_reads / std::max(1, cfg.trace_reads_per_write) + 1;
    writer_rows = static_cast<int64_t>(batches) *
                  static_cast<int64_t>(cfg.write_batch_rows);
  }

  datagen::GeneratorOptions go;
  go.seed = derive(seed, 3);
  datagen::RecordGenerator gen(go);
  const int64_t total = cfg.rows + writer_rows;
  in.rows.reserve(static_cast<size_t>(total));
  datagen::ColumnHistogram all;
  datagen::ColumnHistogram loaded;
  const auto& enc_cols = datagen::RecordGenerator::encrypted_columns();
  std::vector<size_t> enc_idx;
  for (const auto& c : enc_cols) enc_idx.push_back(column_index(c));
  std::vector<int64_t> income;
  const size_t income_idx = column_index("income");
  for (int64_t id = 0; id < total; ++id) {
    sql::Row row = gen.record(id);
    for (size_t k = 0; k < enc_cols.size(); ++k) {
      const std::string& v = row[enc_idx[k]].as_text();
      all.add(enc_cols[k], v);
      if (id < cfg.rows) loaded.add(enc_cols[k], v);
    }
    if (id < cfg.rows) {
      in.plaintext_bytes += row_plain_bytes(row);
      income.push_back(row[income_idx].as_int64());
    }
    in.rows.push_back(std::move(row));
  }

  for (const auto& c : enc_cols) {
    in.distributions.emplace(
        c, core::PlaintextDistribution::from_counts(all.counts(c)));
    in.specs.push_back(core::EncryptedColumnSpec{c, cfg.method, cfg.lambda});
  }
  const bool ranges = !cfg.scan_bands.empty() && cfg.scan_range_share > 0;
  if (ranges) {
    in.range_specs.emplace_back("income", kIncomeLo, kIncomeHi,
                                kIncomeBuckets);
  }

  // The query sequence: long enough that a run rarely wraps around it.
  Xoshiro256 rng(derive(seed, 4));
  const size_t n_reads = cfg.point_bands.empty() ? 4000 : 40000;
  std::vector<Read> point;
  std::vector<Read> scan;
  if (!cfg.point_bands.empty()) {
    point = equality_reads(loaded, derive(seed, 5), cfg.point_bands, n_reads,
                           cfg.point_star_share, rng);
  }
  if (!cfg.scan_bands.empty()) {
    size_t n_scan = cfg.point_bands.empty()
                        ? n_reads
                        : static_cast<size_t>(n_reads * cfg.scan_share) + 1;
    auto n_range = static_cast<size_t>(n_scan * cfg.scan_range_share);
    scan = equality_reads(loaded, derive(seed, 6), cfg.scan_bands,
                          n_scan - n_range, 1.0, rng);
    std::sort(income.begin(), income.end());
    auto rr = range_reads(income, n_range, rng);
    scan.insert(scan.end(), rr.begin(), rr.end());
    // Shuffle so range and equality reads interleave.
    for (size_t i = scan.size(); i > 1; --i) {
      std::swap(scan[i - 1], scan[rng.next_below(i)]);
    }
  }
  if (point.empty()) {
    in.reads = std::move(scan);
  } else if (scan.empty()) {
    in.reads = std::move(point);
  } else {
    size_t pi = 0;
    size_t si = 0;
    while (pi < point.size()) {
      if (rng.next_double() < cfg.scan_share && si < scan.size()) {
        in.reads.push_back(scan[si++]);
      } else {
        in.reads.push_back(point[pi++]);
      }
    }
  }
  return in;
}

Reference::Reference(const Inputs& in) : in_(in) {
  const auto& enc_cols = datagen::RecordGenerator::encrypted_columns();
  std::vector<size_t> idx;
  for (const auto& c : enc_cols) idx.push_back(column_index(c));
  const size_t income_idx = column_index("income");
  for (size_t id = 0; id < in.rows.size(); ++id) {
    const sql::Row& row = in.rows[id];
    for (size_t k = 0; k < enc_cols.size(); ++k) {
      ids_[enc_cols[k]][row[idx[k]].as_text()].push_back(
          static_cast<int64_t>(id));
    }
    by_income_.emplace_back(row[income_idx].as_int64(),
                            static_cast<int64_t>(id));
  }
  std::sort(by_income_.begin(), by_income_.end());
}

std::vector<int64_t> Reference::matching(const Read& r, int64_t below) const {
  std::vector<int64_t> out;
  if (r.kind == ReadKind::kRange) {
    auto it = std::lower_bound(by_income_.begin(), by_income_.end(),
                               std::make_pair(r.lo, INT64_MIN));
    for (; it != by_income_.end() && it->first <= r.hi; ++it) {
      if (it->second < below) out.push_back(it->second);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  auto cit = ids_.find(r.column);
  if (cit == ids_.end()) return out;
  auto vit = cit->second.find(r.value);
  if (vit == cit->second.end()) return out;
  const auto& ids = vit->second;
  out.assign(ids.begin(), std::lower_bound(ids.begin(), ids.end(), below));
  return out;
}

std::string Reference::check(const Read& r,
                             const core::EncryptedQueryResult& res,
                             int64_t must_below, int64_t may_below) const {
  std::vector<int64_t> got;
  if (r.kind == ReadKind::kIds) {
    got = res.ids;
  } else {
    for (const sql::Row& row : res.rows) {
      if (row.empty() || row[0].type() != sql::ValueType::kInt64) {
        return "row without an integer id";
      }
      int64_t id = row[0].as_int64();
      if (id < 0 || id >= static_cast<int64_t>(in_.rows.size())) {
        return "unknown id " + std::to_string(id);
      }
      if (row != in_.rows[static_cast<size_t>(id)]) {
        return "row " + std::to_string(id) + " differs from the plaintext";
      }
      got.push_back(id);
    }
  }
  std::sort(got.begin(), got.end());
  if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
    return "duplicate ids in the answer";
  }
  std::vector<int64_t> must = matching(r, must_below);
  std::vector<int64_t> may =
      may_below == must_below ? must : matching(r, may_below);
  if (!std::includes(got.begin(), got.end(), must.begin(), must.end())) {
    return "missing rows: expected at least " + std::to_string(must.size()) +
           ", got " + std::to_string(got.size());
  }
  if (!std::includes(may.begin(), may.end(), got.begin(), got.end())) {
    return "unexpected rows: allowed " + std::to_string(may.size()) +
           ", got " + std::to_string(got.size());
  }
  return "";
}

core::EncryptedQueryResult run_read(core::EncryptedConnection& conn,
                                    const Read& r) {
  switch (r.kind) {
    case ReadKind::kIds:
      return conn.select_ids(kTable, r.column, r.value);
    case ReadKind::kStar:
      return conn.select_star(kTable, r.column, r.value);
    case ReadKind::kRange:
      return conn.select_star_range(kTable, r.column, r.lo, r.hi);
  }
  throw std::logic_error("unreachable read kind");
}

Stack::~Stack() {
  conn.reset();
  remote.reset();
  if (server) server->stop();
  server.reset();
  db.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

sql::DatabaseOptions database_options(const WorkloadConfig& cfg) {
  sql::DatabaseOptions o;
  o.buffer_pool_pages = cfg.pool_pages;
  o.query_threads = 1;
  o.durability = cfg.durable;
  o.wal_fsync = true;
  o.columnar = cfg.columnar;
  return o;
}

SetUp::SetUp(const WorkloadConfig& cfg, const Inputs& in,
             std::filesystem::path dir, const Reference& ref)
    : cfg_(cfg), in_(in), ref_(ref), dir_(std::move(dir)) {
  chunks_ = static_cast<size_t>(in.loaded + kLoadChunkRows - 1) /
            kLoadChunkRows;
  const auto warm = static_cast<size_t>(cfg.warm_reads);
  warm_per_step_ = std::max<size_t>(1, (warm + kWarmSteps - 1) / kWarmSteps);
  warm_steps_ = (warm + warm_per_step_ - 1) / warm_per_step_;
}

size_t SetUp::steps() const { return 1 + chunks_ + warm_steps_; }

void SetUp::step() {
  Timer t;
  if (next_ == 0) {
    stack_ = std::make_unique<Stack>();
    stack_->dir = dir_;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    stack_->db = std::make_unique<sql::Database>(dir_.string(),
                                                 database_options(cfg_));
    net::ServerOptions so;
    so.worker_threads = kServerWorkers;
    stack_->server = std::make_unique<net::Server>(*stack_->db, so);
    stack_->server->start();
    net::RemoteOptions ro;
    ro.connections_per_shard = cfg_.client_threads;
    stack_->remote = std::make_unique<net::RemoteConnection>(
        "127.0.0.1", stack_->server->port(), ro);
    stack_->conn = std::make_unique<core::EncryptedConnection>(
        *stack_->remote, in_.master_secret);
    stack_->conn->create_table(kTable, datagen::RecordGenerator::schema(),
                               in_.specs, in_.distributions, in_.range_specs);
    core::IngestOptions io;
    io.threads = kIngestThreads;
    io.batch_rows = kLoadBatchRows;
    io.stream_nonce = in_.stream_nonce;
    pipe_ = std::make_unique<core::IngestPipeline>(*stack_->conn, kTable, io);
  } else if (next_ <= chunks_) {
    const auto begin = static_cast<int64_t>((next_ - 1) * kLoadChunkRows);
    const int64_t end =
        std::min(in_.loaded, begin + static_cast<int64_t>(kLoadChunkRows));
    std::vector<sql::Row> chunk(in_.rows.begin() + begin,
                                in_.rows.begin() + end);
    Timer load;
    core::IngestStats st = pipe_->ingest(chunk);
    const double ms = load.elapsed_millis();
    res_.chunk_ms.push_back(ms);
    res_.load_seconds += ms / 1000;
    res_.encrypt_seconds += st.encrypt_seconds;
    res_.write_seconds += st.write_seconds;
    res_.rows += st.rows;
    if (next_ == chunks_) pipe_.reset();
  } else {
    const size_t begin = (next_ - 1 - chunks_) * warm_per_step_;
    const size_t end =
        std::min(static_cast<size_t>(cfg_.warm_reads), begin + warm_per_step_);
    for (size_t i = begin; i < end; ++i) {
      const Read& r = in_.reads[i % in_.reads.size()];
      std::string err =
          ref_.check(r, run_read(*stack_->conn, r), in_.loaded, in_.loaded);
      if (!err.empty()) throw std::runtime_error("warm-up read: " + err);
    }
  }
  ++next_;
  res_.seconds += t.elapsed_seconds();
}

std::unique_ptr<Stack> SetUp::finish(SetupResult* out) {
  if (!done()) throw std::logic_error("set-up finished before its last step");
  res_.table_bytes =
      stack_->db->data_size_bytes() + stack_->db->index_size_bytes();
  *out = std::move(res_);
  return std::move(stack_);
}

std::unique_ptr<Stack> set_up(const WorkloadConfig& cfg, const Inputs& in,
                              const std::filesystem::path& dir,
                              const Reference& ref, SetupResult* out) {
  SetUp s(cfg, in, dir, ref);
  while (!s.done()) s.step();
  return s.finish(out);
}

Client attach_client(const Stack& stack, const Inputs& in) {
  Client c;
  c.remote = std::make_unique<net::RemoteConnection>("127.0.0.1",
                                                     stack.server->port());
  c.conn = std::make_unique<core::EncryptedConnection>(*c.remote,
                                                       in.master_secret);
  c.conn->attach_table(kTable, datagen::RecordGenerator::schema(), in.specs,
                       in.distributions, in.range_specs);
  return c;
}

std::string check_recovery(const Stack& stack, const WorkloadConfig& cfg,
                           int64_t must_rows, int64_t may_rows) {
  std::filesystem::path copy = stack.dir;
  copy += "-crash";
  std::filesystem::remove_all(copy);
  std::filesystem::copy(stack.dir, copy,
                        std::filesystem::copy_options::recursive);
  std::string err;
  {
    sql::Database db(copy.string(), database_options(cfg));
    std::vector<int64_t> ids;
    db.table(kTable).scan(
        [&](int64_t pk, const sql::Row&) { ids.push_back(pk); });
    std::sort(ids.begin(), ids.end());
    if (static_cast<int64_t>(ids.size()) < must_rows ||
        static_cast<int64_t>(ids.size()) > may_rows) {
      err = "recovered " + std::to_string(ids.size()) + " rows, expected " +
            std::to_string(must_rows);
    } else {
      for (size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] != static_cast<int64_t>(i)) {
          err = "recovered table lacks id " + std::to_string(i);
          break;
        }
      }
    }
  }
  std::filesystem::remove_all(copy);
  return err;
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of all at or below.
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

}  // namespace wrebench

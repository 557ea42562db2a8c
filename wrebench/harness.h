// End-to-end benchmark harness for the WRE client proxy.
//
// One process hosts an in-process net::Server over a scratch sql::Database
// and drives core::EncryptedConnection over net::RemoteConnection on
// loopback, so every operation pays the deployed path: client crypto ->
// wire -> epoll server -> SQL/storage/columnar -> wire -> client decrypt and
// filter. Workloads, metrics and the layer map are described in
// wrebench/CONTEXT.json; run.py builds and runs this program.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/encrypted_client.h"
#include "src/core/ingest_pipeline.h"
#include "src/net/remote_connection.h"
#include "src/net/server.h"
#include "src/sql/database.h"

namespace wrebench {

using namespace wre;

/// Fixed thread counts: the host has 4 cores, and a benchmark whose thread
/// counts follow the host would not compare across hosts.
inline constexpr unsigned kServerWorkers = 2;
inline constexpr unsigned kIngestThreads = 2;
/// Phases per run, each on a freshly set-up stack; setup_s is the median
/// of one set-up per phase.
inline constexpr int kSetups = 4;
/// Rows per timed set-up load call, and per encrypt/write unit inside it.
inline constexpr size_t kLoadChunkRows = 128;
inline constexpr size_t kLoadBatchRows = 32;
inline constexpr const char* kTable = "main";

/// One workload's data, server settings and traffic mix.
struct WorkloadConfig {
  std::string name;
  int64_t rows = 0;             // loaded during set-up
  size_t pool_pages = 0;        // buffer pool, 4 KiB pages
  core::SaltMethod method = core::SaltMethod::kPoisson;
  double lambda = 1000;
  bool columnar = false;
  bool durable = false;         // WAL with group commit and fsync on
  /// Result-size bands of the point mix (select_ids / select_star).
  std::vector<std::pair<uint64_t, uint64_t>> point_bands;
  double point_star_share = 0;  // select_star share of point reads
  /// Result-size bands of the scan mix (select_star and range reads).
  std::vector<std::pair<uint64_t, uint64_t>> scan_bands;
  double scan_range_share = 0;  // select_star_range share of scan reads
  /// Share of scan-mix reads when both mixes run (ingest_mixed).
  double scan_share = 0;
  unsigned client_threads = 1;
  /// Paced writer (ingest_mixed only; 0 = no writer).
  size_t write_batch_rows = 0;
  double write_batches_per_s = 0;
  /// Reads between two writes in the sequential traced run.
  int trace_reads_per_write = 0;
  /// Reads run while reaching warm state, inside each set-up.
  int warm_reads = 0;
  /// Reads of the traced run whose counters must repeat exactly per seed.
  int counted_reads = 0;
};

const WorkloadConfig& workload_config(const std::string& name);

enum class ReadKind { kIds, kStar, kRange };

struct Read {
  ReadKind kind = ReadKind::kIds;
  std::string column;  // queried column ("income" for range reads)
  std::string value;   // equality operand
  int64_t lo = 0;      // range bounds (inclusive)
  int64_t hi = 0;
};

/// Every input of a run, derived from the seed alone.
struct Inputs {
  Bytes master_secret;   // 32 bytes
  Bytes stream_nonce;    // IngestOptions::stream_nonce
  /// Rows with id 0..rows-1 are loaded at set-up; the rest are the paced
  /// writer's, registered in the distributions up front so no write meets
  /// a value outside them.
  std::vector<sql::Row> rows;
  int64_t loaded = 0;
  std::map<std::string, core::PlaintextDistribution> distributions;
  std::vector<core::EncryptedColumnSpec> specs;
  std::vector<core::RangeColumnSpec> range_specs;
  std::vector<Read> reads;  // the query sequence, cycled
  uint64_t plaintext_bytes = 0;  // of the loaded rows
};

Inputs make_inputs(const WorkloadConfig& cfg, uint64_t seed, int seconds);

/// Plaintext answers for the correctness gate.
class Reference {
 public:
  explicit Reference(const Inputs& in);
  /// Checks one read's client-filtered answer. Rows with id < must_below
  /// must all be present; rows with must_below <= id < may_below may be
  /// (writes in flight). Returns an empty string when correct.
  std::string check(const Read& r, const core::EncryptedQueryResult& res,
                    int64_t must_below, int64_t may_below) const;

 private:
  std::vector<int64_t> matching(const Read& r, int64_t below) const;
  const Inputs& in_;
  // column -> value -> ascending ids
  std::unordered_map<std::string,
                     std::unordered_map<std::string, std::vector<int64_t>>>
      ids_;
  std::vector<std::pair<int64_t, int64_t>> by_income_;  // (income, id)
};

core::EncryptedQueryResult run_read(core::EncryptedConnection& conn,
                                    const Read& r);

/// One server + client stack over a fresh database directory.
struct Stack {
  std::filesystem::path dir;
  std::unique_ptr<sql::Database> db;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::RemoteConnection> remote;
  std::unique_ptr<core::EncryptedConnection> conn;
  ~Stack();
};

sql::DatabaseOptions database_options(const WorkloadConfig& cfg);

/// What one set-up measured.
struct SetupResult {
  double seconds = 0;                 // create + load + warm, summed steps
  std::vector<double> chunk_ms;       // per timed load call
  uint64_t rows = 0;
  double load_seconds = 0;            // summed load calls
  double encrypt_seconds = 0;         // IngestStats, summed over chunks
  double write_seconds = 0;
  uint64_t table_bytes = 0;           // heap + index after load
};

/// A set-up as a sequence of timed steps: open the stack and create the
/// table, one step per load call, then the warm-up reads in kWarmSteps
/// groups. set_up() runs the steps back to back; the untraced run of a
/// workload without a writer spreads them over a read window instead, so
/// the set-up figures sample the whole run rather than a second of it.
class SetUp {
 public:
  SetUp(const WorkloadConfig& cfg, const Inputs& in,
        std::filesystem::path dir, const Reference& ref);
  size_t steps() const;
  bool done() const { return next_ >= steps(); }
  /// Runs the next step and adds its time to the result. Throws on any
  /// failure.
  void step();
  /// The loaded, warm stack; call once, when done().
  std::unique_ptr<Stack> finish(SetupResult* out);

 private:
  static constexpr size_t kWarmSteps = 20;
  const WorkloadConfig& cfg_;
  const Inputs& in_;
  const Reference& ref_;
  std::filesystem::path dir_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<core::IngestPipeline> pipe_;
  SetupResult res_;
  size_t chunks_ = 0;
  size_t warm_per_step_ = 0;
  size_t warm_steps_ = 0;
  size_t next_ = 0;
};

/// Creates the table, bulk-loads it through the remote client and runs
/// the warm-up reads, back to back. Throws on any failure.
std::unique_ptr<Stack> set_up(const WorkloadConfig& cfg, const Inputs& in,
                              const std::filesystem::path& dir,
                              const Reference& ref, SetupResult* out);

/// Opens a second client on `stack` (its own RemoteConnection) with the
/// same keys and table configuration.
struct Client {
  std::unique_ptr<net::RemoteConnection> remote;
  std::unique_ptr<core::EncryptedConnection> conn;
};
Client attach_client(const Stack& stack, const Inputs& in);

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mib();

double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Exact counters that must repeat for a seed (traced runs only).
  std::vector<std::pair<std::string, uint64_t>> counts;
  std::vector<std::string> notes;  // human-readable lines
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::filesystem::path work_dir;
};

RunReport run_untraced(const RunOptions& opt);
RunReport run_traced(const RunOptions& opt);

/// Checks that every row the writer acknowledged survives a crash: copies
/// the live (idle) database directory, reopens the copy — which replays
/// the WAL — and checks that its ids are exactly 0..n-1 with
/// must_rows <= n <= may_rows. Returns an empty string when they are.
std::string check_recovery(const Stack& stack, const WorkloadConfig& cfg,
                           int64_t must_rows, int64_t may_rows);

}  // namespace wrebench

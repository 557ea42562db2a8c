// The network service layer: wire codec round-trips, error-status mapping,
// malformed-frame handling against a live server, pipelined-channel and
// RemoteConnection transport semantics, deep pipelined bursts, a seeded
// framing-stream model check, and graceful drain.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <thread>

#include "src/net/channel.h"
#include "src/net/remote_connection.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/sql/database.h"
#include "src/sql/parser.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

using namespace wre;
using namespace wre::net;
using wre::testing::TempDir;

namespace {

sql::Schema kv_schema() {
  return sql::Schema({{"id", sql::ValueType::kInt64, /*primary_key=*/true},
                      {"tag", sql::ValueType::kInt64, false},
                      {"payload", sql::ValueType::kBlob, false}});
}

// ---------------------------------------------------------------------------
// Wire codec round-trips.

sql::Value roundtrip_value(const sql::Value& v) {
  WireWriter w;
  w.value(v);
  WireReader r(w.bytes());
  sql::Value out = r.value();
  r.expect_end();
  return out;
}

TEST(Wire, ValueRoundTripAllVariants) {
  // Every variant the storage layer can hold, including the edge cases a
  // hostile peer would probe: NULL, empty blob/text, extreme integers.
  std::vector<sql::Value> cases = {
      sql::Value::null(),
      sql::Value::int64(0),
      sql::Value::int64(-1),
      sql::Value::int64(std::numeric_limits<int64_t>::min()),
      sql::Value::int64(std::numeric_limits<int64_t>::max()),
      sql::Value::text(""),
      sql::Value::text("hello"),
      sql::Value::text(std::string(100000, 'x')),
      sql::Value::blob(Bytes{}),
      sql::Value::blob(Bytes{0x00, 0xff, 0x7f, 0x80}),
      sql::Value::blob(Bytes(1 << 16, 0xab)),
  };
  for (const auto& v : cases) {
    EXPECT_EQ(roundtrip_value(v), v) << v.to_sql_literal();
  }
}

TEST(Wire, RowRoundTrip) {
  sql::Row row = {sql::Value::int64(-42), sql::Value::null(),
                  sql::Value::text("bob"), sql::Value::blob({1, 2, 3})};
  WireWriter w;
  w.row(row);
  WireReader r(w.bytes());
  EXPECT_EQ(r.row(), row);
  r.expect_end();
}

TEST(Wire, SchemaRoundTrip) {
  sql::Schema s = kv_schema();
  WireWriter w;
  w.schema(s);
  WireReader r(w.bytes());
  sql::Schema out = r.schema();
  r.expect_end();
  ASSERT_EQ(out.columns().size(), s.columns().size());
  for (size_t i = 0; i < s.columns().size(); ++i) {
    EXPECT_EQ(out.columns()[i].name, s.columns()[i].name);
    EXPECT_EQ(out.columns()[i].type, s.columns()[i].type);
    EXPECT_EQ(out.columns()[i].primary_key, s.columns()[i].primary_key);
  }
}

TEST(Wire, ResultSetRoundTrip) {
  sql::ResultSet rs;
  rs.columns = {"id", "name"};
  rs.rows = {{sql::Value::int64(1), sql::Value::text("a")},
             {sql::Value::int64(2), sql::Value::null()}};
  rs.rows_affected = 7;
  rs.index_probes = 1234;
  rs.heap_fetches = 99;
  rs.used_index = true;

  WireWriter w;
  encode_result_set(rs, w);
  WireReader r(w.bytes());
  sql::ResultSet out = decode_result_set(r);
  r.expect_end();
  EXPECT_EQ(out.columns, rs.columns);
  EXPECT_EQ(out.rows, rs.rows);
  EXPECT_EQ(out.rows_affected, rs.rows_affected);
  EXPECT_EQ(out.index_probes, rs.index_probes);
  EXPECT_EQ(out.heap_fetches, rs.heap_fetches);
  EXPECT_EQ(out.used_index, rs.used_index);
}

TEST(Wire, TruncatedValueThrows) {
  WireWriter w;
  w.value(sql::Value::text("hello world"));
  Bytes full = w.bytes();
  // Every proper prefix must fail cleanly, never read out of bounds.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Bytes prefix(full.begin(), full.begin() + static_cast<ptrdiff_t>(cut));
    WireReader r(prefix);
    EXPECT_THROW(r.value(), NetworkError) << "cut at " << cut;
  }
}

TEST(Wire, InflatedCountsThrowBeforeAllocating) {
  // A row claiming 2^32-1 values in a 6-byte payload must be rejected by
  // the count-vs-remaining check, not by attempting the reads.
  WireWriter w;
  w.u32(0xffffffffu);
  w.u16(0);
  WireReader r(w.bytes());
  EXPECT_THROW(r.row(), NetworkError);

  WireWriter w2;
  w2.u32(0xffffffffu);
  WireReader r2(w2.bytes());
  EXPECT_THROW(decode_result_set(r2), NetworkError);
}

TEST(Wire, TrailingGarbageRejected) {
  WireWriter w;
  w.u8(1);
  w.u8(2);
  WireReader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.expect_end(), NetworkError);
}

TEST(Wire, FrameHeaderValidation) {
  Bytes good = encode_frame(Opcode::kPing, {});
  ASSERT_EQ(good.size(), kFrameHeaderBytes);
  uint8_t header[kFrameHeaderBytes];

  auto load = [&](const Bytes& b) { std::copy_n(b.begin(), 8, header); };
  load(good);
  FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
  EXPECT_EQ(fh.opcode, Opcode::kPing);
  EXPECT_EQ(fh.payload_length, 0u);

  Bytes bad_magic = good;
  bad_magic[0] = 'X';
  load(bad_magic);
  EXPECT_THROW(decode_frame_header(header, kDefaultMaxFrameBytes),
               NetworkError);

  // Every version but kWireVersion is refused, the retired 1 and 2
  // included.
  for (uint8_t version : {uint8_t{1}, uint8_t{2}, uint8_t{99}}) {
    Bytes bad_version = good;
    bad_version[2] = version;
    load(bad_version);
    EXPECT_THROW(decode_frame_header(header, kDefaultMaxFrameBytes),
                 NetworkError);
  }

  Bytes oversized = encode_frame(Opcode::kPing, Bytes(1024, 0));
  load(oversized);
  EXPECT_THROW(decode_frame_header(header, /*max_frame_bytes=*/512),
               NetworkError);
}

TEST(Wire, RequestExtRoundTrip) {
  RequestExt ext;
  ext.has_key = true;
  ext.deadline_ms = 1234;
  ext.tenant_id = 0x1122334455667788ull;
  for (size_t i = 0; i < ext.key.size(); ++i) {
    ext.key[i] = static_cast<uint8_t>(i * 3 + 1);
  }
  Bytes payload = {0xDE, 0xAD};
  Bytes frame = encode_request_frame(Opcode::kExecSql, payload, ext);

  // header | fixed extension | payload
  uint8_t header[kFrameHeaderBytes];
  ASSERT_EQ(frame.size(),
            kFrameHeaderBytes + kRequestExtensionBytes + payload.size());
  std::copy_n(frame.begin(), kFrameHeaderBytes, header);
  FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
  EXPECT_EQ(fh.opcode, Opcode::kExecSql);
  // payload_length counts the payload only, never the extension.
  EXPECT_EQ(fh.payload_length, payload.size());

  ByteView body(frame.data() + kFrameHeaderBytes, kRequestExtensionBytes);
  RequestExt back = parse_request_ext(body);
  EXPECT_TRUE(back.has_key);
  EXPECT_EQ(back.key, ext.key);
  EXPECT_EQ(back.deadline_ms, 1234u);
  EXPECT_EQ(back.tenant_id, ext.tenant_id);
  EXPECT_EQ(Bytes(frame.end() - 2, frame.end()), payload);

  // The extension has exactly one size: shorter or longer bodies throw
  // instead of reading garbage or silently skipping bytes.
  EXPECT_THROW(parse_request_ext(body.subspan(0, kRequestExtensionBytes - 1)),
               NetworkError);
  Bytes longer(body.begin(), body.end());
  longer.push_back(0x77);
  EXPECT_THROW(parse_request_ext(longer), NetworkError);
}

// ---------------------------------------------------------------------------
// Error-status mapping: every wre::Error subclass crosses the wire and
// re-throws as the same type (satellite of the trust-boundary design — the
// client's catch sites behave identically local and remote).

template <typename E>
void expect_error_roundtrip(StatusCode expected_code) {
  E original("boom");
  EXPECT_EQ(status_code_for(original), expected_code);
  try {
    rethrow_status(status_code_for(original), original.what());
    FAIL() << "rethrow_status returned";
  } catch (const E& e) {
    EXPECT_STREQ(e.what(), "boom");
  } catch (const std::exception& e) {
    FAIL() << "wrong exception type for code "
           << static_cast<int>(expected_code) << ": " << e.what();
  }
}

TEST(WireStatus, ErrorHierarchyRoundTrips) {
  expect_error_roundtrip<StorageError>(StatusCode::kStorage);
  expect_error_roundtrip<SqlError>(StatusCode::kSql);
  expect_error_roundtrip<CryptoError>(StatusCode::kCrypto);
  expect_error_roundtrip<WreError>(StatusCode::kWre);
  expect_error_roundtrip<NetworkError>(StatusCode::kNetwork);
  expect_error_roundtrip<OverloadedError>(StatusCode::kOverloaded);
  expect_error_roundtrip<Error>(StatusCode::kGeneric);
}

TEST(WireStatus, OverloadedIsDistinctFromNetwork) {
  // kOverloaded is the retryable status; it must not collapse into the
  // generic kNetwork bucket or the client would reconnect instead of
  // backing off.
  OverloadedError shed("shed");
  EXPECT_EQ(status_code_for(shed), StatusCode::kOverloaded);
  NetworkError plain("io");
  EXPECT_EQ(status_code_for(plain), StatusCode::kNetwork);
}

TEST(WireStatus, NonWreExceptionIsGeneric) {
  std::runtime_error plain("plain");
  EXPECT_EQ(status_code_for(plain), StatusCode::kGeneric);
  EXPECT_THROW(rethrow_status(StatusCode::kGeneric, "x"), Error);
  // Unknown future codes degrade to the hierarchy root.
  EXPECT_THROW(rethrow_status(static_cast<StatusCode>(999), "x"), Error);
}

// ---------------------------------------------------------------------------
// Live server: a scratch database behind a loopback listener.

class NetServerTest : public ::testing::Test {
 protected:
  NetServerTest() : db_(dir_.str()) {
    ServerOptions options;
    options.worker_threads = 4;
    options.read_timeout_ms = 5000;
    options.max_frame_bytes = 1 << 20;
    server_ = std::make_unique<Server>(db_, options);
    server_->start();
  }

  ~NetServerTest() override { server_->stop(); }

  RemoteConnection client() {
    return RemoteConnection("127.0.0.1", server_->port());
  }

  TempDir dir_;
  sql::Database db_;
  std::unique_ptr<Server> server_;
};

// Reads one response frame: it must be kError with `code` and a message
// containing `needle`.
void expect_error_frame(Socket& s, StatusCode code, const std::string& needle) {
  uint8_t header[kFrameHeaderBytes];
  ASSERT_TRUE(s.recv_all_or_eof(header, sizeof(header)));
  FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
  ASSERT_EQ(fh.opcode, Opcode::kError);
  Bytes body(fh.payload_length);
  s.recv_all(body.data(), body.size());
  WireReader r(body);
  EXPECT_EQ(static_cast<StatusCode>(r.u16()), code);
  std::string message = r.string();
  EXPECT_NE(message.find(needle), std::string::npos) << message;
}

// The server closed the session: the next read sees EOF.
void expect_closed(Socket& s) {
  s.set_recv_timeout_ms(5000);
  uint8_t byte;
  EXPECT_FALSE(s.recv_all_or_eof(&byte, 1));
}

// Reads one response frame, or nullopt if the server closed the session
// before sending its header.
std::optional<Frame> read_frame(Socket& s) {
  uint8_t header[kFrameHeaderBytes];
  if (!s.recv_all_or_eof(header, sizeof(header))) return std::nullopt;
  FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
  Frame f{fh.opcode, Bytes(fh.payload_length)};
  if (fh.payload_length > 0) s.recv_all(f.payload.data(), f.payload.size());
  return f;
}

// Sends one request frame and returns the response frame.
Frame raw_roundtrip(Socket& s, Opcode op, ByteView payload) {
  s.send_all(encode_request_frame(op, payload, RequestExt{}));
  std::optional<Frame> f = read_frame(s);
  if (!f) throw NetworkError("server closed the session");
  return std::move(*f);
}

// Sends `bytes`, then half-closes so the server sees the hangup.
void send_then_hang_up(Socket& s, const Bytes& bytes) {
  s.send_all(bytes);
  ASSERT_EQ(::shutdown(s.fd(), SHUT_WR), 0);
}

TEST_F(NetServerTest, PingAndBasicDdl) {
  RemoteConnection remote = client();
  remote.ping();
  EXPECT_FALSE(remote.has_table("kv"));
  remote.create_table("kv", kv_schema());
  remote.create_index("kv", "tag");
  EXPECT_TRUE(remote.has_table("kv"));
  EXPECT_EQ(remote.row_count("kv"), 0u);

  sql::Schema schema = remote.table_schema("kv");
  ASSERT_EQ(schema.columns().size(), 3u);
  EXPECT_EQ(schema.columns()[1].name, "tag");
}

TEST_F(NetServerTest, InsertBatchScanAndTagScan) {
  RemoteConnection remote = client();
  remote.create_table("kv", kv_schema());
  remote.create_index("kv", "tag");

  std::vector<sql::Row> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back({sql::Value::int64(i), sql::Value::int64(i % 10),
                    sql::Value::blob(Bytes{static_cast<uint8_t>(i)})});
  }
  std::vector<int64_t> ids = remote.insert_batch("kv", rows);
  ASSERT_EQ(ids.size(), 100u);
  EXPECT_EQ(remote.row_count("kv"), 100u);

  size_t scanned = 0;
  remote.scan("kv", [&](const sql::Row& row) {
    ASSERT_EQ(row.size(), 3u);
    ++scanned;
  });
  EXPECT_EQ(scanned, 100u);

  // The dedicated multi-probe opcode must agree with SQL-text execution.
  sql::ResultSet via_tag_scan =
      remote.tag_scan("kv", "tag", {3, 7}, /*star=*/false);
  sql::ResultSet via_sql =
      remote.execute("SELECT id FROM kv WHERE tag IN (3, 7)");
  EXPECT_EQ(via_tag_scan.rows, via_sql.rows);
  EXPECT_EQ(via_tag_scan.rows.size(), 20u);

  sql::ResultSet star = remote.tag_scan("kv", "tag", {3}, /*star=*/true);
  ASSERT_EQ(star.rows.size(), 10u);
  EXPECT_EQ(star.rows[0].size(), 3u);
}

TEST_F(NetServerTest, ServerErrorsRethrowSameType) {
  RemoteConnection remote = client();
  remote.ping();  // lazy connect happens here
  uint64_t sessions_before = server_->sessions_accepted();
  // Parse failure server-side must surface as SqlError client-side, and the
  // session must remain usable afterwards.
  EXPECT_THROW(remote.execute("SELEC id FROM nope"), SqlError);
  EXPECT_THROW(remote.row_count("missing_table"), SqlError);
  remote.ping();
  EXPECT_FALSE(remote.has_table("still_alive"));
  // Execution errors are not protocol errors, and the same TCP session
  // carried every request — no silent reconnects.
  EXPECT_EQ(server_->protocol_errors(), 0u);
  EXPECT_EQ(server_->sessions_accepted(), sessions_before);
}

TEST_F(NetServerTest, MalformedFramesAreSurvivable) {
  uint64_t errors_before = server_->protocol_errors();

  // 1. Garbage magic.
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    Bytes junk = {'X', 'Y', kWireVersion, 1, 0, 0, 0, 0};
    s.send_all(junk);
    expect_error_frame(s, StatusCode::kNetwork, "bad frame magic");
    expect_closed(s);
  }

  // 2. Unsupported protocol version.
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    Bytes junk = {'W', 'R', 42, 1, 0, 0, 0, 0};
    s.send_all(junk);
    expect_error_frame(s, StatusCode::kNetwork,
                       "unsupported protocol version 42");
    expect_closed(s);
  }

  // 3. Oversized declared length (2x the server's 1 MiB cap): refused
  //    before the payload is read or allocated.
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    Bytes frame = encode_request_frame(Opcode::kPing, {}, RequestExt{});
    store_le32(frame.data() + 4, 2u << 20);  // 2 MiB declared
    s.send_all(frame);
    expect_error_frame(s, StatusCode::kNetwork, "exceeds the 1048576-byte");
    expect_closed(s);
  }

  // 4. Unknown opcodes (0x0B was assigned once and then retired): the
  //    frame boundary is intact, so the server answers kError and the SAME
  //    session keeps serving well-formed requests.
  for (uint8_t op : {uint8_t{0x6E}, uint8_t{0x0B}}) {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    s.send_all(
        encode_request_frame(static_cast<Opcode>(op), {}, RequestExt{}));
    expect_error_frame(s, StatusCode::kNetwork,
                       "unknown request opcode " + std::to_string(op));

    s.send_all(encode_request_frame(Opcode::kPing, {}, RequestExt{}));
    uint8_t header[kFrameHeaderBytes];
    ASSERT_TRUE(s.recv_all_or_eof(header, sizeof(header)));
    EXPECT_EQ(decode_frame_header(header, kDefaultMaxFrameBytes).opcode,
              Opcode::kOkPong);
  }

  // 5. Truncated header: the client hangs up mid-header.
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    Bytes partial = encode_request_frame(Opcode::kPing, {}, RequestExt{});
    partial.resize(3);
    send_then_hang_up(s, partial);
    expect_error_frame(s, StatusCode::kNetwork,
                       "closed inside a request frame (3 bytes");
    expect_closed(s);
  }

  // 6. Payload shorter than declared (valid header, then hang up).
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    WireWriter w;
    w.string("SELECT 1");
    Bytes frame = encode_request_frame(Opcode::kExecSql, w.bytes(), {});
    frame.resize(frame.size() - 4);
    send_then_hang_up(s, frame);
    expect_error_frame(s, StatusCode::kNetwork,
                       "closed inside a request frame");
    expect_closed(s);
  }

  // 7. Structurally bad payload: a request whose body fails bounds checks.
  //    Also recoverable — the full payload was consumed.
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    WireWriter w;
    w.u32(0xffffffffu);  // string length far beyond the payload
    s.send_all(encode_request_frame(Opcode::kExecSql, w.bytes(), {}));
    expect_error_frame(s, StatusCode::kNetwork, "truncated payload");

    s.send_all(encode_request_frame(Opcode::kPing, {}, RequestExt{}));
    uint8_t header[kFrameHeaderBytes];
    ASSERT_TRUE(s.recv_all_or_eof(header, sizeof(header)));
    EXPECT_EQ(decode_frame_header(header, kDefaultMaxFrameBytes).opcode,
              Opcode::kOkPong);
  }

  EXPECT_EQ(server_->protocol_errors(), errors_before + 8);

  // After all of the above the server still answers a well-formed client.
  RemoteConnection remote = client();
  remote.ping();
  EXPECT_FALSE(remote.has_table("kv"));
}

TEST_F(NetServerTest, GracefulDrainClosesIdleSessions) {
  RemoteConnection remote = client();
  remote.ping();

  // An idle raw connection: drain must wake and close it promptly. The
  // close is a FIN if a session picked the connection up, or an RST if it
  // was still in the accept backlog when the listener shut down — either
  // way the client sees the connection die instead of hanging.
  Socket idle = Socket::connect("127.0.0.1", server_->port());
  server_->stop();

  uint8_t byte;
  bool connection_closed = false;
  try {
    connection_closed = !idle.recv_all_or_eof(&byte, 1);  // clean EOF
  } catch (const NetworkError&) {
    connection_closed = true;  // reset out of the accept backlog
  }
  EXPECT_TRUE(connection_closed);
  EXPECT_FALSE(server_->running());
}

TEST_F(NetServerTest, IdempotentRequestsRetryAcrossReconnect) {
  RemoteConnection remote = client();
  remote.create_table("kv", kv_schema());
  EXPECT_TRUE(remote.has_table("kv"));

  // Kill the server, restart on the same port: the pooled connection is now
  // stale. An idempotent request must reconnect and succeed transparently.
  uint16_t port = server_->port();
  server_->stop();
  server_.reset();
  ServerOptions options;
  options.port = port;
  server_ = std::make_unique<Server>(db_, options);
  server_->start();

  EXPECT_TRUE(remote.has_table("kv"));
  EXPECT_EQ(remote.row_count("kv"), 0u);
}

TEST_F(NetServerTest, MutatingRequestsRetrySafelyAcrossReconnect) {
  RemoteConnection remote = client();
  remote.create_table("kv", kv_schema());

  uint16_t port = server_->port();
  server_->stop();
  server_.reset();
  ServerOptions options;
  options.port = port;
  server_ = std::make_unique<Server>(db_, options);
  server_->start();

  // The stale connection fails mid-request, but the idempotency key makes
  // the automatic retry safe even for a write: reconnect, replay, and the
  // row lands exactly once.
  std::vector<sql::Row> rows = {{sql::Value::int64(1), sql::Value::int64(2),
                                 sql::Value::blob(Bytes{3})}};
  EXPECT_EQ(remote.insert_batch("kv", rows).size(), 1u);
  EXPECT_EQ(remote.row_count("kv"), 1u);
  EXPECT_GE(remote.stats().retries, 1u);
}

TEST_F(NetServerTest, DuplicateIdempotencyKeyReplaysCachedResponse) {
  {
    RemoteConnection setup = client();
    setup.create_table("kv", kv_schema());
  }

  // Hand-roll a v2 insert frame and send it twice over a raw socket — the
  // wire-level shape of a client retrying after a lost response. The server
  // must execute once and replay the recorded response byte-for-byte.
  WireWriter w;
  w.string("kv");
  w.u32(1);
  w.row({sql::Value::int64(7), sql::Value::int64(8),
         sql::Value::blob(Bytes{9})});
  RequestExt ext;
  ext.has_key = true;
  for (size_t i = 0; i < ext.key.size(); ++i) {
    ext.key[i] = static_cast<uint8_t>(0xA0 + i);
  }
  Bytes frame = encode_request_frame(Opcode::kInsertBatch, w.bytes(), ext);

  auto roundtrip_raw = [&](Socket& s) {
    s.send_all(frame);
    uint8_t header[kFrameHeaderBytes];
    s.recv_all(header, sizeof(header));
    FrameHeader fh = decode_frame_header(header, kDefaultMaxFrameBytes);
    EXPECT_EQ(fh.opcode, Opcode::kOkIds);
    Bytes body(fh.payload_length);
    if (fh.payload_length > 0) s.recv_all(body.data(), body.size());
    return body;
  };

  Socket s = Socket::connect("127.0.0.1", server_->port());
  Bytes first = roundtrip_raw(s);
  Bytes second = roundtrip_raw(s);
  EXPECT_EQ(first, second);
  EXPECT_EQ(server_->dedup_hits(), 1u);

  RemoteConnection remote = client();
  EXPECT_EQ(remote.row_count("kv"), 1u);  // executed once, not twice
}

TEST_F(NetServerTest, ConcurrentClientsSeeConsistentResults) {
  {
    RemoteConnection setup = client();
    setup.create_table("kv", kv_schema());
    setup.create_index("kv", "tag");
    std::vector<sql::Row> rows;
    for (int64_t i = 0; i < 200; ++i) {
      rows.push_back({sql::Value::int64(i), sql::Value::int64(i % 4),
                      sql::Value::blob(Bytes{0})});
    }
    setup.insert_batch("kv", rows);
  }

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        RemoteConnection remote = client();
        for (int i = 0; i < 25; ++i) {
          uint64_t tag = static_cast<uint64_t>((t + i) % 4);
          auto rs = remote.tag_scan("kv", "tag", {tag}, /*star=*/false);
          if (rs.rows.size() != 50u) failures.fetch_add(1);
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->sessions_accepted(), static_cast<uint64_t>(kThreads));
}

TEST_F(NetServerTest, OldFrameFormatsAreRejected) {
  // There is one frame format. A frame in a retired layout, or a request
  // that ends inside its extension, is a fatal protocol error: a typed
  // NetworkError frame, then the session closes.
  const uint64_t errors_before = server_->protocol_errors();

  // A version-1 ping: header + payload, no extension.
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    s.send_all(Bytes{'W', 'R', 1, static_cast<uint8_t>(Opcode::kPing), 0, 0,
                     0, 0});
    expect_error_frame(s, StatusCode::kNetwork,
                       "unsupported protocol version 1");
    expect_closed(s);
  }

  // The previous request layout: version byte 2, an ext_len byte, then a
  // 31-byte extension.
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    Bytes old = encode_request_frame(Opcode::kPing, {}, RequestExt{});
    old[2] = 2;
    old.insert(old.begin() + kFrameHeaderBytes,
               static_cast<uint8_t>(kRequestExtensionBytes));
    s.send_all(old);
    expect_error_frame(s, StatusCode::kNetwork,
                       "unsupported protocol version 2");
    expect_closed(s);
  }

  // A current header whose request ends 11 bytes into its extension (the
  // length of the old 23-byte form's flags, deadline and part of the key).
  {
    Socket s = Socket::connect("127.0.0.1", server_->port());
    Bytes cut = encode_request_frame(Opcode::kPing, {}, RequestExt{});
    cut.resize(kFrameHeaderBytes + 11);
    send_then_hang_up(s, cut);
    expect_error_frame(s, StatusCode::kNetwork,
                       "closed inside a request frame (19 bytes");
    expect_closed(s);
  }

  EXPECT_EQ(server_->protocol_errors(), errors_before + 3);

  // A new well-formed connection is still served.
  RemoteConnection remote = client();
  remote.ping();
  EXPECT_FALSE(remote.has_table("kv"));
}

// ---------------------------------------------------------------------------
// Pipelined bursts deeper than ServerOptions::max_pipelined_requests (128).
// The server stops parsing at the cap with whole frames still buffered;
// it must parse them as its queue drains, because the socket is already
// empty and no read event will come for them.

constexpr int kDeepBurst = 300;

Bytes ping_burst(int n) {
  Bytes burst;
  for (int i = 0; i < n; ++i) {
    Bytes f = encode_request_frame(Opcode::kPing, {}, RequestExt{});
    burst.insert(burst.end(), f.begin(), f.end());
  }
  return burst;
}

// Reads `n` responses that must all be kOkPong.
void expect_pongs(Socket& s, int n) {
  for (int i = 0; i < n; ++i) {
    std::optional<Frame> f = read_frame(s);
    ASSERT_TRUE(f.has_value()) << "closed after " << i << " answers";
    ASSERT_EQ(f->opcode, Opcode::kOkPong) << "answer " << i;
  }
}

TEST_F(NetServerTest, DeepPingBurstIsAnsweredInOrder) {
  Socket s = Socket::connect("127.0.0.1", server_->port());
  s.set_recv_timeout_ms(5000);
  s.send_all(ping_burst(kDeepBurst));
  ASSERT_NO_FATAL_FAILURE(expect_pongs(s, kDeepBurst));
  // The session is still in step: one more request, one more answer.
  EXPECT_EQ(raw_roundtrip(s, Opcode::kPing, {}).opcode, Opcode::kOkPong);
}

TEST_F(NetServerTest, CutOffTailAfterDeepBurstIsReported) {
  const uint64_t errors_before = server_->protocol_errors();
  Socket s = Socket::connect("127.0.0.1", server_->port());
  s.set_recv_timeout_ms(5000);
  Bytes stream = ping_burst(kDeepBurst);
  WireWriter w;
  w.string("SELECT id FROM kv");
  Bytes tail = encode_request_frame(Opcode::kExecSql, w.bytes(), {});
  tail.resize(tail.size() - 4);  // frame 301 ends inside its payload
  stream.insert(stream.end(), tail.begin(), tail.end());
  send_then_hang_up(s, stream);
  ASSERT_NO_FATAL_FAILURE(expect_pongs(s, kDeepBurst));
  expect_error_frame(s, StatusCode::kNetwork,
                     "closed inside a request frame (" +
                         std::to_string(tail.size()) + " bytes");
  expect_closed(s);
  EXPECT_EQ(server_->protocol_errors(), errors_before + 1);
}

TEST_F(NetServerTest, PipelinedExecuteMatchesSequentialExecute) {
  // One attempt and a bounded wait: a server that stalls on a deep
  // pipeline fails here instead of being papered over by a reconnect.
  RemoteOptions strict;
  strict.response_timeout_ms = 5000;
  strict.retry.max_attempts = 1;
  RemoteConnection remote("127.0.0.1", server_->port(), strict);
  remote.create_table("kv", kv_schema());
  remote.create_index("kv", "tag");
  std::vector<sql::Row> rows;
  for (int64_t i = 0; i < 200; ++i) {
    rows.push_back({sql::Value::int64(i), sql::Value::int64(i % 17),
                    sql::Value::blob(Bytes{static_cast<uint8_t>(i)})});
  }
  remote.insert_batch("kv", rows);

  std::vector<std::string> sqls;
  for (int q = 0; q < kDeepBurst; ++q) {
    sqls.push_back(q % 2 == 0 ? "SELECT id FROM kv WHERE tag IN (" +
                                    std::to_string(q % 17) + ")"
                              : "SELECT * FROM kv WHERE tag IN (" +
                                    std::to_string(q % 17) + ", " +
                                    std::to_string((q + 5) % 17) + ")");
  }
  std::vector<sql::ResultSet> batch = remote.execute_pipelined(sqls);
  ASSERT_EQ(batch.size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    sql::ResultSet one = remote.execute(sqls[i]);
    EXPECT_EQ(batch[i].columns, one.columns) << sqls[i];
    EXPECT_EQ(batch[i].rows, one.rows) << sqls[i];
  }
  EXPECT_EQ(remote.stats().retries, 0u);
}

TEST(NetServerReadPath, EveryReadOpcodeMatchesExecuteSelect) {
  // kScanTable, kTagScan and kExecSql reads share one server read path:
  // each answer is byte-for-byte encode_result_set(execute_select(stmt))
  // of the statement the request stands for, counters included, whether
  // the columnar wire encoding or the row executor serves it.
  for (bool columnar : {false, true}) {
    SCOPED_TRACE(columnar ? "columnar" : "row");
    TempDir dir;
    sql::DatabaseOptions db_options;
    db_options.columnar = columnar;
    sql::Database db(dir.str(), db_options);
    db.create_table("kv", kv_schema());
    db.create_index("kv", "tag");
    std::vector<sql::Row> rows;
    for (int64_t i = 0; i < 64; ++i) {
      rows.push_back({sql::Value::int64(i), sql::Value::int64(i % 4),
                      sql::Value::blob(Bytes{static_cast<uint8_t>(i)})});
    }
    db.insert_batch("kv", rows);
    Server server(db, {});
    server.start();
    Socket s = Socket::connect("127.0.0.1", server.port());

    auto expect_same = [&](Opcode op, const Bytes& payload,
                           const sql::SelectStmt& stmt) {
      SCOPED_TRACE(opcode_name(op));
      Frame got = raw_roundtrip(s, op, payload);
      ASSERT_EQ(got.opcode, Opcode::kOkResult);
      WireWriter want;
      encode_result_set(db.execute_select(stmt), want);
      EXPECT_EQ(got.payload, want.bytes());
    };

    sql::SelectStmt scan;
    scan.star = true;
    scan.table = "kv";
    EXPECT_EQ(db.execute_select(scan).used_columnar, columnar);
    WireWriter scan_req;
    scan_req.string("kv");
    expect_same(Opcode::kScanTable, scan_req.bytes(), scan);

    for (bool star : {false, true}) {
      sql::SelectStmt probe;
      probe.star = star;
      if (!star) probe.columns = {"id"};
      probe.table = "kv";
      probe.where = sql::Expr::in_list(
          "tag", {sql::Value::tag(1), sql::Value::tag(3)});
      WireWriter req;
      req.string("kv");
      req.string("tag");
      req.u8(star ? 1 : 0);
      req.u32(2);
      req.u64(1);
      req.u64(3);
      expect_same(Opcode::kTagScan, req.bytes(), probe);
    }

    for (const char* sql : {"SELECT * FROM kv LIMIT 10",
                            "SELECT id, payload FROM kv WHERE tag IN (2)"}) {
      WireWriter req;
      req.string(sql);
      expect_same(Opcode::kExecSql, req.bytes(),
                  std::get<sql::SelectStmt>(sql::parse_statement(sql)));
    }
    s.close();
    server.stop();
  }
}

TEST(NetServerIsolation, StalledClientDoesNotDelayOthers) {
  // Regression for the thread-per-connection failure mode: a client that
  // requests a response far larger than the server's output buffer cap and
  // then never reads must not hold a worker — or the event thread —
  // hostage while a concurrent client runs under a tight deadline.
  TempDir dir;
  sql::Database db(dir.str());
  ServerOptions options;
  options.worker_threads = 1;  // one stalled worker would stall everyone
  options.read_timeout_ms = 5000;
  Server server(db, options);
  server.start();

  {
    RemoteConnection setup("127.0.0.1", server.port());
    setup.create_table("kv", kv_schema());
    std::vector<sql::Row> rows;
    for (int64_t i = 0; i < 8192; ++i) {
      rows.push_back({sql::Value::int64(i), sql::Value::int64(0),
                      sql::Value::blob(Bytes(2048, 0xCD))});
    }
    setup.insert_batch("kv", rows);  // 16 MiB of payload > 8 MiB outbuf cap
  }

  // The stall: ask for the full table, read nothing.
  Socket stalled = Socket::connect("127.0.0.1", server.port());
  WireWriter w;
  w.string("kv");
  stalled.send_all(
      encode_request_frame(Opcode::kScanTable, w.bytes(), RequestExt{}));

  // A concurrent client with no retries and a short response timeout: if
  // the stalled scan blocked the worker or the event loop, these fail.
  RemoteOptions strict;
  strict.response_timeout_ms = 2000;
  strict.retry.max_attempts = 1;
  RemoteConnection probe("127.0.0.1", server.port(), strict);
  for (int i = 0; i < 20; ++i) {
    probe.ping();
    EXPECT_EQ(probe.row_count("kv"), 8192u);
  }
  // Release the stalled connection before draining — a drain flushes what
  // it can, and this client will never read its 16 MiB.
  stalled.close();
  server.stop();
}

TEST(NetServerDrain, DrainAnswersAlreadySubmittedPipeline) {
  // SIGTERM mid-pipeline: every request the client already put on the wire
  // is executed and flushed before the connection closes — a drain is a
  // barrier, not a guillotine.
  TempDir dir;
  sql::Database db(dir.str());
  Server server(db, {});
  server.start();

  PipelinedChannel ch(Endpoint{"127.0.0.1", server.port()},
                      kDefaultMaxFrameBytes, /*recv_timeout_ms=*/5000);
  RequestExt ext;
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 50; ++i) {
    tickets.push_back(ch.submit(Opcode::kPing, {}, ext));
  }
  ch.flush();  // all 50 frames are on the wire before the drain starts
  // ...and the server has accepted the connection: a drain closes the
  // listener, and a connection still in its backlog was never received.
  for (int i = 0; i < 500 && server.live_sessions() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.live_sessions(), 1u);
  std::thread stopper([&] { server.stop(); });
  int answered = 0;
  for (uint64_t t : tickets) {
    if (ch.await(t, 5000).opcode == Opcode::kOkPong) ++answered;
  }
  stopper.join();
  EXPECT_EQ(answered, 50);
}

// ---------------------------------------------------------------------------
// Pipelined channel semantics against a live server.

TEST(PipelinedChannel, OutOfOrderAwaitParksEarlierResponses) {
  TempDir dir;
  sql::Database db(dir.str());
  Server server(db, {});
  server.start();
  {
    PipelinedChannel ch(Endpoint{"127.0.0.1", server.port()},
                        kDefaultMaxFrameBytes, 5000);
    RequestExt ext;
    uint64_t t0 = ch.submit(Opcode::kPing, {}, ext);
    uint64_t t1 = ch.submit(Opcode::kPing, {}, ext);
    uint64_t t2 = ch.submit(Opcode::kPing, {}, ext);
    EXPECT_EQ(ch.in_flight(), 3u);
    // Awaiting the newest ticket first forces reads past t0/t1, which must
    // be parked and returned later — not lost, not reordered.
    EXPECT_EQ(ch.await(t2).opcode, Opcode::kOkPong);
    EXPECT_EQ(ch.await(t0).opcode, Opcode::kOkPong);
    EXPECT_EQ(ch.await(t1).opcode, Opcode::kOkPong);
    EXPECT_FALSE(ch.dead());
    // A ticket can be redeemed exactly once.
    EXPECT_THROW(ch.await(t1), NetworkError);
  }
  server.stop();
}

TEST(PipelinedChannel, TransportFailurePoisonsEveryLaterCall) {
  TempDir dir;
  sql::Database db(dir.str());
  Server server(db, {});
  server.start();
  PipelinedChannel ch(Endpoint{"127.0.0.1", server.port()},
                      kDefaultMaxFrameBytes, /*recv_timeout_ms=*/200);
  RequestExt ext;
  ch.submit(Opcode::kPing, {}, ext);
  uint64_t never = ch.submit(Opcode::kPing, {}, ext);
  server.stop();  // drain answers the pipeline, then closes
  // Whatever the close/drain race yields, once the channel reports a
  // transport failure every later call fails fast with the same reason.
  try {
    ch.await(never, 500);
    ch.await(ch.submit(Opcode::kPing, {}, ext), 500);
    FAIL() << "channel survived server shutdown indefinitely";
  } catch (const NetworkError&) {
  }
  EXPECT_TRUE(ch.dead());
  EXPECT_THROW(ch.submit(Opcode::kPing, {}, ext), NetworkError);
}

// ---------------------------------------------------------------------------
// Seeded framing-stream model check. Each schedule writes K in [1, 400]
// requests as one byte stream, split at random offsets into random chunks,
// and optionally half-closes at a random offset. The model: every whole
// frame is answered, in order; a half-close inside a frame adds exactly one
// "closed inside a request frame" error and then the close; a half-close
// on a frame boundary closes cleanly. protocol_errors() counts exactly the
// unknown-opcode frames plus the cut-off one.

TEST(NetServerFraming, SeededStreamSchedulesMatchTheFramingModel) {
  constexpr uint64_t kSchedules = 32;
  constexpr uint64_t kMaxRequests = 400;
  TempDir dir;
  sql::Database db(dir.str());
  db.create_table("kv", kv_schema());
  std::vector<sql::Row> rows;
  for (uint64_t i = 0; i < kMaxRequests; ++i) {
    rows.push_back({sql::Value::int64(static_cast<int64_t>(i)),
                    sql::Value::int64(static_cast<int64_t>(i % 4)),
                    sql::Value::blob(Bytes{static_cast<uint8_t>(i)})});
  }
  db.insert_batch("kv", rows);
  ServerOptions options;
  options.worker_threads = 2;
  options.read_timeout_ms = 5000;
  Server server(db, options);
  server.start();

  enum Kind { kPingReq, kPointRead, kUnknownOp };
  for (uint64_t seed = 1; seed <= kSchedules; ++seed) {
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    Xoshiro256 rng(seed);
    const size_t k = 1 + rng.next_below(kMaxRequests);
    std::vector<Kind> kinds(k);
    std::vector<size_t> ends(k);  // stream offset just past frame i
    Bytes stream;
    for (size_t i = 0; i < k; ++i) {
      const uint64_t pick = rng.next_below(8);
      kinds[i] = pick == 0 ? kUnknownOp : pick < 4 ? kPingReq : kPointRead;
      Bytes f;
      if (kinds[i] == kPingReq) {
        f = encode_request_frame(Opcode::kPing, {}, RequestExt{});
      } else if (kinds[i] == kUnknownOp) {
        f = encode_request_frame(static_cast<Opcode>(0x0B), {}, RequestExt{});
      } else {
        WireWriter w;
        w.string("SELECT id FROM kv WHERE id = " + std::to_string(i));
        f = encode_request_frame(Opcode::kExecSql, w.bytes(), RequestExt{});
      }
      stream.insert(stream.end(), f.begin(), f.end());
      ends[i] = stream.size();
    }
    const bool hang_up = rng.next_below(2) == 0;
    const size_t cut = hang_up ? rng.next_below(stream.size() + 1)
                               : stream.size();
    const size_t whole = static_cast<size_t>(
        std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin());
    const size_t tail = cut - (whole > 0 ? ends[whole - 1] : 0);
    const uint64_t expected_errors =
        static_cast<uint64_t>(std::count(kinds.begin(),
                                         kinds.begin() + whole, kUnknownOp)) +
        (tail > 0 ? 1 : 0);

    const uint64_t errors_before = server.protocol_errors();
    Socket s = Socket::connect("127.0.0.1", server.port());
    s.set_recv_timeout_ms(5000);
    for (size_t off = 0; off < cut;) {
      const size_t max_chunk = rng.next_below(2) == 0 ? 16 : 4096;
      const size_t n = 1 + rng.next_below(std::min(cut - off, max_chunk));
      s.send_all(ByteView(stream.data() + off, n));
      off += n;
      if (rng.next_below(8) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    if (hang_up) {
      ASSERT_EQ(::shutdown(s.fd(), SHUT_WR), 0);
    }

    for (size_t i = 0; i < whole; ++i) {
      std::optional<Frame> f = read_frame(s);
      ASSERT_TRUE(f.has_value()) << "closed after " << i << " of " << whole
                                 << " answers";
      if (kinds[i] == kPingReq) {
        ASSERT_EQ(f->opcode, Opcode::kOkPong) << "answer " << i;
      } else if (kinds[i] == kUnknownOp) {
        ASSERT_EQ(f->opcode, Opcode::kError) << "answer " << i;
        WireReader r(f->payload);
        EXPECT_EQ(static_cast<StatusCode>(r.u16()), StatusCode::kNetwork);
        EXPECT_NE(r.string().find("unknown request opcode 11"),
                  std::string::npos);
      } else {
        ASSERT_EQ(f->opcode, Opcode::kOkResult) << "answer " << i;
        WireReader r(f->payload);
        sql::ResultSet rs = decode_result_set(r);
        ASSERT_EQ(rs.rows.size(), 1u) << "answer " << i;
        EXPECT_EQ(rs.rows[0][0].as_int64(), static_cast<int64_t>(i))
            << "answer " << i << " is out of order";
      }
    }
    if (tail > 0) {
      expect_error_frame(s, StatusCode::kNetwork,
                         "closed inside a request frame (" +
                             std::to_string(tail) + " bytes");
    }
    if (hang_up) expect_closed(s);
    EXPECT_EQ(server.protocol_errors(), errors_before + expected_errors);
  }
  server.stop();
}

}  // namespace

// The served workloads (travel_fo, catalog_ucq, cart_wal): a closed loop
// of blocking RpcClients against an in-process RpcServer over a
// ServiceRuntime, every outcome checked against a shadow SessionRunner.
// See LAYERS.md for the load shape, the metrics and the traced run.

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>

#include "inputs.h"
#include "net/client.h"
#include "net/messages.h"
#include "net/server.h"
#include "net/wire.h"
#include "perfbench.h"
#include "persistence/durability.h"
#include "persistence/serde.h"
#include "relational/actions.h"
#include "runtime/runtime.h"
#include "sws/execution.h"
#include "sws/session.h"
#include "util/common.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sws::core::SessionRunner;
using sws::rel::Database;
using sws::rel::Relation;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// Sessions the traced run replays layer by layer, per connection.
constexpr int kReplayPerConnection = 12;
/// Record capacity reserved per connection and second of window: far
/// above what loopback round trips allow (cart_wal does about 6k).
constexpr double kRecordsPerSecond = 50000;

/// The journal runs without fsync: the benchmark may write only inside
/// its checkout, which sits on the VM's shared disk, and fsync there
/// would time that disk rather than the program (LAYERS.md).
constexpr sws::persistence::FsyncPolicy kFsync =
    sws::persistence::FsyncPolicy::kNever;

struct SessionRecord {
  int k = 0;  // script position
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;       // admitted, delivered, status ok
  bool correct = false;  // set by the oracle
  // The served output, kept as its size and structural hash so that the
  // records of a run do not weigh on the memory the run measures.
  size_t output_size = 0;
  size_t output_hash = 0;
};

/// Per-session-id slots the traced run's before_process_hook and clients
/// share: the hook finds the delimiter (the session's last message) by
/// counting, and stamps when it reached a worker.
struct HookSlots {
  std::unordered_map<std::string, int> slot;  // read-only once built
  std::unique_ptr<std::atomic<int64_t>[]> delimiter_sent_ns;
  std::unique_ptr<std::atomic<int64_t>[]> delimiter_hook_ns;
  std::unique_ptr<std::atomic<int>[]> hooks_seen;
  std::unique_ptr<std::atomic<int>[]> messages;
  Samples* samples = nullptr;

  void Build(const ServedWorkload& w, Samples* s) {
    const int n = kConnections * kIdsPerConnection;
    delimiter_sent_ns = std::make_unique<std::atomic<int64_t>[]>(n);
    delimiter_hook_ns = std::make_unique<std::atomic<int64_t>[]>(n);
    hooks_seen = std::make_unique<std::atomic<int>[]>(n);
    messages = std::make_unique<std::atomic<int>[]>(n);
    for (int c = 0; c < kConnections; ++c) {
      for (int k = 0; k < kIdsPerConnection; ++k) {
        slot.emplace(w.session_ids[c][k], c * kIdsPerConnection + k);
      }
    }
    samples = s;
  }

  void OnProcess(const std::string& session_id) {
    auto it = slot.find(session_id);
    if (it == slot.end()) return;
    const int i = it->second;
    if (hooks_seen[i].fetch_add(1) + 1 != messages[i].load()) return;
    const int64_t now = NowNs();
    delimiter_hook_ns[i].store(now, std::memory_order_release);
    samples->Add("runtime.queue_wait_us",
                 static_cast<double>(now - delimiter_sent_ns[i].load()) / 1e3);
  }
};

struct Control {
  std::mutex mu;
  std::condition_variable cv;
  int warmed = 0;   // clients through their warm-up
  bool go = false;  // released: into the window, or out (teardown)
  std::atomic<bool> stop{false};
};

/// A session the traced run replays layer by layer, with the D its
/// session id held before it (nullopt = the catalog).
struct ReplayCase {
  std::string session_id;
  const Session* session = nullptr;
  std::optional<Database> db;
};

/// One client connection: its thread runs the connection's script in a
/// closed loop and records every session.
struct Connection {
  int c = 0;
  std::vector<SessionRecord> records;
  uint64_t reconnects = 0;
  std::string first_error;
  std::vector<ReplayCase> replay;  // traced run: sampled sessions
};

void RecordError(Connection* conn, const std::string& what) {
  if (conn->first_error.empty()) conn->first_error = what;
}

void ClientLoop(const ServedWorkload& w, uint16_t port, Control* control,
                Connection* conn, HookSlots* hooks, SpanLog* spans,
                Samples* samples) {
  sws::net::RpcClient::Options options;
  options.port = port;
  options.reconnect.jitter_seed = static_cast<uint64_t>(conn->c) + 1;
  sws::net::RpcClient client(options);
  const Relation delimiter = SessionRunner::DelimiterMessage(w.sws.rin_arity());
  sws::core::Status connected = client.Connect();
  if (!connected.ok()) RecordError(conn, connected.ToString());
  for (int k = 0;; ++k) {
    if (k == kIdsPerConnection) {
      std::unique_lock<std::mutex> lock(control->mu);
      ++control->warmed;
      control->cv.notify_all();
      control->cv.wait(lock, [control] { return control->go; });
    }
    if (k >= kIdsPerConnection && control->stop.load()) break;
    const Session& session = w.scripts[conn->c][k % kScriptLength];
    const int id_index = k % kIdsPerConnection;
    const std::string& id = w.session_ids[conn->c][id_index];
    const int slot = conn->c * kIdsPerConnection + id_index;
    SessionRecord record;
    record.k = k;
    if (hooks != nullptr) {
      hooks->hooks_seen[slot].store(0);
      hooks->messages[slot].store(static_cast<int>(session.messages.size()) + 1);
    }
    record.begin_ns = NowNs();
    bool ok = connected.ok();
    std::vector<std::pair<int64_t, int64_t>> submits;
    for (const Relation& message : session.messages) {
      if (!ok) break;
      const int64_t t0 = NowNs();
      sws::core::Status st = client.Submit(client.NextRequestId(), id, message);
      submits.emplace_back(t0, NowNs());
      if (!st.ok()) {
        ok = false;
        RecordError(conn, st.ToString());
      }
    }
    int64_t delimiter_sent = 0;
    if (ok) {
      sws::net::OutcomeReply outcome;
      delimiter_sent = NowNs();
      if (hooks != nullptr) hooks->delimiter_sent_ns[slot].store(delimiter_sent);
      sws::core::Status st = client.SubmitAndWait(client.NextRequestId(), id,
                                                  delimiter, &outcome);
      if (!st.ok()) {
        ok = false;
        RecordError(conn, st.ToString());
      } else if (outcome.status_code != 0 || !outcome.has_output) {
        ok = false;
        RecordError(conn, "outcome status " +
                              std::to_string(outcome.status_code) + ": " +
                              outcome.status_message);
      } else {
        record.output_size = outcome.output.size();
        record.output_hash = outcome.output.Hash();
      }
    }
    record.end_ns = NowNs();
    record.ok = ok;
    if (spans != nullptr && ok) {
      // The session's spans: the client calls (net), and inside the
      // delimiter call the wait for a worker and the processing (runtime).
      const int root = spans->Record(-1, "session", id, record.begin_ns,
                                     record.end_ns);
      for (const auto& [a, b] : submits) {
        spans->Record(root, "net.submit", id, a, b);
        samples->Add("net.submit_rtt_us", static_cast<double>(b - a) / 1e3);
      }
      const int delim = spans->Record(root, "net.delimiter", id,
                                      delimiter_sent, record.end_ns);
      samples->Add("net.delimiter_rtt_us",
                   static_cast<double>(record.end_ns - delimiter_sent) / 1e3);
      const int64_t hook =
          hooks->delimiter_hook_ns[slot].load(std::memory_order_acquire);
      if (hook >= delimiter_sent && hook <= record.end_ns) {
        spans->Record(delim, "runtime.queue_wait", id, delimiter_sent, hook);
        spans->Record(delim, "runtime.process", id, hook, record.end_ns);
        samples->Add("runtime.process_us",
                     static_cast<double>(record.end_ns - hook) / 1e3);
      }
    }
    conn->records.push_back(std::move(record));
  }
  conn->reconnects = client.reconnects();
}

uint64_t JsonCounter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

/// One set-up of the served stack: runtime, server, and the client
/// threads, which stop after their warm-up until released.
class Stack {
 public:
  Stack(const ServedWorkload& w, const Args& args, int index,
        HookSlots* hooks, SpanLog* spans, Samples* samples) {
    sws::rt::RuntimeOptions options;
    options.num_workers = kWorkers;
    if (w.durable) {
      wal_dir_ = (fs::path(args.work_dir) /
                  ("wal-" + std::to_string(getpid()) + "-" +
                   std::to_string(index)))
                     .string();
      fs::remove_all(wal_dir_);
      options.durability.dir = wal_dir_;
      options.durability.fsync = kFsync;
    }
    if (hooks != nullptr) {
      options.before_process_hook = [hooks](const std::string& id) {
        hooks->OnProcess(id);
      };
    }
    runtime_ = std::make_unique<sws::rt::ServiceRuntime>(&w.sws, w.catalog,
                                                         options);
    if (!runtime_->init_status().ok()) {
      error_ = runtime_->init_status().ToString();
      return;
    }
    server_ = std::make_unique<sws::net::RpcServer>(
        runtime_.get(), sws::net::RpcServer::Options{});
    sws::core::Status started = server_->Start();
    if (!started.ok()) {
      error_ = started.ToString();
      return;
    }
    connections_.resize(kConnections);
    for (int c = 0; c < kConnections; ++c) {
      connections_[c].c = c;
      // Address space only: pages are touched as records are written,
      // and the vector never moves (see PeakRssMb).
      connections_[c].records.reserve(
          static_cast<size_t>(kRecordsPerSecond * args.seconds) +
          kIdsPerConnection);
      threads_.emplace_back(ClientLoop, std::cref(w), server_->port(),
                            &control_, &connections_[c], hooks, spans,
                            samples);
    }
    std::unique_lock<std::mutex> lock(control_.mu);
    control_.cv.wait(lock, [this] { return control_.warmed == kConnections; });
  }

  ~Stack() { Stop(); }

  const std::string& error() const { return error_; }

  /// Opens the window: the clients continue their scripts.
  void Release() {
    std::lock_guard<std::mutex> lock(control_.mu);
    control_.go = true;
    control_.cv.notify_all();
  }

  /// Ends the window (or the set-up): clients finish their session and
  /// exit; joined before return.
  void StopClients() {
    control_.stop.store(true);
    Release();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  std::string Stats() {
    sws::net::RpcClient::Options options;
    options.port = server_->port();
    sws::net::RpcClient client(options);
    std::string json;
    if (!client.GetStats(&json).ok()) json.clear();
    return json;
  }

  void Stop() {
    StopClients();
    if (server_) server_->Stop();
    if (runtime_) runtime_->Shutdown();
    server_.reset();
    runtime_.reset();
    if (!wal_dir_.empty()) {
      std::error_code ec;
      fs::remove_all(wal_dir_, ec);
      wal_dir_.clear();
    }
  }

  std::vector<Connection>& connections() { return connections_; }

 private:
  std::string wal_dir_;
  std::string error_;
  std::unique_ptr<sws::rt::ServiceRuntime> runtime_;
  std::unique_ptr<sws::net::RpcServer> server_;
  Control control_;
  std::vector<Connection> connections_;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

std::string ContentKey(const Session& session) {
  std::string key;
  for (const Relation& m : session.messages) key += m.ToString() + "|";
  return key;
}

/// The output oracle: replays every recorded session of one connection
/// through shadow SessionRunners fed the same messages, and marks each
/// record correct or not. Stateless workloads (nothing committed) share
/// one runner and memoize by session content; stateful ones keep one
/// runner per session id, fed in the served order.
/// When `sample` is set it also keeps a seeded sample of the window's
/// sessions in conn->replay, with the D each had before it ran.
void CheckConnection(const ServedWorkload& w, Connection* conn,
                     bool break_oracle, bool sample, uint64_t seed) {
  const Relation delimiter = SessionRunner::DelimiterMessage(w.sws.rin_arity());
  std::unordered_map<std::string, Relation> memo;
  std::optional<SessionRunner> shared;
  std::vector<std::optional<SessionRunner>> per_id(kIdsPerConnection);
  int replayed = 0;
  bool broke = false;
  for (SessionRecord& record : conn->records) {
    const Session& session = w.scripts[conn->c][record.k % kScriptLength];
    const int id_index = record.k % kIdsPerConnection;
    const bool sampled = sample && replayed < kReplayPerConnection &&
                         record.k >= kIdsPerConnection && record.ok &&
                         (static_cast<uint64_t>(record.k) + seed) % 7 == 0;
    if (sampled) {
      ReplayCase c{w.session_ids[conn->c][id_index], &session, std::nullopt};
      if (w.stateful) {
        if (!per_id[id_index]) per_id[id_index].emplace(&w.sws, w.catalog);
        c.db = per_id[id_index]->db();
      }
      conn->replay.push_back(std::move(c));
      ++replayed;
    }
    Relation expected;
    if (w.stateful) {
      if (!record.ok) continue;  // the server-side state is unknown now
      if (!per_id[id_index]) per_id[id_index].emplace(&w.sws, w.catalog);
      for (const Relation& m : session.messages) per_id[id_index]->Feed(m);
      auto outcome = per_id[id_index]->Feed(delimiter);
      SWS_CHECK(outcome.has_value() && outcome->status.ok());
      expected = outcome->output;
    } else {
      const std::string key = ContentKey(session);
      auto it = memo.find(key);
      if (it == memo.end()) {
        if (!shared) shared.emplace(&w.sws, w.catalog);
        for (const Relation& m : session.messages) shared->Feed(m);
        auto outcome = shared->Feed(delimiter);
        SWS_CHECK(outcome.has_value() && outcome->status.ok());
        SWS_CHECK(outcome->commit.inserted == 0 && outcome->commit.deleted == 0)
            << w.name << " committed to D; its oracle must be stateful";
        it = memo.emplace(key, outcome->output).first;
      }
      expected = it->second;
    }
    if (break_oracle && !broke) {
      // A deliberately wrong expectation: one extra tuple.
      sws::rel::Tuple bogus(expected.arity(), sws::rel::Value::Int(-1));
      expected.Insert(std::move(bogus));
      broke = true;
    }
    record.correct = record.ok && record.output_size == expected.size() &&
                     record.output_hash == expected.Hash();
  }
}

/// Re-evaluates every rule of a kept execution tree against the same
/// registers the engine saw, timing each RelQuery::Evaluate by language.
/// Mirrors the node conditions of core::Run (sws/execution.h).
void EvaluateRules(const sws::core::Sws& sws,
                   const sws::rel::InputSequence& input,
                   const sws::core::ExecNode& node, bool is_root,
                   Database* env, Samples* samples, double* total_us) {
  const size_t j = node.timestamp;
  const size_t n = input.size();
  if (j > n || (node.msg.empty() && !is_root)) return;
  if (is_root && node.msg.empty() && n == 0) return;
  auto message_at = [&](size_t t) {
    return t == 0 || t > n ? Relation(sws.rin_arity()) : input.Message(t);
  };
  auto timed = [&](const sws::core::RelQuery& q, const Database& on) {
    const int64_t t0 = NowNs();
    Relation out = q.Evaluate(on);
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    samples->Add(q.is_fo()    ? "logic.fo_eval_us"
                 : q.is_ucq() ? "logic.ucq_eval_us"
                              : "logic.cq_eval_us",
                 us);
    *total_us += us;
    return out;
  };
  const auto& successors = sws.Successors(node.state);
  if (successors.empty()) {
    env->Set(sws::core::kInputRelation, message_at(j));
    env->Set(sws::core::kMsgRelation, node.msg);
    timed(sws.Synthesis(node.state), *env);
    return;
  }
  env->Set(sws::core::kInputRelation, message_at(j + 1));
  env->Set(sws::core::kMsgRelation, node.msg);
  for (const auto& t : successors) timed(t.query, *env);
  Database synth_env;
  for (size_t i = 0; i < node.children.size(); ++i) {
    EvaluateRules(sws, input, *node.children[i], false, env, samples,
                  total_us);
    synth_env.Set(sws::core::ActRelation(i + 1), node.children[i]->act);
  }
  timed(sws.Synthesis(node.state), synth_env);
}

template <typename F>
double TimeUs(F&& f) {
  const int64_t t0 = NowNs();
  f();
  return static_cast<double>(NowNs() - t0) / 1e3;
}

/// The traced run's layer-by-layer replay of sampled sessions: each call
/// into a layer's public function is timed and recorded as a span.
void ReplaySessions(const ServedWorkload& w, const Args& args,
                    const std::vector<ReplayCase>& cases, Samples* samples,
                    SpanLog* spans) {
  const Relation delimiter = SessionRunner::DelimiterMessage(w.sws.rin_arity());

  // runtime: ServiceRuntime::Submit on a private one-worker runtime.
  sws::rt::RuntimeOptions runtime_options;
  runtime_options.num_workers = 1;
  sws::rt::ServiceRuntime runtime(&w.sws, w.catalog, runtime_options);

  // persistence: a private shard journal with the served settings.
  std::unique_ptr<sws::persistence::ShardDurability> journal;
  std::string journal_dir;
  if (w.durable) {
    journal_dir = (fs::path(args.work_dir) /
                   ("replay-wal-" + std::to_string(getpid())))
                      .string();
    fs::remove_all(journal_dir);
    sws::persistence::DurabilityOptions options;
    options.dir = journal_dir;
    options.fsync = kFsync;
    SWS_CHECK(sws::persistence::EnsureDir(journal_dir).ok());
    journal = std::make_unique<sws::persistence::ShardDurability>(
        options,
        sws::persistence::SegmentHeader{1, 0,
                                        sws::persistence::SwsFingerprint(w.sws)},
        0, nullptr);
  }

  uint64_t wire_bytes = 0;
  uint64_t seq = 0;
  int index = 0;
  for (const ReplayCase& c : cases) {
    const Database& d0 = c.db ? *c.db : w.catalog;
    const std::string& id = c.session_id;
    std::vector<Relation> messages = c.session->messages;
    messages.push_back(delimiter);
    const int64_t root_start = NowNs();
    const int root = spans->Record(-1, "replay", id, root_start, root_start);
    auto span = [&](const char* name, int64_t a, int64_t b) {
      spans->Record(root, name, id, a, b);
    };

    // relational: the per-run copy of D, and its active domain.
    int64_t t0 = NowNs();
    std::optional<Database> copy(d0);
    int64_t t1 = NowNs();
    copy->ActiveDomainShared();
    int64_t t2 = NowNs();
    span("relational.db_copy", t0, t1);
    span("relational.adom", t1, t2);
    samples->Add("relational.db_copy_us", static_cast<double>(t1 - t0) / 1e3);
    samples->Add("relational.adom_us", static_cast<double>(t2 - t1) / 1e3);

    // sws: the session through SessionRunner::Feed.
    SessionRunner runner(&w.sws, std::move(*copy));
    std::optional<SessionRunner::SessionOutcome> outcome;
    double feed_us = 0;
    for (const Relation& m : messages) {
      t0 = NowNs();
      outcome = runner.Feed(m);
      t1 = NowNs();
      feed_us += static_cast<double>(t1 - t0) / 1e3;
      span("sws.feed", t0, t1);
    }
    SWS_CHECK(outcome.has_value() && outcome->status.ok());
    samples->Add("sws.feed_us", feed_us);
    samples->Count("sws.runs", 1);
    samples->Count("sws.nodes", static_cast<double>(outcome->run_nodes));
    samples->Count("sws.memo_hits", static_cast<double>(outcome->memo_hits));
    samples->Count("sws.memo_misses",
                   static_cast<double>(outcome->memo_misses));

    // sws: the run alone, keeping the tree for the per-node registers;
    // logic: each rule of the tree through RelQuery::Evaluate.
    sws::rel::InputSequence input(w.sws.rin_arity());
    for (const Relation& m : c.session->messages) input.Append(m);
    sws::core::RunOptions keep;
    keep.keep_tree = true;
    t0 = NowNs();
    sws::core::RunResult run = sws::core::Run(w.sws, d0, input, keep);
    t1 = NowNs();
    span("sws.run", t0, t1);
    samples->Add("sws.run_us", static_cast<double>(t1 - t0) / 1e3);
    Database env(d0);
    double logic_us = 0;
    t0 = NowNs();
    EvaluateRules(w.sws, input, *run.tree, true, &env, samples, &logic_us);
    span("logic.rules", t0, NowNs());
    samples->Add("logic.session_us", logic_us);

    // sws: CommitOutput of the session's output.
    Database committed(d0);
    t0 = NowNs();
    sws::rel::CommitOutput(outcome->output, &committed);
    t1 = NowNs();
    span("sws.commit", t0, t1);
    samples->Add("sws.commit_us", static_cast<double>(t1 - t0) / 1e3);

    // net: the frames of this session, encoded and decoded.
    double codec_us = 0;
    uint64_t bytes = 0;
    for (const Relation& m : messages) {
      codec_us += TimeUs([&] {
        sws::net::SubmitRequest request{++seq, id, 1, 0, m};
        const std::string frame = sws::net::EncodeFrame(
            sws::net::MsgType::kSubmit, sws::net::EncodeSubmitRequest(request));
        const std::string ack = sws::net::EncodeFrame(
            sws::net::MsgType::kSubmitAck,
            sws::net::EncodeSubmitAck(sws::net::SubmitAck{seq}));
        for (const std::string* f : {&frame, &ack}) {
          sws::net::FrameDecoder decoder;
          sws::net::Frame decoded;
          decoder.Feed(*f);
          SWS_CHECK(decoder.Next(&decoded) ==
                    sws::net::FrameDecoder::Result::kFrame);
          bytes += f->size();
        }
      });
    }
    codec_us += TimeUs([&] {
      sws::net::OutcomeReply reply;
      reply.request_id = seq;
      reply.session_id = id;
      reply.has_output = true;
      reply.output = outcome->output;
      const std::string frame = sws::net::EncodeFrame(
          sws::net::MsgType::kOutcome, sws::net::EncodeOutcomeReply(reply));
      sws::net::FrameDecoder decoder;
      sws::net::Frame decoded;
      decoder.Feed(frame);
      SWS_CHECK(decoder.Next(&decoded) ==
                sws::net::FrameDecoder::Result::kFrame);
      SWS_CHECK(sws::net::DecodeOutcomeReply(decoded.payload).has_value());
      bytes += frame.size();
    });
    samples->Add("net.frame_codec_us", codec_us);
    wire_bytes += bytes;

    // persistence: the session's journal appends.
    double journal_us = 0;
    if (journal) {
      for (const Relation& m : messages) {
        sws::persistence::JournalRecord record;
        record.session_id = id;
        record.seq = seq++;
        record.payload = m;
        t0 = NowNs();
        SWS_CHECK(journal->AppendInput(record).persisted);
        t1 = NowNs();
        span("persistence.append_input", t0, t1);
        samples->Add("persistence.append_input_us",
                     static_cast<double>(t1 - t0) / 1e3);
        journal_us += static_cast<double>(t1 - t0) / 1e3;
      }
      sws::persistence::JournalRecord record;
      record.type = sws::persistence::JournalRecord::Type::kOutcome;
      record.session_id = id;
      record.seq = seq++;
      record.payload = outcome->output;
      t0 = NowNs();
      SWS_CHECK(journal->AppendOutcomeAndAck(record).ok());
      t1 = NowNs();
      span("persistence.append_ack", t0, t1);
      samples->Add("persistence.append_ack_us",
                   static_cast<double>(t1 - t0) / 1e3);
      journal_us += static_cast<double>(t1 - t0) / 1e3;
    }
    samples->Add("persistence.session_us", journal_us);

    // runtime: Submit on the private runtime, waiting for the outcome.
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    const std::string replay_id = "replay-" + std::to_string(index++);
    for (const Relation& m : messages) {
      const bool last = SessionRunner::IsDelimiter(m);
      t0 = NowNs();
      sws::core::Status st = runtime.Submit(
          replay_id, m,
          last ? sws::rt::OutcomeCallback([&](sws::rt::Outcome) {
            std::lock_guard<std::mutex> lock(mu);
            done = true;
            cv.notify_all();
          })
               : sws::rt::OutcomeCallback());
      t1 = NowNs();
      SWS_CHECK(st.ok()) << st.ToString();
      span("runtime.submit", t0, t1);
      samples->Add("runtime.submit_us", static_cast<double>(t1 - t0) / 1e3);
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  runtime.Shutdown();

  if (!cases.empty()) {
    samples->Count("net.wire_bytes_per_session",
                   static_cast<double>(wire_bytes) /
                       static_cast<double>(cases.size()));
  }
  if (journal) {
    journal.reset();
    uint64_t bytes = 0;
    for (const auto& entry : fs::directory_iterator(journal_dir)) {
      if (entry.is_regular_file()) bytes += entry.file_size();
    }
    samples->Count("persistence.journal_bytes_per_session",
                   static_cast<double>(bytes) /
                       static_cast<double>(std::max<size_t>(1, cases.size())));
    std::error_code ec;
    fs::remove_all(journal_dir, ec);
  }
}

/// What one stack's sessions came to, after the oracle.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void AddTo(Result* result) const {
    result->attempted += attempted;
    result->failed += failed;
    result->correct = result->correct && correct;
  }
};

/// Stops the clients and checks every session they ran (in parallel, one
/// checker per connection). Runs outside every timed interval.
Tally CheckStack(Stack* stack, const ServedWorkload& w, const Args& args,
                 bool sample) {
  stack->StopClients();
  std::vector<std::thread> checkers;
  for (Connection& conn : stack->connections()) {
    checkers.emplace_back([&w, &args, &conn, sample] {
      CheckConnection(w, &conn, args.break_oracle && conn.c == 0, sample,
                      args.seed);
    });
  }
  for (std::thread& t : checkers) t.join();
  Tally tally;
  for (const Connection& conn : stack->connections()) {
    for (const SessionRecord& r : conn.records) {
      ++tally.attempted;
      if (!r.correct) ++tally.failed;
      if (r.ok && !r.correct) tally.correct = false;
    }
  }
  return tally;
}

/// The process's VmHWM less the pages holding the clients' session
/// records, which grow with the sessions a window completes.
double PeakRssMb(Stack* stack) {
  double bytes = static_cast<double>(ProcStatusKb("VmHWM")) * 1024.0;
  for (const Connection& conn : stack->connections()) {
    bytes -= static_cast<double>(ResidentBytes(
        conn.records.data(), conn.records.size() * sizeof(SessionRecord)));
  }
  return bytes / (1024.0 * 1024.0);
}

/// What one timed window measured.
struct Window {
  SliceStats stats;
  size_t sessions = 0;     // correct sessions that ended in the window
  double latency_us = 0;   // their mean latency
  double peak_rss_mb = 0;
  std::string server_stats;  // the server's GetStats JSON after the window
  Tally tally;
};

/// Opens the window on a set-up stack for `seconds`, then checks every
/// session and reduces the correct ones that ended inside the window.
Window MeasureWindow(Stack* stack, const ServedWorkload& w, const Args& args,
                     double seconds, bool sample) {
  std::vector<int64_t> cut_ns;
  std::vector<double> cut_cpu;
  stack->Release();
  TimeSlices(
      seconds,
      [](int64_t cut) {
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(cut)));
      },
      &cut_ns, &cut_cpu);
  Window window;
  stack->StopClients();
  window.peak_rss_mb = PeakRssMb(stack);
  window.server_stats = stack->Stats();
  window.tally = CheckStack(stack, w, args, sample);

  std::vector<std::pair<int64_t, double>> done;
  std::vector<double> latency_ms;
  for (const Connection& conn : stack->connections()) {
    for (const SessionRecord& r : conn.records) {
      if (!r.correct) continue;
      done.emplace_back(r.end_ns, static_cast<double>(r.end_ns - r.begin_ns) / 1e6);
      if (r.end_ns >= cut_ns.front() && r.end_ns <= cut_ns.back()) {
        latency_ms.push_back(done.back().second);
      }
    }
  }
  window.stats = ReduceSlices(cut_ns, cut_cpu, done);
  window.sessions = latency_ms.size();
  window.latency_us = Mean(latency_ms) * 1e3;
  return window;
}

uint64_t Reconnects(Stack* stack) {
  uint64_t n = 0;
  for (const Connection& conn : stack->connections()) n += conn.reconnects;
  return n;
}

/// The failure and retry counts every served run prints.
void AddFailureCounts(const std::string& stats, uint64_t reconnects,
                      Result* result) {
  result->Info("reconnects", reconnects);
  result->Info("admission_rejects", JsonCounter(stats, "rejected"));
  result->Info("storage_failures", JsonCounter(stats, "storage_failures"));
  result->Info("net_frames_rejected",
               JsonCounter(stats, "net_frames_rejected"));
  result->Info("net_conns_reaped", JsonCounter(stats, "net_conns_reaped"));
}

/// Reports a failed set-up (and any client's first error) on stderr.
bool SetupFailed(Stack* stack) {
  for (const Connection& conn : stack->connections()) {
    if (!conn.first_error.empty()) {
      std::fprintf(stderr, "swsbench: connection %d: %s\n", conn.c,
                   conn.first_error.c_str());
    }
  }
  if (stack->error().empty()) return false;
  std::fprintf(stderr, "swsbench: set-up failed: %s\n",
               stack->error().c_str());
  return true;
}

/// The traced run: an untraced half-window, then a traced half-window on
/// a fresh set-up with the hook and client spans, then the replay of the
/// sampled sessions. Prints every per-layer metric.
bool RunTraced(const Args& args, Result* result) {
  const double half = static_cast<double>(args.seconds) / 2;
  Samples samples;
  SpanLog spans;
  double untraced_rate = 0;
  {
    auto w = std::make_unique<ServedWorkload>(
        MakeServedWorkload(args.workload, args.seed));
    const uint64_t rss_catalog = ProcStatusKb("VmRSS");
    Stack stack(*w, args, 0, nullptr, nullptr, nullptr);
    if (SetupFailed(&stack)) return false;
    const uint64_t rss_served = ProcStatusKb("VmRSS");
    samples.Count("relational.rss_per_session_kb",
                  static_cast<double>(rss_served - std::min(rss_served, rss_catalog)) /
                      (kConnections * kIdsPerConnection));
    const Window window = MeasureWindow(&stack, *w, args, half, false);
    window.tally.AddTo(result);
    untraced_rate = window.stats.sessions_per_s;
  }
  auto w = std::make_unique<ServedWorkload>(
      MakeServedWorkload(args.workload, args.seed));
  HookSlots hooks;
  hooks.Build(*w, &samples);
  Stack stack(*w, args, 1, &hooks, &spans, &samples);
  if (SetupFailed(&stack)) return false;
  const Window window = MeasureWindow(&stack, *w, args, half, true);
  const uint64_t reconnects = Reconnects(&stack);
  std::vector<ReplayCase> cases;
  for (Connection& conn : stack.connections()) {
    for (ReplayCase& c : conn.replay) cases.push_back(std::move(c));
  }
  stack.Stop();
  window.tally.AddTo(result);
  AddFailureCounts(window.server_stats, reconnects, result);
  ReplaySessions(*w, args, cases, &samples, &spans);

  for (const auto& [name, unit] : PerLayerTimings()) {
    AddTiming(result, name, samples.Get(name), unit);
  }

  // Busy time per session by layer (µs). The served path gives the mean
  // session latency L, the wait for a worker W and the processing P; the
  // replay splits P into the feed (the D copy, the rules, the commit) and
  // the journal. What P holds beyond those is the runtime's.
  const std::string& stats = window.server_stats;
  const double latency_us = window.latency_us;
  const double wait_us = samples.Mean("runtime.queue_wait_us");
  const double process_us = samples.Mean("runtime.process_us");
  const double feed_us = samples.Mean("sws.feed_us");
  const double copy_us = samples.Mean("relational.db_copy_us");
  const double logic_us = samples.Mean("logic.session_us");
  const double commit_us = samples.Mean("sws.commit_us");
  const double journal_us = samples.Mean("persistence.session_us");
  std::map<std::string, double> busy;
  busy["net"] = std::max(0.0, latency_us - wait_us - process_us);
  busy["runtime"] = std::max(0.0, process_us - feed_us - journal_us);
  busy["persistence"] = journal_us;
  busy["sws"] =
      std::max(0.0, feed_us - copy_us - logic_us - commit_us) + commit_us;
  busy["relational"] = copy_us;
  busy["logic"] = logic_us;
  double busy_total = 0;
  for (const auto& [layer, us] : busy) busy_total += us;

  const double closed =
      static_cast<double>(JsonCounter(stats, "sessions_closed"));
  const double runs = samples.CountOf("sws.runs");
  const double hits = samples.CountOf("sws.memo_hits");
  const double misses = samples.CountOf("sws.memo_misses");
  size_t catalog_tuples = 0;
  for (const auto& [name, relation] : w->catalog.relations()) {
    catalog_tuples += relation.size();
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::map<std::string, double> counts = {
      {"net.wire_bytes_per_session",
       samples.CountOf("net.wire_bytes_per_session")},
      {"net.reconnects", static_cast<double>(reconnects)},
      {"net.frames_rejected",
       static_cast<double>(JsonCounter(stats, "net_frames_rejected"))},
      {"net.conns_reaped",
       static_cast<double>(JsonCounter(stats, "net_conns_reaped"))},
      {"runtime.rejected", static_cast<double>(JsonCounter(stats, "rejected"))},
      {"persistence.journal_bytes_per_session",
       samples.CountOf("persistence.journal_bytes_per_session")},
      {"persistence.appends_per_session",
       ratio(static_cast<double>(JsonCounter(stats, "journal_appends")),
             closed)},
      {"persistence.snapshots",
       static_cast<double>(JsonCounter(stats, "snapshots"))},
      {"persistence.storage_failures",
       static_cast<double>(JsonCounter(stats, "storage_failures"))},
      {"sws.nodes_per_run", ratio(samples.CountOf("sws.nodes"), runs)},
      {"sws.memo_hit_ratio", ratio(hits, hits + misses)},
      {"relational.rss_per_session_kb",
       samples.CountOf("relational.rss_per_session_kb")},
      {"relational.catalog_tuples", static_cast<double>(catalog_tuples)},
      {"trace.overhead_pct",
       ratio(untraced_rate - window.stats.sessions_per_s, untraced_rate) *
           100},
      {"trace.spans", static_cast<double>(spans.size())},
      {"self.queue_wait_pct", ratio(wait_us, latency_us) * 100},
  };
  for (const auto& [layer, us] : busy) {
    counts["self." + layer + "_pct"] = ratio(us, busy_total) * 100;
  }
  for (const auto& [name, unit] : PerLayerCounts()) {
    auto it = counts.find(name);
    result->Add(name, it == counts.end() ? 0.0 : it->second, unit);
  }
  const std::string trace_path =
      (fs::path(args.work_dir) / ("trace-" + args.workload + "-seed" +
                                  std::to_string(args.seed) + ".jsonl"))
          .string();
  spans.WriteJsonLines(trace_path);
  result->Info("trace_file", trace_path);
  result->Info("fsync", w->durable
                            ? sws::persistence::FsyncPolicyName(kFsync)
                            : "off");
  return true;
}

}  // namespace

bool RunServedWorkload(const Args& args, Result* result) {
  result->Info("workers", static_cast<uint64_t>(kWorkers));
  result->Info("connections", static_cast<uint64_t>(kConnections));
  result->Info("session_ids",
               static_cast<uint64_t>(kConnections * kIdsPerConnection));
  if (args.trace) return RunTraced(args, result);

  // kSetups full set-ups, each timed from input generation through the
  // warm-up. The first serves the window; the others follow it, so the
  // window's memory peak never sees a predecessor's freed arenas.
  std::vector<double> setups;
  Window window;
  for (int s = 0; s < kSetups; ++s) {
    const int64_t t0 = NowNs();
    auto w = std::make_unique<ServedWorkload>(
        MakeServedWorkload(args.workload, args.seed));
    Stack stack(*w, args, s, nullptr, nullptr, nullptr);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (SetupFailed(&stack)) return false;
    if (s == 0) {
      window = MeasureWindow(&stack, *w, args, args.seconds, false);
      window.tally.AddTo(result);
      AddFailureCounts(window.server_stats, Reconnects(&stack), result);
      result->Info("fsync", w->durable
                                ? sws::persistence::FsyncPolicyName(kFsync)
                                : "off");
    } else {
      CheckStack(&stack, *w, args, false).AddTo(result);
    }
  }
  result->Info("window_sessions", static_cast<uint64_t>(window.sessions));
  result->Add("setup_s", Median(setups), "s");
  result->Add("sessions_per_s", window.stats.sessions_per_s, "1/s");
  result->Add("session_p50_ms", window.stats.p50_ms, "ms");
  result->Add("session_p90_ms", window.stats.p90_ms, "ms");
  result->Add("cpu_ms_per_session", window.stats.cpu_ms_per_session, "ms");
  result->Add("peak_rss_mb", window.peak_rss_mb, "MB");
  return true;
}

}  // namespace perfbench

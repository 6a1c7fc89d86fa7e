// servebench: one layered serving benchmark over the 1M-string URL store.
//
//   servebench --workload <serve_zipf|analytics_prefix|ingest_mixed>
//              --seed <n> --seconds <s> --trace <0|1>
//              --dir <scratch dir> [--trace-out <file.json>]
//
// Builds a durable wtrie::Engine store, serves it through the in-process
// wt::net::Server and drives it over loopback sockets. Every phase does a
// fixed amount of work (a function of --seconds, never of elapsed time):
//
//   setup       generate inputs, build and compact the store, start the
//               server, warm up                               -> setup_s
//   throughput  pipelined connections at saturation, median of
//               repetitions                               -> net.items_per_s,
//                                                 net.server_cpu_ns_per_item
//   latency     open loop at the workload's fixed offered rate, timed
//               from each request's scheduled send time -> net.read_p50_us,
//                                                         net.append_p50_us
//   final       flush and compact, measure the store on disk  -> store_bytes_
//                                                           per_string
//   reopen      close the store, reopen it, serve one request (stderr)
//
// Every reply is checked against the benchmark's own model of the store;
// a wrong answer makes "correct" false. With --trace 1 the same pass runs
// with spans recorded around every socket request, and then times calls
// into each module's public functions with the same inputs (layers.hpp);
// that pass prints the per-layer metrics instead of the end-to-end ones.
// The last stdout line is the JSON result; progress goes to stderr.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "model.hpp"
#include "session.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace sb {
namespace {

constexpr size_t kConns = 2;        // load connections (one thread each)
constexpr size_t kWindow = 16;      // pipelined requests per connection
constexpr size_t kTpReps = 5;       // throughput repetitions
constexpr size_t kLatReps = 3;      // open-loop repetitions
constexpr size_t kReopenReps = 15;  // close/reopen repetitions
constexpr size_t kReadBackSample = 512;
constexpr size_t kSetupWarmRounds = 2;  // first pass over the new server

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--dir") {
      a->dir = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->dir.empty() && a->seconds > 0;
}

/// Serving-layer counters read from the server's own metrics registry.
/// Only count, sum and max of its histograms are used: their quantiles
/// are bucket upper bounds that can exceed the recorded max.
struct NetCounters {
  uint64_t memo_hits = 0, dup_hits = 0, positions = 0, shed = 0;
  wt::obs::HistogramSnapshot admit, engine, flush, batch;

  static NetCounters Read(const wt::obs::MetricsSnapshot& s) {
    NetCounters n;
    auto counter = [&](const char* name) {
      const uint64_t* v = s.FindCounter(name);
      return v != nullptr ? *v : 0;
    };
    auto hist = [&](const char* name) {
      const wt::obs::HistogramSnapshot* h = s.FindHistogram(name);
      return h != nullptr ? *h : wt::obs::HistogramSnapshot{};
    };
    n.memo_hits = counter("wt_serving_access_memo_hits_total");
    n.dup_hits = counter("wt_serving_coalesced_dup_hits_total");
    n.positions = counter("wt_serving_access_positions_total");
    n.shed = counter("wt_admission_shed_total");
    n.admit = hist("wt_serving_admit_wait_us");
    n.engine = hist("wt_serving_engine_batch_us");
    n.flush = hist("wt_serving_reply_flush_us");
    n.batch = hist("wt_serving_batch_size");
    return n;
  }
};

double MeanDelta(const wt::obs::HistogramSnapshot& a,
                 const wt::obs::HistogramSnapshot& b) {
  const uint64_t n = b.count - a.count;
  return n == 0 ? 0 : static_cast<double>(b.sum - a.sum) / n;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / den;
}

struct Plan {
  size_t tp_rounds = 0;        // per throughput repetition
  size_t tp_warm_rounds = 0;
  size_t lat_rounds = 0;       // per latency repetition
  size_t lat_warm_rounds = 0;
};

Plan MakePlan(const Workload& w, int seconds) {
  Plan p;
  // Fixed work, sized from the workload's nominal rates so that each
  // timed phase takes about 40% of --seconds on the reference machine;
  // each warm-up pass is a fifth of one repetition.
  p.tp_rounds = std::max<size_t>(
      5, static_cast<size_t>(0.4 * seconds * w.nominal_rounds_per_s / kTpReps));
  p.tp_warm_rounds = std::max<size_t>(1, p.tp_rounds / 5);
  p.lat_rounds = std::max<size_t>(
      10, static_cast<size_t>(0.4 * seconds * w.open_loop_rate / 100 / kLatReps));
  p.lat_warm_rounds = std::max<size_t>(2, p.lat_rounds / 5);
  return p;
}

struct Output {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  void Add(const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, {v, unit}});
  }
};

void PrintResult(bool correct, const Tally& t, const Output& o) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(t.attempted);
  s += ", \"failed\": " + std::to_string(t.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", o.metrics[i].second.first);
    s += (i ? ", \"" : "\"") + o.metrics[i].first + "\": {\"value\": " + buf +
         ", \"unit\": \"" + o.metrics[i].second.second + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

/// A hand-built stream of Access requests, 16 positions each.
Stream AccessStream(const Model& m, const std::vector<uint64_t>& positions) {
  Stream s;
  for (size_t b = 0; b < positions.size(); b += 16) {
    std::vector<Item> items;
    for (size_t i = b; i < std::min(positions.size(), b + 16); ++i) {
      Item it;
      it.num = positions[i];
      items.push_back(it);
    }
    AddItems(m, MsgType::kAccess, items, &s);
  }
  return s;
}

int Run(const Args& args, int64_t t_start) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  auto fail = [](const std::string& msg) {
    std::fprintf(stderr, "servebench: %s\n", msg.c_str());
    return 1;
  };
  SplitCpus();
  Trace trace(args.trace);
  std::optional<SpanLog> log(std::in_place, &trace, 0);
  const uint64_t root_span = log->NewId();
  Tally tally;
  std::string why;

  // ------------------------------------------------------------- setup
  const uint64_t setup_span = log->NewId();
  Model model(args.seed);
  std::optional<wt::ZipfDistribution> zipf;
  if (w->keys == Keys::kZipf) zipf.emplace(model.base_size(), 0.99);
  const wt::ZipfDistribution* zp = zipf ? &*zipf : nullptr;
  const Plan plan = MakePlan(*w, args.seconds);
  uint64_t stream_seed = args.seed * 1000003 + 17;
  auto streams = [&](size_t rounds) {
    return MakeStreams(model, *w, zp, stream_seed++, rounds, kConns);
  };
  const auto setup_warm = streams(kSetupWarmRounds);
  const auto tp_warm = streams(plan.tp_warm_rounds);
  std::vector<std::vector<Stream>> tp;
  for (size_t r = 0; r < kTpReps; ++r) tp.push_back(streams(plan.tp_rounds));
  const auto lat_warm = streams(plan.lat_warm_rounds);
  std::vector<std::vector<Stream>> lat;
  for (size_t r = 0; r < kLatReps; ++r) lat.push_back(streams(plan.lat_rounds));

  std::error_code ec;
  std::filesystem::remove_all(args.dir, ec);
  std::filesystem::create_directories(args.dir, ec);
  Session ses(args.dir + "/store");
  if (!ses.OpenEngine()) return fail("cannot open the store");
  {
    std::vector<std::string> chunk;
    for (size_t i = 0; i < model.base_size(); ++i) {
      chunk.push_back(model.str(model.at(i)));
      if (chunk.size() == 65536 || i + 1 == model.base_size()) {
        if (!ses.engine()->AppendBatch(chunk).ok()) {
          return fail("base ingest failed");
        }
        chunk.clear();
      }
    }
  }
  if (!ses.engine()->Flush().ok() || !ses.engine()->Compact().ok()) {
    return fail("base flush/compaction failed");
  }
  if (!ses.StartServer(kConns)) return fail("cannot start the server");
  const wt::obs::MetricsSnapshot engine_after_setup =
      ses.engine()->metrics()->Snapshot();
  std::vector<ConnResult> res;
  // Client spans: one per request, from its send (or scheduled send) time
  // to its reply.
  auto request_spans = [&](const ConnResult& r, size_t c, uint64_t parent,
                           bool scheduled) {
    SpanLog cl(&trace, static_cast<uint32_t>(c + 1));
    for (size_t i = 0; cl.on() && i < r.recv_ns.size(); ++i) {
      cl.Add("net.request", cl.NewId(), parent,
             scheduled ? r.sched_ns[i] : r.sent_ns[i], r.recv_ns[i]);
    }
  };
  // Each pipelined phase reports the wall time of its connections alone
  // (checking comes after), and the CPU time the process spent outside
  // its load threads meanwhile: the server's I/O thread, dispatcher and
  // engine background work.
  struct Cost {
    int64_t wall_ns = 0;
    int64_t server_cpu_ns = 0;
  };
  auto pipelined = [&](const std::vector<Stream>& ss, uint64_t parent) {
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    RunConnections(ses.fds(), ss, &res,
                   [&](int fd, const Stream& s, size_t c, ConnResult* out) {
                     RunPipelined(fd, s, kWindow, out);
                     request_spans(*out, c, parent, false);
                   });
    Cost cost;
    cost.wall_ns = NowNs() - t0;
    cost.server_cpu_ns = ProcessCpuNs() - cpu0;
    for (const ConnResult& r : res) cost.server_cpu_ns -= r.cpu_ns;
    CheckPhase(model, ss, res, &tally);
    return cost;
  };
  pipelined(setup_warm, setup_span);
  const double setup_s = (NowNs() - t_start) / 1e9;
  log->Add("setup", setup_span, root_span, t_start, NowNs());

  // -------------------------------------------------------- throughput
  pipelined(tp_warm, root_span);
  const NetCounters net0 =
      NetCounters::Read(ses.engine()->metrics()->Snapshot());
  std::vector<double> tp_rates;
  uint64_t tp_items = 0;
  int64_t tp_server_cpu_ns = 0;
  for (size_t r = 0; r < kTpReps; ++r) {
    const uint64_t span = log->NewId();
    const int64_t t0 = NowNs();
    const Cost cost = pipelined(tp[r], span);
    log->Add("phase.throughput", span, root_span, t0, NowNs());
    uint64_t items = 0;
    for (const Stream& s : tp[r]) items += s.total_items;
    tp_items += items;
    tp_server_cpu_ns += cost.server_cpu_ns;
    tp_rates.push_back(items / (cost.wall_ns / 1e9));
  }
  const NetCounters net1 =
      NetCounters::Read(ses.engine()->metrics()->Snapshot());
  const double items_per_s = Median(tp_rates);
  // Summed over the repetitions rather than a median of them, so that a
  // freeze or compaction counts once whichever repetition it lands in.
  const double server_cpu_ns_per_item =
      static_cast<double>(tp_server_cpu_ns) / tp_items;

  // ----------------------------------------------------------- latency
  const int64_t interval = static_cast<int64_t>(1e9 / w->open_loop_rate);
  auto open_loop = [&](const std::vector<Stream>& ss, uint64_t parent) {
    const int64_t start = NowNs() + 2'000'000;
    RunConnections(ses.fds(), ss, &res,
                   [&](int fd, const Stream& s, size_t c, ConnResult* out) {
                     RunOpenLoop(fd, s, start, c * interval,
                                 interval * kConns, out);
                     request_spans(*out, c, parent, true);
                   });
    CheckPhase(model, ss, res, &tally);
  };
  open_loop(lat_warm, root_span);
  std::vector<double> read_p50, read_p99, append_p50, late_p99;
  for (size_t r = 0; r < kLatReps; ++r) {
    const uint64_t span = log->NewId();
    const int64_t t0 = NowNs();
    open_loop(lat[r], span);
    log->Add("phase.latency", span, root_span, t0, NowNs());
    std::vector<double> reads, appends, late;
    for (size_t c = 0; c < kConns; ++c) {
      const Stream& s = lat[r][c];
      for (size_t i = 0; i < s.reqs.size(); ++i) {
        const double us = (res[c].recv_ns[i] - res[c].sched_ns[i]) / 1e3;
        (s.reqs[i].type == MsgType::kAppend ? appends : reads).push_back(us);
        late.push_back((res[c].sent_ns[i] - res[c].sched_ns[i]) / 1e3);
      }
    }
    read_p50.push_back(Quantile(reads, 0.5));
    read_p99.push_back(Quantile(reads, 0.99));
    append_p50.push_back(Quantile(appends, 0.5));
    late_p99.push_back(Quantile(late, 0.99));
  }

  // One-item requests on one connection, one at a time.
  double round_trip_us = 0;
  if (args.trace) {
    KeyGen keys(model, *w, zp, args.seed + 5);
    Stream rt;
    for (size_t i = 0; i < 2000; ++i) {
      AddRequest(model, keys, MsgType::kAccess, 1, &rt);
    }
    const uint64_t span = log->NewId();
    const int64_t t0 = NowNs();
    std::vector<ConnResult> rr(1);
    RunPipelined(ses.fds()[0], rt, 1, &rr[0]);
    log->Add("net.round_trip", span, root_span, t0, NowNs());
    CheckPhase(model, {rt}, rr, &tally);
    std::vector<double> us;
    for (size_t i = 0; i < rt.reqs.size(); ++i) {
      us.push_back((rr[0].recv_ns[i] - rr[0].sent_ns[i]) / 1e3);
    }
    round_trip_us = Median(us);
  }

  // ------------------------------------------------------- final store
  if (!ses.StopServer(&tally, &why)) return fail(why);
  const wt::obs::MetricsSnapshot engine_after_serving =
      ses.engine()->metrics()->Snapshot();
  Layers layers;
  if (args.trace && !layers.RunAll(ses, model, *w, zp, args.seed, args.dir,
                                   *log, root_span, &why)) {
    return fail(why);
  }
  if (!ses.engine()->Flush().ok() || !ses.engine()->Compact().ok()) {
    return fail("final flush/compaction failed");
  }
  const uint64_t expect_size = model.full_size();
  if (ses.engine()->size() != expect_size) {
    tally.Wrong("store holds " + std::to_string(ses.engine()->size()) +
                " strings, expected " + std::to_string(expect_size));
  }
  const double store_bytes_per_string =
      static_cast<double>(DirBytes(ses.dir())) / expect_size;

  // ------------------------------------------------------------ reopen
  std::vector<double> reopen_ms;
  for (size_t r = 0; r < kReopenReps; ++r) {
    KeyGen keys(model, *w, zp, args.seed + 7 + r);
    Stream probe;
    AddRequest(model, keys, MsgType::kAccess, 1, &probe);
    const uint64_t span = log->NewId();
    const int64_t t0 = NowNs();
    ses.CloseEngine();
    if (!ses.OpenEngine()) return fail("reopen failed");
    if (!ses.StartServer(1)) return fail("cannot restart the server");
    std::vector<ConnResult> pr(1);
    RunPipelined(ses.fds()[0], probe, 1, &pr[0]);
    const int64_t t1 = NowNs();
    log->Add("phase.reopen", span, root_span, t0, t1);
    reopen_ms.push_back((t1 - t0) / 1e6);
    CheckPhase(model, {probe}, pr, &tally);
    if (r + 1 < kReopenReps && !ses.StopServer(&tally, &why)) {
      return fail(why);
    }
  }
  // After the last reopen: every acknowledged append is back, the domain
  // counts sum to the store size, and sampled appended strings read back
  // exactly.
  {
    const int fd = ses.fds()[0];
    if (ses.engine()->size() != expect_size) {
      tally.Wrong("reopened store holds " +
                  std::to_string(ses.engine()->size()) + " strings, expected " +
                  std::to_string(expect_size));
    }
    std::vector<Stream> check(1);
    std::vector<Item> domains;
    for (uint32_t pid : model.domain_prefixes()) {
      Item it;
      it.a = pid;
      domains.push_back(it);
    }
    AddItems(model, MsgType::kCountPrefix, domains, &check[0]);
    std::vector<ConnResult> cr(1);
    RunPipelined(fd, check[0], 1, &cr[0]);
    CheckPhase(model, check, cr, &tally);
    wt::net::PayloadReader rd(cr[0].replies[0].data(),
                              cr[0].replies[0].size());
    uint8_t st = 1;
    uint32_t n = 0;
    uint64_t sum = 0;
    for (bool ok = rd.Pod(&st) && st == 0 && rd.Pod(&n); ok && n > 0; --n) {
      uint64_t c = 0;
      ok = rd.Pod(&c);
      sum += c;
    }
    if (sum != expect_size) {
      tally.Wrong("count_prefix over all domains sums to " +
                  std::to_string(sum) + ", store holds " +
                  std::to_string(expect_size));
    }
    KeyGen keys(model, *w, zp, args.seed + 99);
    const size_t appended = model.append_log().size();
    std::vector<uint64_t> back;
    for (size_t i = 0; i < std::min(kReadBackSample, appended); ++i) {
      back.push_back(model.base_size() + (appended <= kReadBackSample
                                              ? i
                                              : keys.Uniform(appended)));
    }
    std::vector<Stream> bs{AccessStream(model, back)};
    std::vector<ConnResult> br(1);
    RunPipelined(fd, bs[0], kWindow, &br[0]);
    CheckPhase(model, bs, br, &tally);
  }
  if (!ses.StopServer(&tally, &why)) return fail(why);
  const double peak_rss_mb = ProcStatusKb("VmHWM:") / 1024.0;
  ses.CloseEngine();
  log->Add("run", root_span, 0, t_start, NowNs());
  log.reset();  // hands the main thread's spans to the trace

  // ------------------------------------------------------------ output
  const uint64_t engine_batches = net1.batch.count - net0.batch.count;
  const uint64_t positions = net1.positions - net0.positions;
  const double memo_ratio = Ratio(net1.memo_hits - net0.memo_hits, positions);
  std::string rates;
  for (double r : tp_rates) rates += " " + std::to_string(static_cast<long>(r));
  std::fprintf(stderr,
               "servebench: %s seed=%llu trace=%d setup=%.2fs items/s=%.0f "
               "[%s ] read p50=%.1fus p99=%.1fus append p50=%.1fus "
               "late p99=%.1fus reopen=%.2fms bytes/str=%.2f rss=%.0fMB "
               "memo=%.3f items/batch=%.1f cpu/item=%.0fns\n",
               w->name, static_cast<unsigned long long>(args.seed),
               args.trace ? 1 : 0, setup_s, items_per_s, rates.c_str(),
               Median(read_p50), Median(read_p99), Median(append_p50),
               Median(late_p99), Median(reopen_ms), store_bytes_per_string,
               peak_rss_mb, memo_ratio, Ratio(tp_items, engine_batches),
               server_cpu_ns_per_item);
  Output out;
  if (!args.trace) {
    // Serving times (throughput, CPU per item, latency) drift with the
    // load other tenants put on the machine's caches and scheduler beyond
    // any allowed bound (README), so they are reported by the traced pass
    // and on stderr, not here.
    out.Add("setup_s", setup_s, "s");
    out.Add("store_bytes_per_string", store_bytes_per_string, "B");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    auto counter_delta = [&](const char* name) {
      const uint64_t* a = engine_after_setup.FindCounter(name);
      const uint64_t* b = engine_after_serving.FindCounter(name);
      return static_cast<double>((b ? *b : 0) - (a ? *a : 0));
    };
    out.metrics = layers.metrics();
    out.Add("engine.freezes", counter_delta("wt_engine_freezes_total"),
            "count");
    out.Add("engine.compactions",
            counter_delta("wt_engine_compactions_total"), "count");
    out.Add("net.items_per_s", items_per_s, "items/s");
    out.Add("net.server_cpu_ns_per_item", server_cpu_ns_per_item, "ns");
    out.Add("net.read_p50_us", Median(read_p50), "us");
    out.Add("net.append_p50_us", Median(append_p50), "us");
    out.Add("net.round_trip_us", round_trip_us, "us");
    out.Add("net.memo_hit_ratio", memo_ratio, "ratio");
    out.Add("net.dup_hit_ratio",
            Ratio(net1.dup_hits - net0.dup_hits, positions), "ratio");
    out.Add("net.items_per_engine_batch", Ratio(tp_items, engine_batches),
            "items");
    out.Add("net.admit_wait_us", MeanDelta(net0.admit, net1.admit), "us");
    out.Add("net.engine_batch_us", MeanDelta(net0.engine, net1.engine), "us");
    out.Add("net.reply_flush_us", MeanDelta(net0.flush, net1.flush), "us");
    out.Add("net.requests_shed", static_cast<double>(net1.shed - net0.shed),
            "count");
    out.Add("loadgen.send_late_p99_us", Median(late_p99), "us");
    // How much of the per-item serving time at saturation the layer
    // timings explain: the dispatcher's own engine-batch time, and the
    // in-process engine.* cost of the workload's item mix.
    double mix_ns = 0, mix_items = 0;
    for (const MixEntry& e : w->mix) {
      const double n = static_cast<double>(e.per_round) * e.items;
      const char* layer =
          e.type == MsgType::kAccess        ? "engine.access_batch_ns"
          : e.type == MsgType::kRank        ? "engine.rank_batch_ns"
          : e.type == MsgType::kSelect      ? "engine.select_batch_ns"
          : e.type == MsgType::kCountPrefix ? "engine.count_prefix_ns"
          : e.type == MsgType::kFrequent    ? "engine.frequent_ns"
                                            : "engine.append_batch_ns_per_string";
      mix_ns += n * layers.Get(layer);
      mix_items += n;
    }
    const double serve_ns = 1e9 / items_per_s;
    std::fprintf(stderr,
                 "servebench: traced items/s=%.0f spans=%zu; per item: "
                 "serving %.0f ns, dispatcher engine batch %.0f ns (%.0f%%), "
                 "engine.* mix %.0f ns (%.0f%%)\n",
                 items_per_s, trace.size(), serve_ns,
                 Ratio(net1.engine.sum - net0.engine.sum, tp_items) * 1e3,
                 100 * Ratio(net1.engine.sum - net0.engine.sum, tp_items) *
                     1e3 / serve_ns,
                 mix_ns / mix_items, 100 * mix_ns / mix_items / serve_ns);
    if (!args.trace_out.empty() && !trace.WriteChromeJson(args.trace_out)) {
      return fail("cannot write the trace");
    }
  }
  PrintResult(tally.wrong == 0, tally, out);
  return 0;
}

}  // namespace
}  // namespace sb

int main(int argc, char** argv) {
  const int64_t t_start = sb::NowNs();
  sb::Args args;
  if (!sb::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --dir <dir> [--trace-out <file>]\n");
    return 2;
  }
  return sb::Run(args, t_start);
}

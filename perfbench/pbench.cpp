// pbench: the native half of the repository benchmark (perfbench/run.py
// drives it). Four subcommands:
//
//   pbench prepare <dir> <name=source.mc>...
//       Compiles each module in-process on the interp_fast tier, runs it on
//       its request payload and writes <dir>/<name>.req (request body) and
//       <dir>/<name>.resp (the exact response body every server reply is
//       checked against). The server runs the AoT tier, so this is also a
//       differential check of the two tiers.
//
//   pbench drive <plan.json>
//       The load generator: one thread, at most four keep-alive
//       connections. Each group of connections runs a seeded open loop
//       (Poisson arrivals, latency timed from the due time) or a closed loop
//       (back to back). An optional scraper GETs /admin/stats on its own
//       connection at a fixed period. Every response is checked (status 200
//       and exact body). Prints one JSON summary line.
//
//   pbench scrape <port> <dir> <reads> <module>...
//       Times GET /admin/stats after a window (see cmd_scrape).
//
//   pbench layers <dir> <name=source.mc>... -- <name=weight>...
//       Times direct calls into each layer's public functions on the
//       workload's own inputs (mix weights after "--"). Prints one JSON line.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "common/clock.hpp"
#include "common/file_util.hpp"
#include "common/json.hpp"
#include "http/http.hpp"
#include "minicc/minicc.hpp"
#include "sledge/dispatcher.hpp"
#include "sledge/resource_pool.hpp"
#include "sledge/runtime.hpp"
#include "sledge/sandbox.hpp"

using namespace sledge;

namespace {

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "pbench: %s\n", msg.c_str());
  std::exit(1);
}

std::vector<uint8_t> bytes_of(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string str_of(const std::vector<uint8_t>& v) {
  return std::string(v.begin(), v.end());
}

// "name=value" command-line pair.
std::pair<std::string, std::string> split_pair(const std::string& arg) {
  size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) die("expected name=value: " + arg);
  return {arg.substr(0, eq), arg.substr(eq + 1)};
}

// Nearest-rank percentile of an unsorted sample (sorted in place).
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

engine::WasmModule load_module(const std::string& name, const std::string& path,
                               engine::Tier tier) {
  auto src = read_file(path);
  if (!src.ok()) die("module " + name + ": " + src.error_message());
  auto wasm = minicc::compile_to_wasm(*src);
  if (!wasm.ok()) die("module " + name + ": " + wasm.error_message());
  engine::WasmModule::Config cfg;
  cfg.tier = tier;
  auto mod = engine::WasmModule::load(*wasm, cfg);
  if (!mod.ok()) die("module " + name + ": " + mod.error_message());
  return mod.take();
}

// Runs `mod` once on `request` on this thread; returns the response body.
std::vector<uint8_t> run_once(const engine::WasmModule& mod,
                              const std::vector<uint8_t>& request,
                              runtime::InstantiationMode mode =
                                  runtime::InstantiationMode::kPooled) {
  auto sb = runtime::Sandbox::create(&mod, request, -1, false, mode);
  if (!sb) die("sandbox create failed");
  Status s = runtime::run_sandbox_inline(sb.get());
  if (!s.is_ok() || sb->state() != runtime::SandboxState::kComplete) {
    die("inline run failed: " + s.message());
  }
  return sb->response();
}

// The exact request bytes the load generator sends for a module.
std::string request_bytes(const std::string& name,
                          const std::vector<uint8_t>& body) {
  return http::serialize_request("POST", "/" + name, body, true, "127.0.0.1");
}

// ---------------------------------------------------------------- prepare

int cmd_prepare(int argc, char** argv) {
  if (argc < 2) die("usage: pbench prepare <dir> <name=source.mc>...");
  const std::string dir = argv[0];
  for (int i = 1; i < argc; ++i) {
    auto [name, path] = split_pair(argv[i]);
    engine::WasmModule mod = load_module(name, path, engine::Tier::kInterpFast);
    std::vector<uint8_t> req = apps::app_request(name);
    std::vector<uint8_t> resp = run_once(mod, req);
    if (resp.empty()) die("module " + name + " answered an empty body");
    Status s = write_file(dir + "/" + name + ".req", str_of(req));
    if (s.is_ok()) s = write_file(dir + "/" + name + ".resp", str_of(resp));
    if (!s.is_ok()) die(s.message());
  }
  return 0;
}

// ---------------------------------------------------------------- drive

const std::string kScrapeWire =
    "GET /admin/stats HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";

struct Module {
  std::string name;
  std::string wire;       // full HTTP request
  std::string expected;   // exact response body
};

// A module's request and expected response, as `pbench prepare` wrote them.
Module load_prepared(const std::string& dir, const std::string& name) {
  auto req = read_file(dir + "/" + name + ".req");
  auto resp = read_file(dir + "/" + name + ".resp");
  if (!req.ok() || !resp.ok()) die("missing prepared data for " + name);
  return {name, request_bytes(name, bytes_of(*req)), *resp};
}

struct Group {
  std::string name;
  int conns = 1;
  double rate = 0;  // arrivals per second; 0 = closed loop
  std::vector<int> mix;        // module indices
  std::vector<double> cum;     // cumulative weights (for the pick)
  std::mt19937_64 rng;
  uint64_t next_due = 0;
  std::vector<std::pair<uint64_t, int>> queue;  // due, module (FIFO)
  size_t queue_head = 0;
};

// One request's life. Times are CLOCK_MONOTONIC ns; `sent` = first byte
// written, `written` = last byte written, `first_byte` = first reply byte.
struct Record {
  uint64_t due = 0, sent = 0, written = 0, first_byte = 0, done = 0;
  int group = 0;
  int module = -1;  // -1 = the /admin/stats scraper
  int status = 0;   // 0 = no response
  bool body_ok = false;
};

struct Conn {
  int fd = -1;
  int group = -1;  // -1 = scraper
  bool busy = false;
  const std::string* out = nullptr;
  size_t woff = 0;
  std::string in;
  Record rec;
};

double uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

int pick(Group& g, std::mt19937_64& rng) {
  double u = uniform(rng) * g.cum.back();
  size_t i = std::upper_bound(g.cum.begin(), g.cum.end(), u) - g.cum.begin();
  return g.mix[std::min(i, g.mix.size() - 1)];
}

uint64_t exp_gap_ns(std::mt19937_64& rng, double rate) {
  return static_cast<uint64_t>(-std::log1p(-uniform(rng)) / rate * 1e9);
}

int connect_to(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    die("connect to 127.0.0.1:" + std::to_string(port) + ": " +
        std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// Parses one complete response off the front of `in`. Returns false while
// incomplete; on a malformed head sets *status = 0 and consumes everything.
bool parse_response(std::string& in, int* status, std::string* body) {
  size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  *status = 0;
  if (in.compare(0, 5, "HTTP/") == 0 && in.size() > 12) {
    *status = std::atoi(in.c_str() + 9);
  }
  size_t len = 0;
  bool have_len = false;
  for (size_t p = in.find("\r\n"); p < head_end; p = in.find("\r\n", p + 2)) {
    static const char kCl[] = "content-length:";
    if (p + 2 + sizeof(kCl) - 1 > head_end) break;
    if (::strncasecmp(in.c_str() + p + 2, kCl, sizeof(kCl) - 1) == 0) {
      len = std::strtoull(in.c_str() + p + 2 + sizeof(kCl) - 1, nullptr, 10);
      have_len = true;
      break;
    }
  }
  if (!have_len) {
    *status = 0;
    in.clear();
    return true;
  }
  size_t total = head_end + 4 + len;
  if (in.size() < total) return false;
  body->assign(in, head_end + 4, len);
  in.erase(0, total);
  return true;
}

// The window is also cut into kSegments equal segments. Each segment gets
// its own p50 and completion rate, and the summary reports their medians:
// a host disturbance shorter than half the window (on shared virtual
// machines, bursts of steal lasting seconds) then moves neither.
constexpr int kSegments = 5;

struct Summary {
  uint64_t attempted = 0, ok = 0, bad_body = 0;
  std::map<int, uint64_t> status;
  std::vector<double> lat_ms, late_us;
  std::vector<double> seg_lat_ms[kSegments];  // by due time
  double seg_ok[kSegments] = {};              // completions, by done time
};

void print_summary(const char* key, Summary& s, double seconds, bool comma) {
  std::printf("\"%s\": {\"attempted\": %llu, \"ok\": %llu, "
              "\"bad_body\": %llu, \"status\": {",
              key, (unsigned long long)s.attempted, (unsigned long long)s.ok,
              (unsigned long long)s.bad_body);
  bool first = true;
  for (auto& [code, n] : s.status) {
    std::printf("%s\"%d\": %llu", first ? "" : ", ", code,
                (unsigned long long)n);
    first = false;
  }
  std::vector<double> seg_p50, seg_rps;
  for (int k = 0; k < kSegments; ++k) {
    seg_p50.push_back(percentile(s.seg_lat_ms[k], 0.5));
    seg_rps.push_back(s.seg_ok[k] * kSegments / seconds);
  }
  std::printf("}, \"lat_p50_ms\": %.6f, \"lat_p99_ms\": %.6f, "
              "\"lat_samples\": %zu, \"late_p99_us\": %.3f, "
              "\"seg_p50_ms\": %.6f, \"seg_rps\": %.3f}%s",
              percentile(s.lat_ms, 0.5), percentile(s.lat_ms, 0.99),
              s.lat_ms.size(), percentile(s.late_us, 0.99), median(seg_p50),
              median(seg_rps), comma ? ", " : "");
}

int cmd_drive(int argc, char** argv) {
  if (argc != 1) die("usage: pbench drive <plan.json>");
  auto text = read_file(argv[0]);
  if (!text.ok()) die(text.error_message());
  auto plan = json::parse(*text);
  if (!plan.ok()) die("plan: " + plan.error_message());
  const json::Value& p = *plan;
  const uint16_t port = static_cast<uint16_t>(p["port"].as_int(0));
  const double seconds = p["seconds"].as_number(0);
  const uint64_t seed = static_cast<uint64_t>(p["seed"].as_int(0));
  const std::string data = p["data"].as_string();
  const std::string spans_path = p["spans"].as_string();
  const double scrape_period = p["scrape_period_s"].as_number(0);
  if (port == 0 || seconds <= 0) die("plan needs port and seconds");

  std::vector<Module> modules;
  std::map<std::string, int> module_index;
  std::vector<Group> groups;
  int total_conns = 0;
  for (const json::Value& gv : p["groups"].as_array()) {
    Group g;
    g.name = gv["name"].as_string();
    g.conns = static_cast<int>(gv["conns"].as_int(1));
    g.rate = gv["rate"].as_number(0);
    double acc = 0;
    for (const auto& [name, w] : gv["mix"].as_object()) {
      if (!module_index.count(name)) {
        module_index[name] = static_cast<int>(modules.size());
        modules.push_back(load_prepared(data, name));
      }
      g.mix.push_back(module_index[name]);
      acc += w.as_number(0);
      g.cum.push_back(acc);
    }
    if (g.mix.empty() || acc <= 0 || g.conns < 1) die("bad group " + g.name);
    // One independent stream per group, derived from the run's seed.
    g.rng.seed(seed * 0x9E3779B97F4A7C15ull + groups.size() + 1);
    total_conns += g.conns;
    groups.push_back(std::move(g));
  }
  if (scrape_period > 0) ++total_conns;
  if (total_conns > 4) die("plan uses more than 4 connections");

  const bool trace = !spans_path.empty();
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // wake within 1 us of due

  std::vector<Conn> conns;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    for (int c = 0; c < groups[gi].conns; ++c) {
      Conn conn;
      conn.fd = connect_to(port);
      conn.group = static_cast<int>(gi);
      conns.push_back(std::move(conn));
    }
  }
  // Closed-loop connections each draw their module sequence from their own
  // seeded stream.
  std::vector<std::mt19937_64> conn_rng(conns.size());
  for (size_t c = 0; c < conns.size(); ++c) {
    conn_rng[c].seed(seed * 0xD1B54A32D192ED03ull + 1000 + c);
  }
  if (scrape_period > 0) {
    Conn conn;
    conn.fd = connect_to(port);
    conns.push_back(std::move(conn));
  }

  // Room for every record up front: growing the vector mid-window would
  // stall the generator while it copies.
  double expected_rps = scrape_period > 0 ? 1.0 / scrape_period : 0.0;
  for (const Group& g : groups) expected_rps += g.rate > 0 ? g.rate : 5000.0;
  std::vector<Record> records;
  records.reserve(static_cast<size_t>(expected_rps * seconds * 1.2) + 1024);
  const uint64_t start = now_ns() + 2'000'000;
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  const uint64_t drain_limit = end + 20'000'000'000ull;
  for (Group& g : groups) {
    if (g.rate > 0) g.next_due = start + exp_gap_ns(g.rng, g.rate);
  }
  const uint64_t scrape_gap = static_cast<uint64_t>(scrape_period * 1e9);
  uint64_t scrape_due = scrape_gap ? start + scrape_gap : UINT64_MAX;
  std::vector<uint64_t> scrape_queue;
  size_t scrape_head = 0;
  std::vector<uint64_t> idle_since(conns.size(), start);
  std::string body;

  auto begin_request = [&](size_t ci, uint64_t due, int module, uint64_t now) {
    Conn& c = conns[ci];
    c.busy = true;
    c.rec = Record{};
    c.rec.due = due;
    c.rec.sent = now;
    c.rec.group = c.group;
    c.rec.module = module;
    c.out = module >= 0 ? &modules[module].wire : &kScrapeWire;
    c.woff = 0;
  };
  auto fail_conn = [&](size_t ci) {
    Conn& c = conns[ci];
    if (c.busy) {
      c.rec.done = now_ns();
      records.push_back(c.rec);
    }
    ::close(c.fd);
    c.fd = connect_to(port);
    c.busy = false;
    c.in.clear();
  };

  std::vector<pollfd> pfds(conns.size());
  while (true) {
    uint64_t now = now_ns();
    // Release due arrivals into each group's FIFO.
    for (Group& g : groups) {
      while (g.rate > 0 && g.next_due <= now && g.next_due < end) {
        g.queue.emplace_back(g.next_due, pick(g, g.rng));
        g.next_due += exp_gap_ns(g.rng, g.rate);
      }
    }
    while (scrape_due <= now && scrape_due < end) {
      scrape_queue.push_back(scrape_due);
      scrape_due += scrape_gap;
    }
    // Hand queued work to idle connections.
    bool any_busy = false;
    for (size_t ci = 0; ci < conns.size(); ++ci) {
      Conn& c = conns[ci];
      if (!c.busy) {
        if (c.group < 0) {
          if (scrape_head < scrape_queue.size()) {
            begin_request(ci, scrape_queue[scrape_head++], -1, now);
          }
        } else {
          Group& g = groups[c.group];
          if (g.rate > 0) {
            if (g.queue_head < g.queue.size()) {
              auto [due, m] = g.queue[g.queue_head++];
              begin_request(ci, due, m, now);
            }
          } else if (now >= start && now < end) {
            begin_request(ci, idle_since[ci],
                          pick(g, conn_rng[ci]), now);
          }
        }
      }
      if (c.busy && c.woff < c.out->size()) {
        ssize_t n = ::send(c.fd, c.out->data() + c.woff, c.out->size() - c.woff,
                           MSG_NOSIGNAL);
        if (n > 0) {
          c.woff += static_cast<size_t>(n);
          if (c.woff == c.out->size() && trace) c.rec.written = now_ns();
        } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
          fail_conn(ci);
        }
      }
      any_busy |= c.busy;
    }
    bool queued = scrape_head < scrape_queue.size();
    for (Group& g : groups) queued |= g.queue_head < g.queue.size();
    if (now >= end && !any_busy && !queued) break;
    if (now >= drain_limit) {
      for (size_t ci = 0; ci < conns.size(); ++ci) {
        if (conns[ci].busy) fail_conn(ci);
      }
      break;
    }

    // Sleep until the next due time or a socket event. Sleeping rather than
    // spinning leaves the generator's core to the server: on a shared
    // virtual machine a busy-polling client raised the host's steal share.
    uint64_t wake = now < start ? start : now >= end ? drain_limit : end;
    for (const Group& g : groups) {
      if (g.rate > 0 && g.next_due < end) wake = std::min(wake, g.next_due);
    }
    if (scrape_due < end) wake = std::min(wake, scrape_due);
    for (size_t ci = 0; ci < conns.size(); ++ci) {
      const Conn& c = conns[ci];
      bool writing = c.busy && c.woff < c.out->size();
      pfds[ci] = {c.fd, static_cast<short>(POLLIN | (writing ? POLLOUT : 0)), 0};
    }
    uint64_t wait = wake > now ? wake - now : 0;
    timespec ts{static_cast<time_t>(wait / 1'000'000'000ull),
                static_cast<long>(wait % 1'000'000'000ull)};
    int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) die("ppoll failed");
    if (rc <= 0) continue;

    for (size_t ci = 0; ci < conns.size(); ++ci) {
      if (!(pfds[ci].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      Conn& c = conns[ci];
      char buf[65536];
      bool closed = false;
      while (true) {
        ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          if (trace && c.rec.first_byte == 0) c.rec.first_byte = now_ns();
          c.in.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
        closed = true;
        break;
      }
      int status = 0;
      if (c.busy && parse_response(c.in, &status, &body)) {
        c.rec.done = now_ns();
        c.rec.status = status;
        c.rec.body_ok = c.rec.module < 0
                            ? (!body.empty() && body[0] == '{')
                            : body == modules[c.rec.module].expected;
        records.push_back(c.rec);
        c.busy = false;
        idle_since[ci] = c.rec.done;
      }
      if (closed) fail_conn(ci);
    }
  }
  for (Conn& c : conns) ::close(c.fd);

  // ---- Summaries: per group, per module, scraper.
  auto segment = [&](uint64_t t) {
    uint64_t k = t <= start ? 0 : (t - start) * kSegments / (end - start);
    return std::min<uint64_t>(k, kSegments - 1);
  };
  std::vector<Summary> by_group(groups.size()), by_module(modules.size());
  Summary scrape;
  for (const Record& r : records) {
    Summary* sums[2] = {nullptr, nullptr};
    if (r.module < 0) {
      sums[0] = &scrape;
    } else {
      sums[0] = &by_group[r.group];
      sums[1] = &by_module[r.module];
    }
    for (Summary* s : sums) {
      if (!s) continue;
      ++s->attempted;
      ++s->status[r.status];
      bool ok = r.status == 200 && r.body_ok;
      if (r.status == 200 && !r.body_ok) ++s->bad_body;
      if (!ok) continue;
      ++s->ok;
      if (r.done <= end) s->seg_ok[segment(r.done)] += 1;
      s->lat_ms.push_back(static_cast<double>(r.done - r.due) / 1e6);
      s->seg_lat_ms[segment(r.due)].push_back(s->lat_ms.back());
      s->late_us.push_back(static_cast<double>(r.sent - r.due) / 1e3);
    }
  }

  if (trace) {
    FILE* f = std::fopen(spans_path.c_str(), "w");
    if (!f) die("cannot write " + spans_path);
    std::fprintf(f, "module,status,body_ok,due_ns,sent_ns,written_ns,"
                    "first_byte_ns,done_ns\n");
    for (const Record& r : records) {
      std::fprintf(f, "%s,%d,%d,%llu,%llu,%llu,%llu,%llu\n",
                   r.module < 0 ? "admin_stats" : modules[r.module].name.c_str(),
                   r.status, r.body_ok ? 1 : 0,
                   (unsigned long long)(r.due - start),
                   (unsigned long long)(r.sent - start),
                   (unsigned long long)(r.written ? r.written - start : 0),
                   (unsigned long long)(r.first_byte ? r.first_byte - start : 0),
                   (unsigned long long)(r.done - start));
    }
    std::fclose(f);
  }

  std::vector<double> all_late;
  for (Summary& s : by_group) {
    all_late.insert(all_late.end(), s.late_us.begin(), s.late_us.end());
  }
  std::printf("{\"late_p99_us\": %.3f, ", percentile(all_late, 0.99));
  std::printf("\"groups\": {");
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    print_summary(groups[gi].name.c_str(), by_group[gi], seconds,
                  gi + 1 < groups.size());
  }
  std::printf("}, \"modules\": {");
  for (size_t mi = 0; mi < modules.size(); ++mi) {
    print_summary(modules[mi].name.c_str(), by_module[mi], seconds,
                  mi + 1 < modules.size());
  }
  std::printf("}, ");
  print_summary("scrape", scrape, seconds, false);
  std::printf("}\n");
  return 0;
}

// ---------------------------------------------------------------- scrape

// Stats reads on one blocking keep-alive connection, run after a window
// has drained. Before each read, one checked request to every module adds
// a fresh sample to its histograms, so each read pays the full cost of
// digesting this window instead of returning a cached digest.
int cmd_scrape(int argc, char** argv) {
  if (argc < 4) die("usage: pbench scrape <port> <dir> <reads> <module>...");
  const uint16_t port = static_cast<uint16_t>(std::atoi(argv[0]));
  const std::string dir = argv[1];
  const int reads = std::atoi(argv[2]);
  std::vector<Module> modules;
  for (int i = 3; i < argc; ++i) modules.push_back(load_prepared(dir, argv[i]));
  int fd = connect_to(port);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  std::string in, body;
  auto call = [&](const std::string& wire) {
    if (::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(wire.size())) {
      die("scrape: send failed");
    }
    int status = 0;
    while (!parse_response(in, &status, &body)) {
      char buf[65536];
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) die("scrape: connection closed");
      in.append(buf, static_cast<size_t>(n));
    }
    return status;
  };
  std::vector<double> ms;
  int wrong = 0;
  for (int i = 0; i < reads; ++i) {
    for (const Module& m : modules) {
      wrong += call(m.wire) != 200 || body != m.expected;
    }
    uint64_t t = now_ns();
    if (call(kScrapeWire) != 200 || body.empty() || body[0] != '{') {
      die("GET /admin/stats failed after the window");
    }
    ms.push_back(static_cast<double>(now_ns() - t) / 1e6);
  }
  ::close(fd);
  std::printf("{\"p50_ms\": %.6f, \"requests\": %zu, \"wrong\": %d}\n",
              median(ms), modules.size() * reads, wrong);
  return 0;
}

// ---------------------------------------------------------------- layers

// Median per-call time (ns) of `fn` over `batches` batches of `n` calls.
template <typename Fn>
double time_per_call_ns(int batches, int n, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    Stopwatch sw;
    for (int i = 0; i < n; ++i) fn();
    per_call.push_back(static_cast<double>(sw.elapsed_ns()) / n);
  }
  return median(per_call);
}

// Median Sandbox::create time (us) at `mode` over create/run/teardown
// cycles (teardown refills the pool between pooled iterations).
double create_us(const engine::WasmModule& mod, const std::vector<uint8_t>& req,
                 runtime::InstantiationMode mode, bool pool_enabled, int iters) {
  auto& pool = runtime::SandboxResourcePool::instance();
  runtime::SandboxResourcePool::Config pc;
  pc.enabled = pool_enabled;
  pool.configure(pc);
  pool.purge();
  run_once(mod, req, mode);  // warm caches; builds the snapshot template
  std::vector<double> us;
  for (int i = 0; i < iters; ++i) {
    Stopwatch sw;
    auto sb = runtime::Sandbox::create(&mod, req, -1, false, mode);
    us.push_back(static_cast<double>(sw.elapsed_ns()) / 1e3);
    if (!sb) die("sandbox create failed");
    runtime::run_sandbox_inline(sb.get());
  }
  return median(us);
}

// Median run_sandbox_inline time (us) on a pooled sandbox.
double exec_us(const engine::WasmModule& mod, const std::vector<uint8_t>& req,
               int iters) {
  std::vector<double> us;
  for (int i = 0; i < iters; ++i) {
    auto sb = runtime::Sandbox::create(&mod, req, -1, false,
                                       runtime::InstantiationMode::kPooled);
    if (!sb) die("sandbox create failed");
    Stopwatch sw;
    runtime::run_sandbox_inline(sb.get());
    us.push_back(static_cast<double>(sw.elapsed_ns()) / 1e3);
  }
  return median(us);
}

int cmd_layers(int argc, char** argv) {
  if (argc < 2) die("usage: pbench layers <dir> <name=src>... -- <name=w>...");
  const std::string dir = argv[0];
  std::map<std::string, std::string> sources;
  std::map<std::string, double> mix;
  bool weights = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--") == 0) {
      weights = true;
      continue;
    }
    auto [name, value] = split_pair(argv[i]);
    if (weights) {
      mix[name] = std::atof(value.c_str());
    } else {
      sources[name] = value;
    }
  }
  double total_w = 0;
  for (auto& [name, w] : mix) {
    if (!sources.count(name)) die("mix names an unknown module: " + name);
    total_w += w;
  }
  if (total_w <= 0) die("empty mix");

  std::map<std::string, engine::WasmModule> mods;
  std::map<std::string, std::vector<uint8_t>> reqs, resps;
  for (auto& [name, path] : sources) {
    mods.emplace(name, load_module(name, path, engine::Tier::kAot));
    auto req = read_file(dir + "/" + name + ".req");
    auto resp = read_file(dir + "/" + name + ".resp");
    if (!req.ok() || !resp.ok()) die("missing prepared data for " + name);
    reqs[name] = bytes_of(*req);
    resps[name] = bytes_of(*resp);
  }
  std::map<std::string, double> out;
  auto weighted = [&](const std::string& key, auto&& per_module) {
    double acc = 0;
    for (auto& [name, w] : mix) acc += w / total_w * per_module(name);
    out[key] = acc;
  };

  // http: parse the exact request bytes; serialize the response header.
  weighted("http.parse_us", [&](const std::string& name) {
    std::string wire = request_bytes(name, reqs[name]);
    http::RequestParser parser;
    return time_per_call_ns(7, 200, [&] {
             parser.reset();
             if (parser.feed(wire.data(), wire.size()) !=
                     static_cast<int>(wire.size()) ||
                 !parser.done()) {
               die("parser rejected the request for " + name);
             }
           }) / 1e3;
  });
  weighted("http.serialize_us", [&](const std::string& name) {
    size_t len = resps[name].size();
    size_t sink = 0;
    double ns = time_per_call_ns(7, 2000, [&] {
      sink += http::serialize_response_header(200, "OK", len, true).size();
    });
    if (sink == 0) die("empty response header");
    return ns / 1e3;
  });

  // admission: the full admit decision for a registered module.
  {
    runtime::RuntimeConfig rc;
    rc.workers = 2;
    runtime::Runtime rt(rc);
    engine::WasmModule::Config ec;
    ec.tier = engine::Tier::kInterpFast;
    auto src = read_file(sources.begin()->second);
    auto wasm = minicc::compile_to_wasm(*src);
    if (!wasm.ok()) die(wasm.error_message());
    Status s = rt.register_module("m", *wasm, ec);
    if (!s.is_ok()) die(s.message());
    const runtime::LoadedModule* m = rt.find_module("m");
    int admitted = 0;
    out["admission.check_ns"] = time_per_call_ns(7, 20000, [&] {
      admitted += rt.admission_check(m) == runtime::AdmitVerdict::kAdmit;
    });
    if (admitted == 0) die("admission_check never admitted");
  }

  // dispatcher: one push + one fetch through the default work-stealing
  // dispatcher (2 workers, as the server runs).
  {
    auto disp = runtime::Dispatcher::make(runtime::DispatchPolicy::kWorkStealing,
                                          runtime::DistPolicy::kWorkStealing, 2);
    const auto& any = *mods.begin();
    auto sb = runtime::Sandbox::create(&any.second, reqs[any.first]);
    runtime::Sandbox* got = nullptr;
    out["dispatcher.push_fetch_ns"] = time_per_call_ns(7, 20000, [&] {
      disp->push(sb.get());
      if (!disp->fetch(0, &got) || got != sb.get()) die("dispatcher lost work");
    });
  }

  // engine: guest execution per app (each app's own payload), and the
  // switch-in/switch-out floor on ping.
  std::map<std::string, double> exec;
  for (auto& [name, mod] : mods) {
    double first = exec_us(mod, reqs[name], 1);
    int iters = static_cast<int>(std::clamp(60000.0 / std::max(first, 1.0), 5.0, 400.0));
    exec[name] = exec_us(mod, reqs[name], iters);
    if (name == "ping") {
      out["worker.run_inline_us.ping"] = exec[name];
    } else {
      out["engine.exec_us." + name] = exec[name];
    }
  }

  // sandbox / resource_pool / snapshot: creation per startup tier.
  using runtime::InstantiationMode;
  struct Tier {
    const char* key;
    InstantiationMode mode;
    bool pool;
  };
  for (Tier t : {Tier{"sandbox.create_us.cold", InstantiationMode::kCold, false},
                 Tier{"sandbox.create_us.pooled", InstantiationMode::kPooled, true},
                 Tier{"sandbox.create_us.snapshot", InstantiationMode::kSnapshot,
                      true}}) {
    weighted(t.key, [&](const std::string& name) {
      int iters = static_cast<int>(
          std::clamp(40000.0 / std::max(exec[name], 1.0), 20.0, 300.0));
      return create_us(mods.at(name), reqs[name], t.mode, t.pool, iters);
    });
  }

  std::printf("{");
  bool first = true;
  for (auto& [key, v] : out) {
    std::printf("%s\"%s\": %.6f", first ? "" : ", ", key.c_str(), v);
    first = false;
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (argc < 2) die("usage: pbench prepare|drive|scrape|layers ...");
  std::string cmd = argv[1];
  if (cmd == "prepare") return cmd_prepare(argc - 2, argv + 2);
  if (cmd == "drive") return cmd_drive(argc - 2, argv + 2);
  if (cmd == "scrape") return cmd_scrape(argc - 2, argv + 2);
  if (cmd == "layers") return cmd_layers(argc - 2, argv + 2);
  die("unknown subcommand " + cmd);
}

#include "obs/admin_server.h"

#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "net/conn.h"
#include "net/poller.h"
#include "net/socket.h"
#include "obs/flight_recorder.h"
#include "obs/slo_monitor.h"
#include "obs/tenant_slo.h"
#include "telemetry/sink.h"

namespace arlo::obs {
namespace {

/// Parses `alloc=n0,n1,...` out of a query string or urlencoded body into
/// non-negative ints.  Any other key=value pairs around it are ignored.
bool ParseAllocParam(const std::string& params, std::vector<int>& out) {
  out.clear();
  std::size_t at = params.find("alloc=");
  // Must be the start of a parameter, not a suffix of a longer key.
  while (at != std::string::npos && at != 0 && params[at - 1] != '&') {
    at = params.find("alloc=", at + 1);
  }
  if (at == std::string::npos) return false;
  at += std::string("alloc=").size();
  const std::size_t end = params.find('&', at);
  const std::string csv = params.substr(
      at, end == std::string::npos ? std::string::npos : end - at);
  if (csv.empty()) return false;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok = csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (tok.empty()) return false;
    int value = 0;
    for (char c : tok) {
      if (c < '0' || c > '9') return false;
      value = value * 10 + (c - '0');
      if (value > 1'000'000) return false;  // sanity cap
    }
    out.push_back(value);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out.empty();
}

}  // namespace

struct AdminServer::Impl {
  struct Conn {
    /// The socket and its unwritten response; `io.want_read` turns false
    /// once the one request a connection carries is complete.
    net::Conn io;
    HttpRequestParser parser;
  };

  explicit Impl(Options opts) : options(opts) {}

  void Loop();
  void AcceptNew();
  void OnReadable(int fd);
  void FlushConn(int fd);
  void CloseConn(int fd);
  HttpResponse Dispatch(const HttpRequest& request);

  Options options;
  std::map<std::string, Handler> routes;  ///< "METHOD path" -> handler
  std::set<std::string> known_paths;      ///< for 405 vs 404

  net::ScopedFd listen_fd;
  net::WakePipe wake;
  std::unique_ptr<net::Poller> poller;
  std::thread thread;
  std::atomic<bool> stopping{false};
  bool started = false;
  std::uint16_t port = 0;

  std::map<int, Conn> conns;

  mutable std::mutex stats_mu;
  Stats stats;
};

void AdminServer::Impl::AcceptNew() {
  for (;;) {
    net::ScopedFd fd = net::AcceptConn(listen_fd.Get());
    if (!fd.Valid()) return;  // none pending, or a transient failure
    const int raw = fd.Get();
    conns[raw].io.fd = std::move(fd);
    poller->Add(raw, /*want_read=*/true, /*want_write=*/false);
    std::lock_guard lock(stats_mu);
    ++stats.connections;
  }
}

HttpResponse AdminServer::Impl::Dispatch(const HttpRequest& request) {
  const auto it = routes.find(request.method + " " + request.path);
  if (it != routes.end()) {
    return it->second(request);
  }
  HttpResponse response;
  if (known_paths.count(request.path) > 0) {
    response.status = 405;
    response.body = "method not allowed\n";
  } else {
    response.status = 404;
    response.body = "not found\n";
  }
  return response;
}

void AdminServer::Impl::OnReadable(int fd) {
  const auto it = conns.find(fd);
  if (it == conns.end()) return;
  Conn& conn = it->second;
  if (!conn.io.want_read) return;  // ignore extra bytes while flushing
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.parser.Feed(buf, static_cast<std::size_t>(n));
      if (conn.parser.Complete() || conn.parser.Error()) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(fd);  // peer closed (or hard error) before a full request
    return;
  }
  HttpResponse response;
  if (conn.parser.Error()) {
    response.status = 400;
    response.body = "bad request\n";
    std::lock_guard lock(stats_mu);
    ++stats.bad_requests;
  } else {
    response = Dispatch(conn.parser.Request());
    std::lock_guard lock(stats_mu);
    ++stats.requests;
  }
  const std::string bytes = SerializeResponse(response);
  conn.io.out.assign(bytes.begin(), bytes.end());
  conn.io.want_read = false;  // a partial flush re-registers write-only
  FlushConn(fd);
}

void AdminServer::Impl::FlushConn(int fd) {
  const auto it = conns.find(fd);
  if (it == conns.end()) return;
  net::Conn& io = it->second.io;
  // One response per connection: close once it is written, or on an error.
  if (net::FlushConn(*poller, io) < 0 || io.out.empty()) CloseConn(fd);
}

void AdminServer::Impl::CloseConn(int fd) {
  const auto it = conns.find(fd);
  if (it == conns.end()) return;
  poller->Remove(fd);
  conns.erase(it);  // ScopedFd closes
}

void AdminServer::Impl::Loop() {
  std::vector<net::PollEvent> events;
  while (!stopping.load(std::memory_order_relaxed)) {
    poller->Wait(-1, events);  // Stop wakes it through the pipe
    for (const net::PollEvent& ev : events) {
      if (ev.fd == wake.ReadFd()) {
        wake.Drain();
        continue;
      }
      if (ev.fd == listen_fd.Get()) {
        if (ev.readable) AcceptNew();
        continue;
      }
      if (ev.hangup) {
        CloseConn(ev.fd);
        continue;
      }
      if (ev.readable) OnReadable(ev.fd);
      if (ev.writable) FlushConn(ev.fd);
    }
  }
}

AdminServer::AdminServer() : AdminServer(Options()) {}

AdminServer::AdminServer(Options options)
    : impl_(std::make_unique<Impl>(options)) {}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Route(const std::string& method, const std::string& path,
                        Handler handler) {
  ARLO_CHECK_MSG(!impl_->started, "Route after Start");
  impl_->routes[method + " " + path] = std::move(handler);
  impl_->known_paths.insert(path);
}

void AdminServer::Start() {
  ARLO_CHECK_MSG(!impl_->started, "Start called twice");
  impl_->started = true;
  impl_->listen_fd = net::ListenTcp(impl_->options.port);
  net::SetNonBlocking(impl_->listen_fd.Get());
  impl_->port = net::LocalPort(impl_->listen_fd.Get());
  impl_->poller = std::make_unique<net::Poller>();
  impl_->poller->Add(impl_->listen_fd.Get(), /*want_read=*/true,
                     /*want_write=*/false);
  impl_->poller->Add(impl_->wake.ReadFd(), /*want_read=*/true,
                     /*want_write=*/false);
  impl_->thread = std::thread([this] { impl_->Loop(); });
}

void AdminServer::Stop() {
  if (!impl_->started || impl_->stopping.load(std::memory_order_relaxed)) {
    return;
  }
  impl_->stopping.store(true, std::memory_order_relaxed);
  impl_->wake.Wake();
  if (impl_->thread.joinable()) impl_->thread.join();
  // Tear down on the caller's thread — the loop has exited.
  for (auto& [fd, conn] : impl_->conns) {
    (void)conn;
    impl_->poller->Remove(fd);
  }
  impl_->conns.clear();
  if (impl_->listen_fd.Valid()) {
    impl_->poller->Remove(impl_->listen_fd.Get());
    impl_->listen_fd.Reset();
  }
}

std::uint16_t AdminServer::Port() const { return impl_->port; }

AdminServer::Stats AdminServer::GetStats() const {
  std::lock_guard lock(impl_->stats_mu);
  return impl_->stats;
}

AdminPlane::AdminPlane(AdminPlaneConfig config)
    : config_(std::move(config)),
      server_(AdminServer::Options{config_.port}) {
  telemetry::TelemetrySink* sink = config_.sink;
  server_.Route("GET", "/", [](const HttpRequest&) {
    HttpResponse r;
    r.body =
        "arlo admin plane\n"
        "  GET  /metrics     Prometheus exposition\n"
        "  GET  /healthz     liveness (200/503)\n"
        "  GET  /statusz     cluster status JSON\n"
        "  GET  /slo         SLO attainment + burn rates\n"
        "  POST /realloc     apply alloc=n0,n1,... GPUs-per-runtime target\n"
        "  POST /debug/dump  flight-recorder Chrome trace\n";
    return r;
  });
  server_.Route("GET", "/metrics", [sink](const HttpRequest&) {
    HttpResponse r;
    if (!sink) {
      r.status = 503;
      r.body = "no telemetry sink\n";
      return r;
    }
    std::ostringstream os;
    sink->WritePrometheus(os);
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = os.str();
    return r;
  });
  const auto healthz = config_.healthz;
  server_.Route("GET", "/healthz", [healthz](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "application/json";
    if (!healthz) {
      r.body = json::OneMemberObject("ok", true) + "\n";
      return r;
    }
    const AdminPlaneConfig::HealthzReport report = healthz();
    if (!report.ok) r.status = 503;
    std::ostringstream os;
    json::Writer(os).BeginObject().Field("ok", report.ok).Key("detail").Raw(
        report.detail_json).EndObject();
    r.body = os.str() + "\n";
    return r;
  });
  const auto statusz = config_.statusz;
  server_.Route("GET", "/statusz", [statusz](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "application/json";
    if (!statusz) {
      r.status = 503;
      r.body = json::OneMemberObject("error", "no status provider") + "\n";
      return r;
    }
    std::ostringstream os;
    statusz(os);
    os << "\n";
    r.body = os.str();
    return r;
  });
  SloMonitor* slo = config_.slo;
  TenantSloSet* tenant_slo = config_.tenant_slo;
  const auto now_fn = config_.now;
  server_.Route("GET", "/slo", [slo, tenant_slo, now_fn](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "application/json";
    if (!slo && !tenant_slo) {
      r.status = 503;
      r.body = json::OneMemberObject("error", "no slo monitor") + "\n";
      return r;
    }
    const SimTime now = now_fn ? now_fn() : 0;
    std::ostringstream os;
    json::Writer w(os);
    if (slo && tenant_slo) {
      // Both: wrap so each payload keeps its standalone shape.
      w.BeginObject().Key("global");
      slo->WriteJson(w, now);
      w.Key("tenants");
      tenant_slo->WriteJson(w, now);
      w.EndObject();
    } else if (slo) {
      slo->WriteJson(w, now);
    } else {
      tenant_slo->WriteJson(w, now);
    }
    os << "\n";
    r.body = os.str();
    return r;
  });
  const auto realloc_fn = config_.realloc;
  server_.Route("POST", "/realloc", [realloc_fn](const HttpRequest& req) {
    HttpResponse r;
    r.content_type = "application/json";
    if (!realloc_fn) {
      r.status = 503;
      r.body = json::OneMemberObject("error", "no realloc provider") + "\n";
      return r;
    }
    std::vector<int> allocation;
    if (!ParseAllocParam(!req.query.empty() ? req.query : req.body,
                         allocation)) {
      r.status = 400;
      r.body =
          json::OneMemberObject("error", "expected alloc=n0,n1,...") + "\n";
      return r;
    }
    if (!realloc_fn(allocation)) {
      r.status = 409;  // fleet shape mismatch or rollout in flight: retry
      r.body = json::OneMemberObject("applied", false) + "\n";
      return r;
    }
    r.body = json::OneMemberObject("applied", true) + "\n";
    return r;
  });
  FlightRecorder* flight = config_.flight;
  server_.Route("POST", "/debug/dump", [flight](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "application/json";
    if (!flight) {
      r.status = 503;
      r.body = json::OneMemberObject("error", "no flight recorder") + "\n";
      return r;
    }
    std::ostringstream os;
    flight->WriteJson(os);
    r.body = os.str();
    return r;
  });
}

}  // namespace arlo::obs

#include "cluster/router_admin.h"

#include <cstdlib>
#include <sstream>

#include "cluster/router.h"
#include "common/json.h"
#include "ctrl/scheduler.h"
#include "obs/http.h"
#include "serving/statusz.h"
#include "telemetry/sink.h"

namespace arlo::cluster {

bool QueryInt(const std::string& query, const std::string& key,
              std::int64_t& out) {
  std::size_t at = 0;
  while (at < query.size()) {
    std::size_t end = query.find('&', at);
    if (end == std::string::npos) end = query.size();
    const std::size_t eq = query.find('=', at);
    if (eq != std::string::npos && eq < end &&
        query.compare(at, eq - at, key) == 0) {
      const std::string value = query.substr(eq + 1, end - eq - 1);
      char* tail = nullptr;
      const long long parsed = std::strtoll(value.c_str(), &tail, 10);
      if (tail == value.c_str() || *tail != '\0') return false;
      out = parsed;
      return true;
    }
    at = end + 1;
  }
  return false;
}

std::unique_ptr<obs::AdminServer> MakeRouterAdmin(
    Router& router, telemetry::TelemetrySink* sink, std::uint16_t port,
    ctrl::ClusterScheduler* ctrl) {
  obs::AdminServer::Options options;
  options.port = port;
  auto server = std::make_unique<obs::AdminServer>(options);

  server->Route("GET", "/", [ctrl](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.body =
        "arlo cluster router\n"
        "  GET  /metrics\n"
        "  GET  /healthz\n"
        "  GET  /statusz\n"
        "  GET  /fleetz\n"
        "  POST /cluster/drain?node=N\n"
        "  POST /cluster/join?port=P&admin=A\n";
    if (ctrl != nullptr) {
      response.body +=
          "  GET  /ctrl/statusz\n"
          "  POST /ctrl/replan\n";
    }
    return response;
  });

  server->Route("GET", "/metrics", [sink](const obs::HttpRequest&) {
    obs::HttpResponse response;
    if (sink == nullptr) {
      response.status = 503;
      response.body = "no telemetry sink\n";
      return response;
    }
    std::ostringstream os;
    sink->WritePrometheus(os);
    response.body = os.str();
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return response;
  });

  server->Route("GET", "/healthz", [&router](const obs::HttpRequest&) {
    obs::HttpResponse response;
    const bool healthy = router.Healthy();
    response.status = healthy ? 200 : 503;
    response.content_type = "application/json";
    response.body = json::OneMemberObject("ok", healthy);
    return response;
  });

  server->Route("GET", "/statusz", [&router](const obs::HttpRequest&) {
    obs::HttpResponse response;
    std::ostringstream os;
    json::Writer w(os);
    router.WriteStatusJson(w);
    response.body = os.str();
    response.content_type = "application/json";
    return response;
  });

  // The fleet-wide view: router statusz, per-stage latency summary, ctrl
  // scheduler status, and every node's own /statusz merged into one JSON
  // document (docs/OBSERVABILITY.md has the schema).  Nodes whose admin
  // plane does not answer are listed with "reachable":false rather than
  // omitted, so the view always covers the whole pool.
  server->Route(
      "GET", "/fleetz", [&router, sink, ctrl](const obs::HttpRequest&) {
        obs::HttpResponse response;
        response.content_type = "application/json";
        std::ostringstream os;
        json::Writer w(os);
        w.BeginObject().Key("router");
        router.WriteStatusJson(w);
        if (sink != nullptr) {
          w.Key("stages");
          sink->WriteStageSummaryJson(w);
        }
        if (ctrl != nullptr) {
          w.Key("ctrl");
          ctrl->WriteStatusJson(w);
        }
        w.Key("nodes").BeginArray();
        for (const NodeStatus& node : router.Pool().Status()) {
          w.BeginObject().Field("id", node.node);
          w.Field("admin_port", node.endpoint.admin_port);
          w.Field("state", NodeStateName(node.state));
          obs::HttpResult result;
          if (node.endpoint.admin_port != 0) {
            result = obs::HttpFetch(node.endpoint.admin_port, "GET",
                                    "/statusz");
          }
          // Splice only a body the strict statusz parser accepts.
          serving::Statusz parsed;
          const bool reachable = result.ok && result.status == 200 &&
                                 serving::ParseStatusz(result.body, parsed);
          w.Field("reachable", reachable);
          if (reachable) w.Key("statusz").Raw(result.body);
          w.EndObject();
        }
        w.EndArray().EndObject();
        response.body = os.str();
        return response;
      });

  server->Route(
      "POST", "/cluster/drain", [&router](const obs::HttpRequest& request) {
        obs::HttpResponse response;
        response.content_type = "application/json";
        std::int64_t node = -1;
        if (!QueryInt(request.query, "node", node)) {
          response.status = 400;
          response.body = json::OneMemberObject("error", "missing node=N");
          return response;
        }
        if (!router.DrainNode(static_cast<int>(node))) {
          response.status = 409;
          response.body = json::OneMemberObject("error", "node not drainable");
          return response;
        }
        response.body = json::OneMemberObject("draining", node);
        return response;
      });

  server->Route(
      "POST", "/cluster/join", [&router](const obs::HttpRequest& request) {
        obs::HttpResponse response;
        response.content_type = "application/json";
        std::int64_t port = 0;
        if (!QueryInt(request.query, "port", port) || port <= 0 ||
            port > 65535) {
          response.status = 400;
          response.body = json::OneMemberObject("error", "missing port=P");
          return response;
        }
        std::int64_t admin = 0;
        QueryInt(request.query, "admin", admin);  // optional
        NodeEndpoint endpoint;
        endpoint.port = static_cast<std::uint16_t>(port);
        endpoint.admin_port = static_cast<std::uint16_t>(admin);
        const int node = router.JoinNode(endpoint);
        if (node < 0) {
          response.status = 409;
          response.body = json::OneMemberObject("error", "join failed");
          return response;
        }
        response.body = json::OneMemberObject("joined", node);
        return response;
      });

  if (ctrl != nullptr) {
    server->Route("GET", "/ctrl/statusz", [ctrl](const obs::HttpRequest&) {
      obs::HttpResponse response;
      response.content_type = "application/json";
      std::ostringstream os;
      json::Writer w(os);
      ctrl->WriteStatusJson(w);
      response.body = os.str();
      return response;
    });
    // The runbook's manual override: run one control round with the KS
    // gate forced open (docs/CONTROL_PLANE.md).
    server->Route("POST", "/ctrl/replan", [ctrl](const obs::HttpRequest&) {
      obs::HttpResponse response;
      response.content_type = "application/json";
      const ctrl::ClusterScheduler::RoundReport report = ctrl->RunOnce(true);
      std::ostringstream os;
      json::Writer w(os);
      w.BeginObject().Field("replanned", report.replanned);
      w.Field("deltas_shipped", report.deltas_shipped);
      w.Field("deltas_applied", report.deltas_applied);
      w.Field("deltas_rejected", report.deltas_rejected).EndObject();
      response.body = os.str();
      return response;
    });
  }

  return server;
}

}  // namespace arlo::cluster

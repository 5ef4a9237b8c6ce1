#include "gsn/container/web_interface.h"

#include <cstdio>

#include "gsn/network/chaos_transport.h"
#include "gsn/util/export.h"
#include "gsn/util/strings.h"
#include "gsn/xml/xml.h"

namespace gsn::container {

using network::HttpRequest;
using network::HttpResponse;

namespace {
constexpr char kApiPrefix[] = "/api/v1";
constexpr size_t kApiPrefixLen = sizeof(kApiPrefix) - 1;

/// Fixed-notation double for JSON (no locale, no exponent surprises).
std::string JsonDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

network::EpollTransport::Options HttpTransportOptions(Container* container) {
  network::EpollTransport::Options options;
  options.metrics = container->metrics();
  options.metrics_role = "http";
  return options;
}

/// ?limit=&offset= for the uniform list endpoints. Missing parameters
/// mean "everything"; anything non-numeric or negative is an error.
Status ParsePage(const HttpRequest& request, size_t* limit, size_t* offset) {
  *limit = std::string::npos;
  *offset = 0;
  const std::string limit_text = request.QueryOr("limit", "");
  if (!limit_text.empty()) {
    Result<int64_t> value = ParseInt64(limit_text);
    if (!value.ok() || *value < 0) {
      return Status::InvalidArgument("?limit= must be a non-negative integer");
    }
    *limit = static_cast<size_t>(*value);
  }
  const std::string offset_text = request.QueryOr("offset", "");
  if (!offset_text.empty()) {
    Result<int64_t> value = ParseInt64(offset_text);
    if (!value.ok() || *value < 0) {
      return Status::InvalidArgument("?offset= must be a non-negative integer");
    }
    *offset = static_cast<size_t>(*value);
  }
  return Status::OK();
}

/// The uniform envelope: {"items":[<page of items>],"total":N} where
/// `total` counts every item before paging. `extra` appends additional
/// top-level fields (",\"enabled\":true").
std::string ListEnvelope(const std::vector<std::string>& items, size_t limit,
                         size_t offset, const std::string& extra = "") {
  std::string json = "{\"items\":[";
  bool first = true;
  for (size_t i = offset; i < items.size() && i - offset < limit; ++i) {
    if (!first) json += ",";
    first = false;
    json += items[i];
  }
  json += "],\"total\":" + std::to_string(items.size()) + extra + "}";
  return json;
}

void AppendConnectionItems(const network::Transport& transport,
                           const std::string& role,
                           std::vector<std::string>* items) {
  for (const network::ConnectionStats& c : transport.Connections()) {
    items->push_back(
        "{\"role\":" + JsonEscape(role) +
        ",\"transport\":" + JsonEscape(transport.transport_name()) +
        ",\"peer\":" + JsonEscape(c.peer) + ",\"kind\":" + JsonEscape(c.kind) +
        ",\"state\":" + JsonEscape(c.state) +
        ",\"queued_bytes\":" + std::to_string(c.queued_bytes) +
        ",\"requests_served\":" + std::to_string(c.requests_served) +
        ",\"frames_in\":" + std::to_string(c.frames_in) +
        ",\"frames_out\":" + std::to_string(c.frames_out) +
        ",\"age_micros\":" + std::to_string(c.age_micros) +
        ",\"idle_micros\":" + std::to_string(c.idle_micros) + "}");
  }
}
}  // namespace

WebInterface::WebInterface(Container* container)
    : container_(container), http_(HttpTransportOptions(container)) {
  // The route table. Paths are canonical (below /api/v1); the bare
  // legacy paths alias onto the same rows.
  auto add = [this](const char* method, const char* path, bool prefix,
                    auto handler) {
    routes_.push_back(Route{method, path, prefix, std::move(handler)});
  };
  add("GET", "/sensors", false,
      [this](const HttpRequest&, const std::string&) {
        return HandleSensors();
      });
  add("GET", "/sensors/", true,
      [this](const HttpRequest&, const std::string& name) {
        return HandleSensorStatus(name);
      });
  add("GET", "/query", false,
      [this](const HttpRequest& r, const std::string&) {
        return HandleQuery(r);
      });
  add("GET", "/explain", false,
      [this](const HttpRequest& r, const std::string&) {
        return HandleExplain(r);
      });
  add("GET", "/discover", false,
      [this](const HttpRequest& r, const std::string&) {
        return HandleDiscover(r);
      });
  add("GET", "/topology", false,
      [this](const HttpRequest&, const std::string&) {
        return HandleTopology();
      });
  add("GET", "/metrics", false,
      [this](const HttpRequest&, const std::string&) {
        return HandleMetrics();
      });
  add("GET", "/traces", false,
      [this](const HttpRequest& r, const std::string&) {
        return HandleTraces(r);
      });
  add("GET", "/peers", false, [this](const HttpRequest& r, const std::string&) {
    return HandlePeers(r);
  });
  add("GET", "/transport", false,
      [this](const HttpRequest& r, const std::string&) {
        return HandleTransport(r);
      });
  add("GET", "/status", false,
      [this](const HttpRequest&, const std::string&) {
        return HandleStatus();
      });
  add("GET", "/segments", false,
      [this](const HttpRequest& r, const std::string&) {
        return HandleSegments(r);
      });
  add("GET", "/healthz", false,
      [this](const HttpRequest&, const std::string&) {
        return HandleHealthz();
      });
  add("GET", "/readyz", false,
      [this](const HttpRequest&, const std::string&) {
        return HandleReadyz();
      });
  add("GET", "/quarantine", false,
      [this](const HttpRequest& r, const std::string&) {
        return HandleQuarantine(r);
      });
  add("POST", "/quarantine/requeue", false,
      [this](const HttpRequest& r, const std::string&) {
        return HandleQuarantineRequeue(r);
      });
  add("POST", "/quarantine/clear", false,
      [this](const HttpRequest&, const std::string&) {
        return HandleQuarantineClear();
      });
  add("POST", "/checkpoint", false,
      [this](const HttpRequest&, const std::string&) {
        return HandleCheckpoint();
      });
  add("POST", "/drain", false,
      [this](const HttpRequest&, const std::string&) {
        return HandleDrain();
      });
  add("GET", "/chaos", false,
      [this](const HttpRequest&, const std::string&) { return HandleChaos(); });
  add("POST", "/chaos", false,
      [this](const HttpRequest& r, const std::string&) {
        return HandleChaosCommand(r);
      });
  add("POST", "/deploy", false,
      [this](const HttpRequest& r, const std::string&) {
        return HandleDeploy(r);
      });
  add("POST", "/undeploy", false,
      [this](const HttpRequest& r, const std::string&) {
        return HandleUndeploy(r);
      });
}

Status WebInterface::Start(uint16_t port) {
  GSN_RETURN_IF_ERROR(http_.Start());
  const Status listen = http_.ListenHttp(
      port, [this](const HttpRequest& request) { return Handle(request); });
  if (!listen.ok()) http_.Stop();
  return listen;
}

void WebInterface::Stop() { http_.Stop(); }

std::string WebInterface::ApiKey(const HttpRequest& request) {
  const std::string header = request.HeaderOr("x-api-key", "");
  return header.empty() ? request.QueryOr("key", "") : header;
}

HttpResponse WebInterface::ErrorJson(int http_status, const std::string& code,
                                     const std::string& message) {
  return HttpResponse::Json("{\"error\":{\"code\":" + JsonEscape(code) +
                                ",\"message\":" + JsonEscape(message) + "}}",
                            http_status);
}

HttpResponse WebInterface::FromStatus(const Status& status) {
  const int http_status =
      status.code() == StatusCode::kNotFound           ? 404
      : status.code() == StatusCode::kPermissionDenied ? 403
      : status.code() == StatusCode::kParseError       ? 400
      : status.code() == StatusCode::kInvalidArgument  ? 400
                                                       : 500;
  return ErrorJson(http_status, StatusCodeName(status.code()),
                   status.message());
}

HttpResponse WebInterface::Handle(const HttpRequest& request) {
  if (request.method == "GET" && request.path == "/") return HandleIndex();
  std::string path = request.path;
  if (StrStartsWith(path, kApiPrefix)) {
    path = path.substr(kApiPrefixLen);
    if (path.empty() || path == "/") {
      if (request.method == "GET") return HandleApiIndex();
      return ErrorJson(405, "MethodNotAllowed",
                       "method not allowed: " + request.method);
    }
    return Dispatch(request, path);
  }
  // The unversioned aliases are retired: a path that names a known
  // resource gets a pointer to its v1 home, everything else a 404.
  for (const Route& route : routes_) {
    const bool match =
        route.prefix ? StrStartsWith(path, route.path) : path == route.path;
    if (match) {
      return ErrorJson(410, "gone",
                       "unversioned paths were removed; use " +
                           std::string(kApiPrefix) + path);
    }
  }
  return ErrorJson(404, "NotFound", "no such resource: " + request.path);
}

HttpResponse WebInterface::Dispatch(const HttpRequest& request,
                                    const std::string& path) {
  bool path_matched = false;
  for (const Route& route : routes_) {
    const bool match =
        route.prefix ? StrStartsWith(path, route.path) : path == route.path;
    if (!match) continue;
    path_matched = true;
    if (route.method != request.method) continue;
    return route.handler(
        request, route.prefix ? path.substr(route.path.size()) : "");
  }
  if (path_matched) {
    return ErrorJson(405, "MethodNotAllowed",
                     "method not allowed: " + request.method);
  }
  return ErrorJson(404, "NotFound", "no such resource: " + request.path);
}

HttpResponse WebInterface::HandleIndex() {
  std::string html = "<html><head><title>GSN node " +
                     xml::Escape(container_->node_id()) +
                     "</title></head><body><h1>GSN node " +
                     xml::Escape(container_->node_id()) +
                     "</h1><h2>Virtual sensors</h2><ul>";
  for (const std::string& name : container_->ListSensors()) {
    html += "<li><a href=\"/api/v1/sensors/" + name + "\">" +
            xml::Escape(name) + "</a></li>";
  }
  html +=
      "</ul><p>API: /api/v1/sensors /api/v1/query?sql=... "
      "/api/v1/explain?sql=...&amp;analyze=1 /api/v1/discover?key=val "
      "/api/v1/topology /api/v1/metrics /api/v1/traces /api/v1/peers "
      "/api/v1/transport POST /api/v1/deploy POST "
      "/api/v1/undeploy?name=...</p></body></html>";
  return HttpResponse::Html(std::move(html));
}

HttpResponse WebInterface::HandleApiIndex() {
  std::string json = "{\"version\":\"v1\",\"routes\":[";
  bool first = true;
  for (const Route& route : routes_) {
    if (!first) json += ",";
    first = false;
    json += "{\"method\":" + JsonEscape(route.method) + ",\"path\":" +
            JsonEscape(std::string(kApiPrefix) + route.path +
                       (route.prefix ? "<name>" : "")) +
            "}";
  }
  json += "]}";
  return HttpResponse::Json(std::move(json));
}

HttpResponse WebInterface::HandleSensors() {
  std::string json = "[";
  bool first = true;
  for (const std::string& name : container_->ListSensors()) {
    Result<Container::SensorStatus> status =
        container_->GetSensorStatus(name);
    if (!status.ok()) continue;
    if (!first) json += ",";
    first = false;
    json += "{\"name\":" + JsonEscape(name) + ",\"state\":" +
            JsonEscape(Container::SensorStateName(status->state)) +
            ",\"produced\":" + std::to_string(status->stats.produced) +
            ",\"stored_rows\":" + std::to_string(status->stored_rows) + "}";
  }
  json += "]";
  return HttpResponse::Json(std::move(json));
}

HttpResponse WebInterface::HandleSensorStatus(const std::string& name) {
  Result<Container::SensorStatus> status = container_->GetSensorStatus(name);
  if (!status.ok()) return FromStatus(status.status());
  std::string json =
      "{\"name\":" + JsonEscape(status->name) + ",\"state\":" +
      JsonEscape(Container::SensorStateName(status->state)) +
      ",\"pool_size\":" + std::to_string(status->pool_size) +
      ",\"triggers\":" + std::to_string(status->stats.triggers) +
      ",\"produced\":" + std::to_string(status->stats.produced) +
      ",\"rate_limited\":" + std::to_string(status->stats.rate_limited) +
      ",\"errors\":" + std::to_string(status->stats.errors) +
      ",\"restarts\":" + std::to_string(status->restart_attempts) +
      ",\"queue_depth\":" + std::to_string(status->queue_depth) +
      ",\"shed\":" + std::to_string(status->shed) +
      ",\"stored_rows\":" + std::to_string(status->stored_rows) +
      ",\"stored_bytes\":" + std::to_string(status->stored_bytes) +
      ",\"remote_subscribers\":" +
      std::to_string(status->remote_subscribers) + "}";
  return HttpResponse::Json(std::move(json));
}

HttpResponse WebInterface::HandleQuery(const HttpRequest& request) {
  const std::string sql = request.QueryOr("sql", "");
  if (sql.empty()) {
    return ErrorJson(400, "InvalidArgument", "missing ?sql= parameter");
  }
  Result<Relation> result = container_->Query(sql, ApiKey(request));
  if (!result.ok()) return FromStatus(result.status());
  if (request.QueryOr("format", "json") == "csv") {
    HttpResponse response = HttpResponse::Text(RelationToCsv(*result));
    response.content_type = "text/csv";
    return response;
  }
  return HttpResponse::Json(RelationToJson(*result));
}

HttpResponse WebInterface::HandleExplain(const HttpRequest& request) {
  const std::string sql = request.QueryOr("sql", "");
  if (sql.empty()) {
    return ErrorJson(400, "InvalidArgument", "missing ?sql= parameter");
  }
  const bool analyze = request.QueryOr("analyze", "0") != "0";
  Result<std::string> plan =
      analyze ? container_->query_manager().ExplainAnalyze(sql)
              : container_->query_manager().Explain(sql);
  if (!plan.ok()) return FromStatus(plan.status());
  return HttpResponse::Text(*plan);
}

HttpResponse WebInterface::HandleDiscover(const HttpRequest& request) {
  std::map<std::string, std::string> predicates = request.query;
  predicates.erase("key");  // the auth parameter is not a predicate
  std::string json = "[";
  bool first = true;
  for (const network::DirectoryEntry& entry :
       container_->Discover(predicates)) {
    if (!first) json += ",";
    first = false;
    json += "{\"sensor\":" + JsonEscape(entry.sensor_name) +
            ",\"node\":" + JsonEscape(entry.node_id) + ",\"predicates\":{";
    bool first_pred = true;
    for (const auto& [key, val] : entry.predicates) {
      if (!first_pred) json += ",";
      first_pred = false;
      json += JsonEscape(key) + ":" + JsonEscape(val);
    }
    json += "}}";
  }
  json += "]";
  return HttpResponse::Json(std::move(json));
}

HttpResponse WebInterface::HandleTopology() {
  std::vector<GraphEdge> edges;
  for (const Container::TopologyEdge& e : container_->Topology()) {
    edges.push_back(GraphEdge{e.from, e.to, e.label});
  }
  HttpResponse response =
      HttpResponse::Text(EdgesToDot(container_->node_id(), edges));
  response.content_type = "text/vnd.graphviz";
  return response;
}

HttpResponse WebInterface::HandleMetrics() {
  std::string body = container_->metrics()->RenderPrometheus();
  // Process-wide series (e.g. the SQL join-strategy counters) live in
  // the default registry; append them when the container isn't already
  // using it.
  if (container_->metrics() != telemetry::MetricRegistry::Default()) {
    body += telemetry::MetricRegistry::Default()->RenderPrometheus();
  }
  HttpResponse response = HttpResponse::Text(std::move(body));
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  return response;
}

HttpResponse WebInterface::HandleTraces(const HttpRequest& request) {
  const std::string id = request.QueryOr("id", "");
  if (!id.empty()) {
    uint64_t hi = 0;
    uint64_t lo = 0;
    if (!telemetry::ParseTraceIdHex(id, &hi, &lo)) {
      return ErrorJson(400, "InvalidArgument",
                       "?id= must be a 32-char hex trace id");
    }
  }
  size_t limit = 0;
  size_t offset = 0;
  const Status page = ParsePage(request, &limit, &offset);
  if (!page.ok()) return FromStatus(page);
  return HttpResponse::Json(telemetry::RenderTracesJson(
      container_->tracer()->store(), id, limit, offset));
}

HttpResponse WebInterface::HandlePeers(const HttpRequest& request) {
  size_t limit = 0;
  size_t offset = 0;
  const Status page = ParsePage(request, &limit, &offset);
  if (!page.ok()) return FromStatus(page);
  std::vector<std::string> items;
  for (const Container::PeerStatus& peer : container_->PeerStatuses()) {
    items.push_back("{\"node\":" + JsonEscape(peer.node_id) +
                    ",\"circuit\":" + JsonEscape(peer.circuit) +
                    ",\"last_seen_micros\":" + std::to_string(peer.last_seen) +
                    ",\"circuit_opened_total\":" +
                    std::to_string(peer.circuit_opened_total) + "}");
  }
  return HttpResponse::Json(ListEnvelope(items, limit, offset));
}

HttpResponse WebInterface::HandleTransport(const HttpRequest& request) {
  size_t limit = 0;
  size_t offset = 0;
  const Status page = ParsePage(request, &limit, &offset);
  if (!page.ok()) return FromStatus(page);
  std::vector<std::string> items;
  if (container_->network() != nullptr) {
    AppendConnectionItems(*container_->network(), "peer", &items);
  }
  AppendConnectionItems(http_, "http", &items);
  const std::string extra =
      ",\"peer_transport\":" +
      JsonEscape(container_->network() != nullptr
                     ? container_->network()->transport_name()
                     : "none") +
      ",\"http\":{\"accepted_total\":" +
      std::to_string(http_.accepted_total()) +
      ",\"requests_total\":" + std::to_string(http_.http_requests_total()) +
      ",\"timeouts_total\":" + std::to_string(http_.timeouts_total()) +
      ",\"overflows_total\":" + std::to_string(http_.overflows_total()) + "}";
  return HttpResponse::Json(ListEnvelope(items, limit, offset, extra));
}

HttpResponse WebInterface::HandleStatus() {
  const Container::ContainerStatus status = container_->GetStatus();
  const wrappers::SystemSnapshot& t = status.totals;
  std::string json = "{\"node\":" + JsonEscape(status.node_id) +
                     ",\"version\":" + JsonEscape(status.version) +
                     ",\"compiler\":" + JsonEscape(status.compiler) +
                     ",\"draining\":" + (status.draining ? "true" : "false") +
                     ",\"ready\":" + (status.health.ready ? "true" : "false") +
                     ",\"reasons\":[";
  bool first = true;
  for (const std::string& reason : status.health.reasons) {
    if (!first) json += ",";
    first = false;
    json += JsonEscape(reason);
  }
  json += "],\"totals\":{\"uptime_s\":" + std::to_string(t.uptime_seconds) +
          ",\"sensors\":" + std::to_string(t.sensors) +
          ",\"running\":" + std::to_string(t.running) +
          ",\"restarting\":" + std::to_string(t.restarting) +
          ",\"failed\":" + std::to_string(t.failed) +
          ",\"queue_depth\":" + std::to_string(t.queue_depth) +
          ",\"shed_total\":" + std::to_string(t.shed_total) +
          ",\"quarantined\":" + std::to_string(t.quarantined) +
          ",\"replay_bytes\":" + std::to_string(t.replay_bytes) +
          ",\"open_circuits\":" + std::to_string(t.open_circuits) +
          ",\"peers\":" + std::to_string(t.peers) +
          ",\"segments\":" + std::to_string(t.segments) +
          ",\"segment_bytes\":" + std::to_string(t.segment_bytes) +
          ",\"tuples_total\":" + std::to_string(t.tuples_total) +
          ",\"errors_total\":" + std::to_string(t.errors_total) +
          ",\"metric_series\":" + std::to_string(t.metric_series) +
          ",\"tick_mean_ms\":" + JsonDouble(t.tick_mean_ms) +
          ",\"tick_p95_ms\":" + JsonDouble(t.tick_p95_ms) +
          ",\"lock_wait_share\":" + JsonDouble(t.lock_wait_share) +
          ",\"queue_wait_p95_ms\":" + JsonDouble(t.queue_wait_p95_ms) +
          ",\"rss_bytes\":" + std::to_string(t.rss_bytes) +
          ",\"cpu_seconds\":" + JsonDouble(t.cpu_seconds) + "}";
  json += ",\"sensors\":[";
  first = true;
  for (const Container::SensorStatus& sensor : status.sensors) {
    if (!first) json += ",";
    first = false;
    json += "{\"name\":" + JsonEscape(sensor.name) + ",\"state\":" +
            JsonEscape(Container::SensorStateName(sensor.state)) +
            ",\"produced\":" + std::to_string(sensor.stats.produced) +
            ",\"errors\":" + std::to_string(sensor.stats.errors) +
            ",\"restarts\":" + std::to_string(sensor.restart_attempts) +
            ",\"queue_depth\":" + std::to_string(sensor.queue_depth) +
            ",\"shed\":" + std::to_string(sensor.shed) +
            ",\"stored_rows\":" + std::to_string(sensor.stored_rows) + "}";
  }
  json += "],\"shards\":[";
  first = true;
  for (const Container::ShardStatus& shard : status.shards) {
    if (!first) json += ",";
    first = false;
    json += "{\"index\":" + std::to_string(shard.index) +
            ",\"sensors\":" + std::to_string(shard.sensors) +
            ",\"ticks_total\":" + std::to_string(shard.ticks_total) +
            ",\"lock_acquisitions\":" +
            std::to_string(shard.lock_acquisitions) +
            ",\"lock_contended\":" + std::to_string(shard.lock_contended) +
            ",\"lock_wait_micros\":" + std::to_string(shard.lock_wait_micros) +
            "}";
  }
  json += "],\"locks\":[";
  first = true;
  for (const Container::LockStats& lock : status.locks) {
    if (!first) json += ",";
    first = false;
    json += "{\"name\":" + JsonEscape(lock.name) +
            ",\"acquisitions\":" + std::to_string(lock.acquisitions) +
            ",\"contended\":" + std::to_string(lock.contended) +
            ",\"wait_micros\":" + std::to_string(lock.wait_micros) + "}";
  }
  json += "],\"hot_spans\":[";
  first = true;
  for (const Container::HotSpan& span : status.hot_spans) {
    if (!first) json += ",";
    first = false;
    json += "{\"name\":" + JsonEscape(span.name) +
            ",\"count\":" + std::to_string(span.count) +
            ",\"total_micros\":" + std::to_string(span.total_micros) +
            ",\"max_micros\":" + std::to_string(span.max_micros) + "}";
  }
  json += "],\"peers\":[";
  first = true;
  for (const Container::PeerStatus& peer : status.peers) {
    if (!first) json += ",";
    first = false;
    json += "{\"node\":" + JsonEscape(peer.node_id) +
            ",\"circuit\":" + JsonEscape(peer.circuit) + "}";
  }
  json += "],\"recovery\":{\"records\":" +
          std::to_string(status.recovered_records) +
          ",\"failures\":" + std::to_string(status.recovery_failures) + "}}";
  return HttpResponse::Json(std::move(json));
}

HttpResponse WebInterface::HandleSegments(const HttpRequest& request) {
  size_t limit = 0;
  size_t offset = 0;
  const Status page = ParsePage(request, &limit, &offset);
  if (!page.ok()) return FromStatus(page);
  const storage::columnar::SegmentCatalog* catalog =
      container_->segment_catalog();
  std::vector<std::string> items;
  if (catalog != nullptr) {
    for (const storage::columnar::SegmentMeta& meta : catalog->List()) {
      items.push_back("{\"table\":" + JsonEscape(meta.table) +
                      ",\"id\":" + std::to_string(meta.id) +
                      ",\"rows\":" + std::to_string(meta.row_count) +
                      ",\"chunks\":" + std::to_string(meta.chunk_count) +
                      ",\"bytes\":" + std::to_string(meta.bytes) +
                      ",\"min_timed\":" + std::to_string(meta.min_timed) +
                      ",\"max_timed\":" + std::to_string(meta.max_timed) + "}");
    }
  }
  std::string extra = ",\"enabled\":";
  extra += catalog != nullptr ? "true" : "false";
  extra += ",\"segment_count\":";
  extra += std::to_string(catalog != nullptr ? catalog->segment_count() : 0);
  extra += ",\"total_bytes\":";
  extra += std::to_string(catalog != nullptr ? catalog->total_bytes() : 0);
  return HttpResponse::Json(ListEnvelope(items, limit, offset, extra));
}

HttpResponse WebInterface::HandleHealthz() {
  // Liveness: the probe answering at all is the signal.
  return HttpResponse::Json("{\"status\":\"ok\"}");
}

HttpResponse WebInterface::HandleReadyz() {
  const Container::Health health = container_->GetHealth();
  std::string json = std::string("{\"ready\":") +
                     (health.ready ? "true" : "false") + ",\"reasons\":[";
  bool first = true;
  for (const std::string& reason : health.reasons) {
    if (!first) json += ",";
    first = false;
    json += JsonEscape(reason);
  }
  json += "]}";
  return HttpResponse::Json(std::move(json), health.ready ? 200 : 503);
}

HttpResponse WebInterface::HandleQuarantine(const HttpRequest& request) {
  size_t limit = 0;
  size_t offset = 0;
  const Status page = ParsePage(request, &limit, &offset);
  if (!page.ok()) return FromStatus(page);
  std::vector<std::string> items;
  for (const QuarantineStore::Entry& entry :
       container_->quarantine().List()) {
    items.push_back(
        "{\"id\":" + std::to_string(entry.id) +
        ",\"sensor\":" + JsonEscape(entry.sensor) +
        ",\"stream\":" + JsonEscape(entry.stream) +
        ",\"source\":" + JsonEscape(entry.source_alias) +
        ",\"error\":" + JsonEscape(entry.error) +
        ",\"quarantined_at_micros\":" + std::to_string(entry.quarantined_at) +
        ",\"element_timed\":" + std::to_string(entry.element.timed) + "}");
  }
  return HttpResponse::Json(ListEnvelope(items, limit, offset));
}

HttpResponse WebInterface::HandleQuarantineRequeue(const HttpRequest& request) {
  const std::string id_text = request.QueryOr("id", "");
  if (id_text.empty()) {
    return ErrorJson(400, "InvalidArgument", "missing ?id=");
  }
  Result<int64_t> id = ParseInt64(id_text);
  if (!id.ok() || *id < 0) {
    return ErrorJson(400, "InvalidArgument",
                     "?id= must be a quarantine entry id");
  }
  const Status status =
      container_->RequeueQuarantined(static_cast<uint64_t>(*id));
  if (!status.ok()) return FromStatus(status);
  return HttpResponse::Json("{\"requeued\":" + id_text + "}");
}

HttpResponse WebInterface::HandleQuarantineClear() {
  const size_t cleared = container_->quarantine().Clear();
  return HttpResponse::Json("{\"cleared\":" + std::to_string(cleared) + "}");
}

HttpResponse WebInterface::HandleCheckpoint() {
  const Status status = container_->Checkpoint();
  if (!status.ok()) return FromStatus(status);
  return HttpResponse::Json("{\"checkpointed\":true}");
}

HttpResponse WebInterface::HandleDrain() {
  const Status status = container_->Shutdown();
  if (!status.ok()) return FromStatus(status);
  return HttpResponse::Json("{\"drained\":true}");
}

HttpResponse WebInterface::HandleChaos() {
  network::Transport* transport = container_->network();
  network::ChaosTransport* chaos =
      transport != nullptr ? transport->AsChaos() : nullptr;
  if (chaos == nullptr) {
    return ErrorJson(404, "NotFound",
                     transport != nullptr
                         ? "no chaos transport attached (this container runs "
                           "on '" +
                               transport->transport_name() + "')"
                         : "no chaos transport attached (standalone "
                           "container has no network)");
  }
  const network::ChaosTransport::Counters counters = chaos->counters();
  std::string rules;
  for (const network::ChaosTransport::RuleEntry& entry : chaos->Rules()) {
    if (!rules.empty()) rules += ",";
    const network::ChaosTransport::Rule& r = entry.rule;
    rules += "{\"peer\":" + JsonEscape(entry.peer) + ",\"direction\":" +
             JsonEscape(network::DirectionName(entry.direction)) +
             ",\"frames\":" + std::to_string(entry.frames) +
             ",\"drop\":" + JsonDouble(r.drop) +
             ",\"dup\":" + JsonDouble(r.dup) +
             ",\"reorder\":" + JsonDouble(r.reorder) +
             ",\"reset\":" + JsonDouble(r.reset) +
             ",\"delay_micros\":" + std::to_string(r.delay_micros) +
             ",\"delay_jitter_micros\":" +
             std::to_string(r.delay_jitter_micros) +
             ",\"throttle_bytes_per_sec\":" +
             std::to_string(r.throttle_bytes_per_sec) +
             ",\"partitioned\":" + (r.partitioned ? "true" : "false") + "}";
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(chaos->ScheduleDigest()));
  return HttpResponse::Json(
      "{\"transport\":" + JsonEscape(chaos->transport_name()) +
      ",\"seed\":" + std::to_string(chaos->seed()) +
      ",\"schedule_digest\":\"" + digest + "\"" +
      ",\"injected\":{\"dropped\":" + std::to_string(counters.dropped) +
      ",\"duplicated\":" + std::to_string(counters.duplicated) +
      ",\"reordered\":" + std::to_string(counters.reordered) +
      ",\"delayed\":" + std::to_string(counters.delayed) +
      ",\"throttled\":" + std::to_string(counters.throttled) +
      ",\"partitioned\":" + std::to_string(counters.partitioned) +
      ",\"resets\":" + std::to_string(counters.resets) + "}" +
      ",\"rules\":[" + rules + "]}");
}

HttpResponse WebInterface::HandleChaosCommand(const HttpRequest& request) {
  if (request.body.empty()) {
    return ErrorJson(400, "InvalidArgument",
                     "POST body must be one chaos command line "
                     "(e.g. \"loss peer-b 0.1 out\"; see docs/CHAOS.md)");
  }
  Result<std::string> result =
      network::ExecuteChaosCommand(container_->network(), request.body);
  if (!result.ok()) return FromStatus(result.status());
  std::string text = *result;
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return HttpResponse::Json("{\"ok\":true,\"result\":" + JsonEscape(text) +
                            "}");
}

HttpResponse WebInterface::HandleDeploy(const HttpRequest& request) {
  if (request.body.empty()) {
    return ErrorJson(400, "InvalidArgument",
                     "POST body must be a descriptor XML");
  }
  Result<vsensor::VirtualSensor*> sensor =
      container_->Deploy(request.body, ApiKey(request));
  if (!sensor.ok()) return FromStatus(sensor.status());
  return HttpResponse::Json(
      "{\"deployed\":" + JsonEscape((*sensor)->name()) + "}");
}

HttpResponse WebInterface::HandleUndeploy(const HttpRequest& request) {
  const std::string name = request.QueryOr("name", "");
  if (name.empty()) {
    return ErrorJson(400, "InvalidArgument", "missing ?name=");
  }
  const Status status = container_->Undeploy(name, ApiKey(request));
  if (!status.ok()) return FromStatus(status);
  return HttpResponse::Json("{\"undeployed\":" + JsonEscape(name) + "}");
}

}  // namespace gsn::container

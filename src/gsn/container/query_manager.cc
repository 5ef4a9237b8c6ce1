#include "gsn/container/query_manager.h"

#include "gsn/sql/optimizer.h"
#include "gsn/sql/parser.h"
#include "gsn/util/logging.h"
#include "gsn/util/strings.h"

namespace gsn::container {

namespace {
void CollectTablesFromRef(const sql::TableRef& ref,
                          std::set<std::string>* out);

void CollectTablesFromExpr(const sql::Expr& expr,
                           std::set<std::string>* out) {
  if (expr.subquery) {
    // Handled by the statement walker below.
  }
  for (const auto& child : expr.children) {
    if (child) CollectTablesFromExpr(*child, out);
  }
}
}  // namespace

void QueryManager::CollectTables(const sql::SelectStmt& stmt,
                                 std::set<std::string>* out) {
  for (const auto& ref : stmt.from) {
    CollectTablesFromRef(*ref, out);
  }
  auto walk_expr = [out](const sql::Expr* e) {
    if (e == nullptr) return;
    // Walk into expression subqueries.
    std::vector<const sql::Expr*> stack{e};
    while (!stack.empty()) {
      const sql::Expr* cur = stack.back();
      stack.pop_back();
      if (cur->subquery) CollectTables(*cur->subquery, out);
      for (const auto& child : cur->children) {
        if (child) stack.push_back(child.get());
      }
    }
  };
  for (const auto& item : stmt.items) {
    if (!item.is_star) walk_expr(item.expr.get());
  }
  walk_expr(stmt.where.get());
  for (const auto& g : stmt.group_by) walk_expr(g.get());
  walk_expr(stmt.having.get());
  for (const auto& ob : stmt.order_by) walk_expr(ob.expr.get());
  if (stmt.set_rhs) CollectTables(*stmt.set_rhs, out);
}

namespace {
void CollectTablesFromRef(const sql::TableRef& ref,
                          std::set<std::string>* out) {
  switch (ref.kind) {
    case sql::TableRef::Kind::kTable:
      out->insert(StrToLower(ref.table_name));
      break;
    case sql::TableRef::Kind::kSubquery:
      QueryManager::CollectTables(*ref.subquery, out);
      break;
    case sql::TableRef::Kind::kJoin:
      CollectTablesFromRef(*ref.left, out);
      CollectTablesFromRef(*ref.right, out);
      break;
  }
}
}  // namespace

QueryManager::QueryManager(const sql::TableResolver* resolver,
                           telemetry::MetricRegistry* metrics)
    : resolver_(resolver) {
  telemetry::MetricRegistry* registry = metrics;
  if (registry == nullptr) {
    owned_metrics_ = std::make_unique<telemetry::MetricRegistry>();
    registry = owned_metrics_.get();
  }
  mu_.Instrument(registry, "query_cache");
  metrics_.executed = registry->GetCounter("gsn_queries_total", {},
                                           "One-shot queries executed");
  metrics_.cache_hits = registry->GetCounter(
      "gsn_query_cache_hits_total", {}, "Prepared-statement cache hits");
  metrics_.cache_misses = registry->GetCounter(
      "gsn_query_cache_misses_total", {}, "Prepared-statement cache misses");
  metrics_.cache_evictions = registry->GetCounter(
      "gsn_query_cache_evictions_total", {},
      "Prepared statements evicted by the cache's LRU bound");
  metrics_.continuous_runs = registry->GetCounter(
      "gsn_continuous_runs_total", {},
      "Continuous query re-executions triggered by new elements");
  metrics_.slow_queries = registry->GetCounter(
      "gsn_slow_queries_total", {},
      "Queries that crossed the slow-query threshold");
  metrics_.parse_micros = registry->GetHistogram(
      "gsn_query_parse_micros", {},
      "SQL parse + plan time (the paper's query compiling cost)");
  metrics_.exec_micros = registry->GetHistogram(
      "gsn_query_exec_micros", {}, "SQL execution time (Fig 4)");
}

void QueryManager::set_slow_query_micros(int64_t threshold_micros) {
  slow_query_micros_.store(threshold_micros, std::memory_order_relaxed);
}

int64_t QueryManager::slow_query_micros() const {
  return slow_query_micros_.load(std::memory_order_relaxed);
}

void QueryManager::set_tracer(telemetry::Tracer* tracer) {
  tracer_.store(tracer, std::memory_order_relaxed);
}

std::vector<QueryManager::SlowQueryEntry> QueryManager::slow_log() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return std::vector<SlowQueryEntry>(slow_log_.begin(), slow_log_.end());
}

void QueryManager::MaybeLogSlow(const std::string& sql_text,
                                const std::string& source,
                                int64_t elapsed_micros,
                                const sql::SelectStmt* stmt,
                                const sql::AnalyzeCollector* analyze) {
  const int64_t threshold = slow_query_micros();
  if (threshold <= 0 || elapsed_micros < threshold) return;
  metrics_.slow_queries->Increment();
  GSN_LOG(kWarn, "query") << "slow query from " << source << " ("
                          << elapsed_micros << " us >= " << threshold
                          << " us): " << sql_text;
  SlowQueryEntry entry;
  entry.sql_text = sql_text;
  entry.source = source;
  entry.elapsed_micros = elapsed_micros;
  if (stmt != nullptr && analyze != nullptr && !analyze->empty()) {
    entry.plan = sql::ExplainAnalyzeString(*stmt, *analyze);
  }
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  if (slow_log_.size() >= kSlowLogCapacity) slow_log_.pop_front();
  slow_log_.push_back(std::move(entry));
}

void QueryManager::EvictCacheLocked() {
  while (cache_.size() > cache_capacity_ && !lru_.empty()) {
    cache_.erase(lru_.back().first);
    lru_.pop_back();
    metrics_.cache_evictions->Increment();
  }
}

Result<std::shared_ptr<sql::SelectStmt>> QueryManager::Prepare(
    const std::string& sql_text) {
  {
    std::lock_guard<telemetry::TimedMutex> lock(mu_);
    if (cache_enabled_) {
      auto it = cache_.find(sql_text);
      if (it != cache_.end()) {
        metrics_.cache_hits->Increment();
        lru_.splice(lru_.begin(), lru_, it->second);  // mark most recent
        return it->second->second;
      }
      metrics_.cache_misses->Increment();
    }
  }
  telemetry::Span parse_span(tracer_.load(std::memory_order_relaxed),
                             "query.parse", TraceContext(),
                             metrics_.parse_micros.get());
  Result<std::unique_ptr<sql::SelectStmt>> parsed =
      sql::ParseSelect(sql_text);
  if (parsed.ok()) {
    // The planning pass: constant folding and predicate simplification.
    GSN_RETURN_IF_ERROR(sql::Optimize(parsed->get()));
  }
  parse_span.Finish();
  if (!parsed.ok()) return parsed.status();
  std::shared_ptr<sql::SelectStmt> stmt = *std::move(parsed);
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  if (cache_enabled_) {
    auto it = cache_.find(sql_text);
    if (it != cache_.end()) {
      // Raced with another Prepare of the same text; keep the existing
      // entry (continuous registrations may already share it).
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    lru_.emplace_front(sql_text, stmt);
    cache_[sql_text] = lru_.begin();
    EvictCacheLocked();
  }
  return stmt;
}

Result<Relation> QueryManager::Execute(const std::string& sql_text,
                                       const std::string& source) {
  GSN_ASSIGN_OR_RETURN(std::shared_ptr<sql::SelectStmt> stmt,
                       Prepare(sql_text));
  sql::Executor exec(resolver_);
  // While the slow-query log is armed, run analyzed so a slow execution
  // leaves its actual per-operator plan behind, not just its SQL.
  sql::AnalyzeCollector analyze;
  const bool analyzing = slow_query_micros() > 0;
  if (analyzing) exec.set_analyze(&analyze);
  telemetry::Span exec_span(tracer_.load(std::memory_order_relaxed),
                            "query.execute", metrics_.exec_micros.get());
  exec_span.set_sensor(source);
  Result<Relation> result = exec.Execute(*stmt);
  if (!result.ok()) exec_span.set_error();
  const int64_t elapsed = exec_span.Finish();
  metrics_.executed->Increment();
  MaybeLogSlow(sql_text, source, elapsed, stmt.get(),
               analyzing ? &analyze : nullptr);
  return result;
}

Result<std::string> QueryManager::Explain(const std::string& sql_text) {
  GSN_ASSIGN_OR_RETURN(std::shared_ptr<sql::SelectStmt> stmt,
                       Prepare(sql_text));
  return sql::ExplainString(*stmt);
}

Result<std::string> QueryManager::ExplainAnalyze(const std::string& sql_text) {
  GSN_ASSIGN_OR_RETURN(std::shared_ptr<sql::SelectStmt> stmt,
                       Prepare(sql_text));
  sql::Executor exec(resolver_);
  sql::AnalyzeCollector analyze;
  exec.set_analyze(&analyze);
  telemetry::Span exec_span(tracer_.load(std::memory_order_relaxed),
                            "query.explain_analyze", TraceContext(),
                            metrics_.exec_micros.get());
  Result<Relation> result = exec.Execute(*stmt);
  const int64_t elapsed = exec_span.Finish();
  metrics_.executed->Increment();
  MaybeLogSlow(sql_text, "explain-analyze", elapsed, stmt.get(), &analyze);
  if (!result.ok()) return result.status();
  return sql::ExplainAnalyzeString(*stmt, analyze);
}

Result<int64_t> QueryManager::RegisterContinuous(const std::string& sql_text,
                                                 ContinuousCallback callback) {
  if (!callback) {
    return Status::InvalidArgument("continuous query requires a callback");
  }
  GSN_ASSIGN_OR_RETURN(std::shared_ptr<sql::SelectStmt> stmt,
                       Prepare(sql_text));
  ContinuousQuery query;
  query.sql_text = sql_text;
  query.stmt = stmt;
  CollectTables(*stmt, &query.tables);
  query.callback = std::move(callback);
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  const int64_t id = next_id_++;
  continuous_[id] = std::move(query);
  return id;
}

Status QueryManager::Unregister(int64_t query_id) {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  if (continuous_.erase(query_id) == 0) {
    return Status::NotFound("no continuous query " + std::to_string(query_id));
  }
  return Status::OK();
}

size_t QueryManager::NumContinuous() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return continuous_.size();
}

int QueryManager::OnNewElement(const std::string& sensor_name,
                               const TraceContext& trace) {
  const std::string key = StrToLower(sensor_name);
  struct Pending {
    std::shared_ptr<sql::SelectStmt> stmt;
    ContinuousCallback callback;
    std::string sql_text;
  };
  std::vector<Pending> pending;
  {
    std::lock_guard<telemetry::TimedMutex> lock(mu_);
    for (const auto& [id, query] : continuous_) {
      if (query.tables.count(key)) {
        pending.push_back({query.stmt, query.callback, query.sql_text});
      }
    }
  }
  const std::string source = "continuous:" + StrToLower(sensor_name);
  int ran = 0;
  for (const Pending& p : pending) {
    sql::Executor exec(resolver_);
    sql::AnalyzeCollector analyze;
    const bool analyzing = slow_query_micros() > 0;
    if (analyzing) exec.set_analyze(&analyze);
    telemetry::Span exec_span(tracer_.load(std::memory_order_relaxed),
                              "query.continuous", trace,
                              metrics_.exec_micros.get());
    exec_span.set_sensor(sensor_name);
    Result<Relation> result = exec.Execute(*p.stmt);
    if (!result.ok()) exec_span.set_error();
    const int64_t elapsed = exec_span.Finish();
    metrics_.continuous_runs->Increment();
    MaybeLogSlow(p.sql_text, source, elapsed, p.stmt.get(),
                 analyzing ? &analyze : nullptr);
    if (result.ok()) {
      p.callback(sensor_name, *result);
      ++ran;
    }
  }
  return ran;
}

int QueryManager::OnNewElementBatch(const std::string& sensor_name,
                                    const std::vector<StreamElement>& batch) {
  if (batch.empty()) return 0;
  TraceContext trace;
  for (const StreamElement& e : batch) {
    if (e.trace.valid()) {
      trace = e.trace;
      break;
    }
  }
  // The batch is fully inserted into the sensor's table by the time the
  // container invokes us, so one run per affected query sees the same
  // table state as the last of N per-element runs.
  return OnNewElement(sensor_name, trace);
}

void QueryManager::set_cache_enabled(bool enabled) {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  cache_enabled_ = enabled;
  if (!enabled) {
    cache_.clear();
    lru_.clear();
  }
}

bool QueryManager::cache_enabled() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return cache_enabled_;
}

void QueryManager::set_cache_capacity(size_t capacity) {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  cache_capacity_ = capacity;
  EvictCacheLocked();
}

size_t QueryManager::cache_capacity() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return cache_capacity_;
}

size_t QueryManager::cache_size() const {
  std::lock_guard<telemetry::TimedMutex> lock(mu_);
  return cache_.size();
}

QueryManager::Stats QueryManager::stats() const {
  Stats stats;
  stats.executed = metrics_.executed->Value();
  stats.cache_hits = metrics_.cache_hits->Value();
  stats.cache_misses = metrics_.cache_misses->Value();
  stats.continuous_runs = metrics_.continuous_runs->Value();
  stats.slow_queries = metrics_.slow_queries->Value();
  stats.parse_micros = metrics_.parse_micros->TakeSnapshot().sum;
  stats.exec_micros = metrics_.exec_micros->TakeSnapshot().sum;
  return stats;
}

}  // namespace gsn::container

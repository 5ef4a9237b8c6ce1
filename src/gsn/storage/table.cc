#include "gsn/storage/table.h"

#include <algorithm>

#include "gsn/storage/columnar/catalog.h"
#include "gsn/util/logging.h"

namespace gsn::storage {

Table::Table(std::string name, Schema element_schema, WindowSpec retention)
    : name_(std::move(name)),
      element_schema_(std::move(element_schema)),
      row_schema_(element_schema_.WithTimedField()),
      retention_(retention) {}

Status Table::InsertLocked(const StreamElement& element) {
  if (element.values.size() != element_schema_.size()) {
    return Status::InvalidArgument(
        "element arity " + std::to_string(element.values.size()) +
        " != schema arity " + std::to_string(element_schema_.size()) +
        " for table " + name_);
  }
  Entry entry;
  entry.timed = element.timed;
  entry.bytes = 8 + element.PayloadBytes();
  entry.row = Relation::RowFromElement(element);
  if (!rows_.empty() && entry.timed < rows_.back().timed) sorted_ = false;
  approx_bytes_ += entry.bytes;
  rows_.push_back(std::move(entry));
  EvictLocked(element.timed);
  if (rows_.empty()) sorted_ = true;
  return Status::OK();
}

Status Table::Insert(const StreamElement& element) {
  std::lock_guard<std::mutex> lock(mu_);
  return InsertLocked(element);
}

Status Table::InsertBatch(const std::vector<StreamElement>& elements) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const StreamElement& element : elements) {
    GSN_RETURN_IF_ERROR(InsertLocked(element));
  }
  return Status::OK();
}

void Table::EvictLocked(Timestamp now) {
  const auto evict_front = [this] {
    if (capture_evicted_) {
      pending_evicted_.push_back(std::move(rows_.front().row));
      while (pending_evicted_.size() > max_pending_rows_) {
        pending_evicted_.pop_front();
        ++pending_dropped_;
      }
    }
    approx_bytes_ -= std::min(approx_bytes_, rows_.front().bytes);
    rows_.pop_front();
  };
  if (retention_.kind == WindowSpec::Kind::kCount) {
    while (rows_.size() > static_cast<size_t>(retention_.count)) {
      evict_front();
    }
  } else {
    const Timestamp cutoff = now - retention_.duration_micros;
    while (!rows_.empty() && rows_.front().timed <= cutoff) {
      evict_front();
    }
  }
}

Relation Table::Scan() const {
  std::lock_guard<std::mutex> lock(mu_);
  Relation::RowList rows;
  rows.reserve(rows_.size());
  for (const Entry& e : rows_) rows.push_back(e.row);
  return Relation(row_schema_, std::move(rows));
}

Relation Table::Scan(Timestamp now) const {
  std::lock_guard<std::mutex> lock(mu_);
  Relation::RowList rows;
  if (retention_.kind == WindowSpec::Kind::kCount) {
    rows.reserve(rows_.size());
    for (const Entry& e : rows_) rows.push_back(e.row);
    return Relation(row_schema_, std::move(rows));
  }
  const Timestamp cutoff = now - retention_.duration_micros;
  if (sorted_) {
    auto first = std::partition_point(
        rows_.begin(), rows_.end(),
        [cutoff](const Entry& e) { return e.timed <= cutoff; });
    rows.reserve(static_cast<size_t>(rows_.end() - first));
    for (auto it = first; it != rows_.end(); ++it) rows.push_back(it->row);
  } else {
    for (const Entry& e : rows_) {
      if (e.timed > cutoff) rows.push_back(e.row);
    }
  }
  return Relation(row_schema_, std::move(rows));
}

std::vector<StreamElement> Table::SnapshotElements() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StreamElement> out;
  out.reserve(rows_.size());
  for (const Entry& e : rows_) {
    StreamElement element;
    element.timed = e.timed;
    // Row layout is `timed` first, then the element values.
    element.values.assign(e.row->begin() + 1, e.row->end());
    out.push_back(std::move(element));
  }
  return out;
}

void Table::EnableHistoryCapture(size_t max_pending_rows) {
  std::lock_guard<std::mutex> lock(mu_);
  capture_evicted_ = true;
  max_pending_rows_ = max_pending_rows == 0 ? 1 : max_pending_rows;
}

bool Table::history_capture_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capture_evicted_;
}

Relation::RowList Table::TakeEvicted() {
  std::lock_guard<std::mutex> lock(mu_);
  Relation::RowList out(pending_evicted_.begin(), pending_evicted_.end());
  pending_evicted_.clear();
  return out;
}

void Table::RestoreEvicted(Relation::RowList rows) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_evicted_.insert(pending_evicted_.begin(), rows.begin(), rows.end());
  while (pending_evicted_.size() > max_pending_rows_ &&
         max_pending_rows_ > 0) {
    pending_evicted_.pop_front();
    ++pending_dropped_;
  }
}

Relation::RowList Table::PendingEvictedRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Relation::RowList(pending_evicted_.begin(), pending_evicted_.end());
}

void Table::DropPendingPrefix(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  n = std::min(n, pending_evicted_.size());
  pending_evicted_.erase(pending_evicted_.begin(),
                         pending_evicted_.begin() + static_cast<long>(n));
}

uint64_t Table::pending_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_dropped_;
}

Relation Table::ScanUnified(const columnar::SegmentCatalog* catalog,
                            const sql::ScanPredicate& predicate,
                            sql::ScanStats* stats) const {
  Relation::RowList rows;
  if (catalog != nullptr) {
    // Cold tier first: segments are strictly older than anything still
    // pending or live, so appending tiers in order keeps the relation
    // oldest-first end to end.
    Status scanned =
        catalog->Scan(name_, row_schema_, predicate, &rows, stats);
    if (!scanned.ok()) {
      GSN_LOG(kWarn, "storage") << "segment scan failed for " << name_ << ": "
                                << scanned.ToString();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (stats != nullptr) {
    stats->pending_rows += static_cast<int64_t>(pending_evicted_.size());
    stats->memory_rows += static_cast<int64_t>(rows_.size());
  }
  rows.reserve(rows.size() + pending_evicted_.size() + rows_.size());
  rows.insert(rows.end(), pending_evicted_.begin(), pending_evicted_.end());
  for (const Entry& e : rows_) rows.push_back(e.row);
  return Relation(row_schema_, std::move(rows));
}

size_t Table::NumRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_.size();
}

size_t Table::ApproximateBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return approx_bytes_;
}

void Table::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rows_.clear();
  pending_evicted_.clear();
  approx_bytes_ = 0;
  sorted_ = true;
}

Result<Table*> TableManager::CreateTable(const std::string& name,
                                         Schema element_schema,
                                         WindowSpec retention) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = StrToLower(name);
  if (tables_.count(key)) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  auto table =
      std::make_unique<Table>(name, std::move(element_schema), retention);
  Table* ptr = table.get();
  tables_[key] = std::move(table);
  return ptr;
}

Status TableManager::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.erase(StrToLower(name)) == 0) {
    return Status::NotFound("no such table: " + name);
  }
  return Status::OK();
}

Result<Table*> TableManager::GetTableHandle(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(StrToLower(name));
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return it->second.get();
}

std::vector<std::string> TableManager::ListTables() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [key, table] : tables_) out.push_back(table->name());
  return out;
}

void TableManager::AttachHistory(const columnar::SegmentCatalog* catalog) {
  std::lock_guard<std::mutex> lock(mu_);
  history_ = catalog;
}

const columnar::SegmentCatalog* TableManager::history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

Result<Relation> TableManager::GetTable(const std::string& name) const {
  return GetTableFiltered(name, sql::ScanPredicate{}, nullptr);
}

Result<Relation> TableManager::GetTableFiltered(
    const std::string& name, const sql::ScanPredicate& predicate,
    sql::ScanStats* stats) const {
  Table* table = nullptr;
  const columnar::SegmentCatalog* catalog = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(StrToLower(name));
    if (it == tables_.end()) return Status::NotFound("no such table: " + name);
    table = it->second.get();
    catalog = history_;
  }
  // Without an attached history tier this degenerates to the live
  // window scan tables always served.
  if (catalog == nullptr && stats == nullptr) return table->Scan();
  return table->ScanUnified(catalog, predicate, stats);
}

}  // namespace gsn::storage

#include "catalog/mvcc.h"

#include <algorithm>
#include <map>

namespace xnf {

namespace {

// Applies one undo entry to an overlay map: the pre-image the rest of the
// world sees while (or because) the writing transaction is invisible.
void ApplyPreImage(const UndoLog::Entry& e,
                   std::map<Rid, std::optional<Row>>* m) {
  if (e.kind == UndoLog::Entry::Kind::kInsert) {
    (*m)[e.rid] = std::nullopt;  // did not exist before the write
  } else {
    (*m)[e.rid] = e.old_row;
  }
}

}  // namespace

TransactionManager::Transaction* TransactionManager::Begin(bool ephemeral) {
  auto txn = std::make_unique<Transaction>();
  txn->id = next_id_++;
  txn->snapshot = epoch_;
  txn->ephemeral = ephemeral;
  Transaction* raw = txn.get();
  active_.push_back(std::move(txn));
  ++stats_.txns_started;
  return raw;
}

void TransactionManager::Commit(Transaction* txn, uint64_t epoch) {
  // Harvest pre-images only if some other transaction still holds a
  // snapshot older than this commit — otherwise the delta would be
  // garbage-collected immediately, so never create it (the single-session
  // fast path: commit is O(1) beyond the write-set walk).
  const bool others = active_.size() > 1;
  if (others && txn->undo != nullptr && !txn->undo->entries().empty()) {
    // First entry per rid wins: a transaction that writes a rid twice
    // recorded the pre-world image first.
    std::unordered_map<std::string, std::unordered_set<Rid, RidHash>> seen;
    for (const UndoLog::Entry& e : txn->undo->entries()) {
      if (!seen[e.table].insert(e.rid).second) continue;
      std::vector<Delta>& deltas = committed_deltas_[e.table];
      deltas.push_back(Delta{epoch, e.kind, e.rid, e.old_row});
      ++stats_.versions_harvested;
    }
  }
  if (others) {
    for (const auto& [table, rids] : txn->writes) {
      auto& writes = committed_writes_[table];
      for (Rid rid : rids) writes[rid] = epoch;
    }
  }
  epoch_ = epoch;
  ++stats_.txns_committed;
  if (current_ == txn) current_ = nullptr;
  active_.erase(std::find_if(active_.begin(), active_.end(),
                             [&](const auto& t) { return t.get() == txn; }));
  Gc();
}

void TransactionManager::Rollback(Transaction* txn) {
  ++stats_.txns_rolled_back;
  if (current_ == txn) current_ = nullptr;
  active_.erase(std::find_if(active_.begin(), active_.end(),
                             [&](const auto& t) { return t.get() == txn; }));
  Gc();
}

void TransactionManager::OnStatementAbort(Transaction* txn) {
  txn->writes.clear();
  txn->touched.clear();
  if (txn->undo == nullptr) return;
  for (const UndoLog::Entry& e : txn->undo->entries()) {
    txn->touched.insert(e.table);
    if (e.kind != UndoLog::Entry::Kind::kInsert) {
      txn->writes[e.table].insert(e.rid);
    }
  }
}

Status TransactionManager::CheckWrite(const std::string& table, Rid rid) {
  for (const auto& t : active_) {
    if (t.get() == current_) continue;
    auto it = t->writes.find(table);
    if (it != t->writes.end() && it->second.count(rid) != 0) {
      ++stats_.conflicts;
      return Status::Serialization(
          "write-write conflict on '" + table +
          "': row is written by a concurrent transaction");
    }
  }
  if (current_ != nullptr) {
    auto tw = committed_writes_.find(table);
    if (tw != committed_writes_.end()) {
      auto it = tw->second.find(rid);
      if (it != tw->second.end() && it->second > current_->snapshot) {
        ++stats_.conflicts;
        return Status::Serialization(
            "write-write conflict on '" + table +
            "': row was changed by a transaction committed after this "
            "snapshot");
      }
    }
  }
  return Status::Ok();
}

void TransactionManager::OnWrite(UndoLog::Entry::Kind kind,
                                 const std::string& table, Rid rid) {
  if (current_ == nullptr) return;
  current_->touched.insert(table);
  if (kind != UndoLog::Entry::Kind::kInsert) {
    current_->writes[table].insert(rid);
  }
}

bool TransactionManager::PhysicalReadsSafe(const std::string& table) const {
  for (const auto& t : active_) {
    if (t.get() == current_) continue;
    if (t->touched.count(table) != 0) return false;
  }
  auto it = committed_deltas_.find(table);
  if (it != committed_deltas_.end() && !it->second.empty() &&
      it->second.back().epoch > view_snapshot()) {
    return false;
  }
  return true;
}

TransactionManager::Overlay TransactionManager::BuildOverlay(
    const std::string& table) const {
  Overlay overlay;
  if (PhysicalReadsSafe(table)) return overlay;
  std::map<Rid, std::optional<Row>> m;
  // In-flight others first: their pre-images stand in for the physical
  // rows. First entry per (txn, rid) wins; rids never collide across
  // transactions (first-updater-wins).
  for (const auto& t : active_) {
    if (t.get() == current_ || t->undo == nullptr) continue;
    std::unordered_set<Rid, RidHash> seen;
    for (const UndoLog::Entry& e : t->undo->entries()) {
      if (e.table != table) continue;
      if (!seen.insert(e.rid).second) continue;
      ApplyPreImage(e, &m);
    }
  }
  // Committed deltas newer than the snapshot, newest to oldest with
  // overwrite: the oldest relevant pre-image is the visible one.
  const uint64_t snapshot = view_snapshot();
  auto it = committed_deltas_.find(table);
  if (it != committed_deltas_.end()) {
    const std::vector<Delta>& deltas = it->second;
    for (size_t i = deltas.size(); i-- > 0;) {
      if (deltas[i].epoch <= snapshot) break;
      if (deltas[i].kind == UndoLog::Entry::Kind::kInsert) {
        m[deltas[i].rid] = std::nullopt;
      } else {
        m[deltas[i].rid] = deltas[i].old_row;
      }
    }
  }
  overlay.entries.reserve(m.size());
  for (auto& [rid, img] : m) {
    overlay.entries.emplace_back(rid, std::move(img));
  }
  return overlay;
}

std::optional<std::optional<Row>> TransactionManager::LookupVersion(
    const std::string& table, Rid rid) const {
  // Point-read equivalent of BuildOverlay for one rid; same precedence,
  // resolved cheapest-first: the oldest relevant committed delta wins, so
  // scan those ascending and take the first newer than the snapshot.
  const uint64_t snapshot = view_snapshot();
  auto it = committed_deltas_.find(table);
  if (it != committed_deltas_.end()) {
    for (const Delta& d : it->second) {
      if (d.epoch <= snapshot || !(d.rid == rid)) continue;
      if (d.kind == UndoLog::Entry::Kind::kInsert) {
        return std::optional<std::optional<Row>>(std::nullopt);
      }
      return std::optional<std::optional<Row>>(d.old_row);
    }
  }
  for (const auto& t : active_) {
    if (t.get() == current_ || t->undo == nullptr) continue;
    if (t->touched.count(table) == 0) continue;
    for (const UndoLog::Entry& e : t->undo->entries()) {
      if (e.table != table || !(e.rid == rid)) continue;
      if (e.kind == UndoLog::Entry::Kind::kInsert) {
        return std::optional<std::optional<Row>>(std::nullopt);
      }
      return std::optional<std::optional<Row>>(e.old_row);
    }
  }
  return std::nullopt;
}

namespace {

// Shared merge core: physical rows from `scan` interleaved with overlay
// entries in [lo, hi) by rid order.
Status MergeScan(
    const std::function<Status(const std::function<bool(Rid, const Row&)>&)>&
        scan,
    const std::vector<std::pair<Rid, std::optional<Row>>>& entries,
    size_t lo, size_t hi, const std::function<bool(Rid, const Row&)>& fn) {
  size_t idx = lo;
  bool stopped = false;
  Status st = scan([&](Rid rid, const Row& row) {
    // Inject overlay rows the physical scan skipped (visible at the
    // snapshot but deleted / absent now).
    while (idx < hi && entries[idx].first < rid) {
      if (entries[idx].second.has_value()) {
        if (!fn(entries[idx].first, *entries[idx].second)) {
          stopped = true;
          ++idx;
          return false;
        }
      }
      ++idx;
    }
    if (idx < hi && entries[idx].first == rid) {
      const std::optional<Row>& img = entries[idx].second;
      ++idx;
      if (!img.has_value()) return true;  // not yet visible: skip
      if (!fn(rid, *img)) {
        stopped = true;
        return false;
      }
      return true;
    }
    if (!fn(rid, row)) {
      stopped = true;
      return false;
    }
    return true;
  });
  XNF_RETURN_IF_ERROR(st);
  if (stopped) return Status::Ok();
  for (; idx < hi; ++idx) {
    if (entries[idx].second.has_value()) {
      if (!fn(entries[idx].first, *entries[idx].second)) break;
    }
  }
  return Status::Ok();
}

}  // namespace

Status TransactionManager::VisibleScan(
    const TableStorage& storage, const Overlay& overlay,
    const std::function<bool(Rid, const Row&)>& fn) {
  if (overlay.empty()) return storage.Scan(fn);
  return MergeScan(
      [&](const std::function<bool(Rid, const Row&)>& cb) {
        return storage.Scan(cb);
      },
      overlay.entries, 0, overlay.entries.size(), fn);
}

Status TransactionManager::VisibleScanRange(
    const TableStorage& storage, const Overlay& overlay, uint32_t page_begin,
    uint32_t page_end, const std::function<bool(Rid, const Row&)>& fn) {
  if (overlay.empty()) return storage.ScanRange(page_begin, page_end, fn);
  const auto& entries = overlay.entries;
  auto lo = std::lower_bound(
      entries.begin(), entries.end(), Rid{page_begin, 0},
      [](const auto& e, const Rid& r) { return e.first < r; });
  auto hi = std::lower_bound(
      entries.begin(), entries.end(), Rid{page_end, 0},
      [](const auto& e, const Rid& r) { return e.first < r; });
  return MergeScan(
      [&](const std::function<bool(Rid, const Row&)>& cb) {
        return storage.ScanRange(page_begin, page_end, cb);
      },
      entries, static_cast<size_t>(lo - entries.begin()),
      static_cast<size_t>(hi - entries.begin()), fn);
}

Status TransactionManager::OnDropTable(const std::string& table) {
  for (const auto& t : active_) {
    if (t.get() == current_) continue;
    if (t->touched.count(table) != 0) {
      return Status::Serialization(
          "cannot drop '" + table +
          "': an open transaction has uncommitted changes on it");
    }
  }
  size_t dropped = 0;
  auto it = committed_deltas_.find(table);
  if (it != committed_deltas_.end()) {
    dropped += it->second.size();
    committed_deltas_.erase(it);
  }
  committed_writes_.erase(table);
  stats_.versions_gced += dropped;
  return Status::Ok();
}

bool TransactionManager::OtherTransactionTouched(
    const std::string& table) const {
  for (const auto& t : active_) {
    if (t.get() == current_) continue;
    if (t->touched.count(table) != 0) return true;
  }
  return false;
}

void TransactionManager::Gc() {
  const uint64_t horizon = oldest_snapshot();
  for (auto it = committed_deltas_.begin(); it != committed_deltas_.end();) {
    std::vector<Delta>& deltas = it->second;
    // Ascending epochs: drop the prefix no live snapshot predates.
    size_t keep = 0;
    while (keep < deltas.size() && deltas[keep].epoch <= horizon) ++keep;
    if (keep > 0) {
      stats_.versions_gced += keep;
      deltas.erase(deltas.begin(), deltas.begin() + keep);
    }
    it = deltas.empty() ? committed_deltas_.erase(it) : ++it;
  }
  for (auto it = committed_writes_.begin(); it != committed_writes_.end();) {
    auto& writes = it->second;
    for (auto w = writes.begin(); w != writes.end();) {
      w = w->second <= horizon ? writes.erase(w) : ++w;
    }
    it = writes.empty() ? committed_writes_.erase(it) : ++it;
  }
}

uint64_t TransactionManager::oldest_snapshot() const {
  uint64_t oldest = epoch_;
  for (const auto& t : active_) {
    oldest = std::min(oldest, t->snapshot);
  }
  return oldest;
}

size_t TransactionManager::versions_retained() const {
  size_t n = 0;
  for (const auto& [_, deltas] : committed_deltas_) n += deltas.size();
  return n;
}

Status ScanVisible(const TransactionManager& mgr, const TableInfo& table,
                   const std::function<bool(Rid, const Row&)>& fn) {
  if (mgr.PhysicalReadsSafe(table.name)) return table.storage->Scan(fn);
  TransactionManager::Overlay overlay = mgr.BuildOverlay(table.name);
  return TransactionManager::VisibleScan(*table.storage, overlay, fn);
}

Result<Row> ReadVisible(const TransactionManager& mgr, const TableInfo& table,
                        Rid rid) {
  if (mgr.PhysicalReadsSafe(table.name)) return table.storage->Read(rid);
  std::optional<std::optional<Row>> v = mgr.LookupVersion(table.name, rid);
  if (v.has_value()) {
    if (!v->has_value()) {
      return Status::NotFound("row is not visible at this snapshot");
    }
    return **v;
  }
  return table.storage->Read(rid);
}

}  // namespace xnf

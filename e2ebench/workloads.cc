#include "workloads.h"

#include <deque>
#include <initializer_list>
#include <set>
#include <utility>

#include "generator.h"
#include "xnf/manipulate.h"

namespace xnfbench {

using xnf::Database;
using xnf::ExecResult;
using xnf::Result;
using xnf::Row;
using xnf::Session;
using xnf::Status;
using xnf::Value;
using xnf::co::CoCache;

namespace {

constexpr int kInsertBatch = 1000;

std::string Str(int64_t v) { return std::to_string(v); }

int64_t IntOrZero(const Value& v) { return v.is_null() ? 0 : v.AsInt(); }

// Compares one expected figure and records a mismatch.
void Expect(Workload* w, const std::string& what, int64_t got, int64_t want) {
  if (got != want) {
    w->Mismatch(what + ": got " + Str(got) + ", expected " + Str(want));
  }
}

// Runs a single-row aggregate query and compares each column.
Status ExpectRow(Workload* w, Database* db, const std::string& sql,
                 const std::vector<int64_t>& want) {
  XNF_ASSIGN_OR_RETURN(xnf::ResultSet rs, db->Query(sql));
  if (rs.rows.size() != 1 || rs.rows[0].size() != want.size()) {
    w->Mismatch(sql + ": unexpected result shape");
    return Status::Ok();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    Expect(w, sql + " [col " + Str(static_cast<int64_t>(i)) + "]",
           IntOrZero(rs.rows[0][i]), want[i]);
  }
  return Status::Ok();
}

// Concatenates statement lists into one load script.
std::vector<std::string> Script(
    std::initializer_list<std::vector<std::string>> parts) {
  std::vector<std::string> out;
  for (const std::vector<std::string>& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

// The CAD shape of co_checkout and co_edit; `small` is the self-test size.
CadShape CadShapeFor(int configs, bool small) {
  CadShape shape;
  shape.configs = configs;
  if (small) {
    shape.configs = 4;
    shape.asms_per_config = 24;
    shape.back_edges = 4;
    shape.docs_per_config = 20;
  }
  return shape;
}

}  // namespace

// --- Workload ---------------------------------------------------------------

Workload::~Workload() = default;

Database::Options Workload::DbOptions() const {
  Database::Options options;
  options.threads = dop();
  // Every commit writes its WAL marker, but without fsync: on a shared
  // virtual disk fsync latency moved co_edit's throughput by 30% and its
  // p99 by 4x between identical runs, and nothing the benchmark checks
  // depends on it (a crash here is destroying the Database, which leaves
  // the operating system's cache intact).
  options.wal_fsync = false;
  options.checkpoint_on_close = false;
  return options;
}

Status Workload::Setup(const std::string& dir) {
  Database::Options options = DbOptions();
  options.data_dir = dir;
  db_ = std::make_unique<Database>(options);
  XNF_RETURN_IF_ERROR(db_->open_error());
  for (const std::string& sql : LoadStatements()) {
    XNF_RETURN_IF_ERROR(db_->Execute(sql).status());
  }
  XNF_RETURN_IF_ERROR(db_->Checkpoint());
  XNF_RETURN_IF_ERROR(AfterOpen());
  for (int i = 0; i < warmup_ops(); ++i) {
    const int client = i % clients();
    XNF_RETURN_IF_ERROR(Prepare(client));
    XNF_RETURN_IF_ERROR(Op(client));
  }
  return Status::Ok();
}

Status Workload::FurtherOp(int client) {
  XNF_RETURN_IF_ERROR(Prepare(client));
  return Op(client);
}

void Workload::Close() {
  BeforeClose();
  db_.reset();
}

Status Workload::Reopen(const std::string& dir) {
  Database::Options options = DbOptions();
  options.data_dir = dir;
  db_ = std::make_unique<Database>(options);
  XNF_RETURN_IF_ERROR(db_->open_error());
  return AfterOpen();
}

void Workload::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  db_->set_trace_sink(tracer);
}

Result<int64_t> Workload::VersionsRetained() {
  XNF_ASSIGN_OR_RETURN(
      xnf::ResultSet rs,
      db_->Query("SELECT versions_retained FROM sqlxnf_transactions"));
  if (rs.rows.size() != 1) {
    return Status::Internal("sqlxnf_transactions: expected one row");
  }
  return IntOrZero(rs.rows[0][0]);
}

std::string Workload::first_mismatch() const {
  std::lock_guard<std::mutex> lock(mismatch_mu_);
  return first_mismatch_;
}

void Workload::Mismatch(const std::string& what) {
  if (mismatches_.fetch_add(1) == 0) {
    std::lock_guard<std::mutex> lock(mismatch_mu_);
    first_mismatch_ = phase_.empty() ? what : phase_ + ": " + what;
  }
}

Result<ExecResult> Workload::Exec(Session* session, const std::string& sql) {
  Span span(tracer_, "call");
  return session != nullptr ? session->Execute(sql) : db_->Execute(sql);
}

Result<std::unique_ptr<CoCache>> Workload::Checkout(
    const std::string& xnf_query) {
  if (tracer_ == nullptr) return db_->OpenCo(xnf_query);
  Result<ExecResult> result = [&] {
    Span span(tracer_, "evaluate");
    return Exec(nullptr, xnf_query);
  }();
  XNF_RETURN_IF_ERROR(result.status());
  Span span(tracer_, "build");
  return CoCache::Build(std::move(result->co));
}

// --- co_checkout ------------------------------------------------------------

namespace {

// Walks a checked-out CAD working set with cursors, dependent cursors and
// one path expression, and compares everything with `want`.
Status WalkCadCo(Workload* w, CoCache* cache, const WorkingSet& want,
                 int64_t cfg) {
  const std::string ctx = "cfg " + Str(cfg) + " ";
  const int r = cache->NodeIndex("r"), a = cache->NodeIndex("a"),
            d = cache->NodeIndex("d"), sub = cache->RelIndex("sub");
  if (r < 0 || a < 0 || d < 0 || sub < 0) {
    w->Mismatch(ctx + "CO lacks a node or relationship");
    return Status::Ok();
  }
  int64_t steps = 0;
  int64_t roots = 0, top = 0, asms = 0, weight = 0, version = 0, subs = 0,
          qty = 0, doc_links = 0, docs = 0, pages = 0, path_docs = 0;
  {
    Span span(w->tracer(), "walk");
    xnf::co::Cursor rc(cache, r);
    std::unique_ptr<xnf::co::DependentCursor> top_dc;
    while (rc.Next()) {
      ++roots;
      if (top_dc == nullptr) {
        XNF_ASSIGN_OR_RETURN(top_dc,
                             xnf::co::DependentCursor::Open(&rc, {"top"}));
      } else {
        XNF_RETURN_IF_ERROR(top_dc->Rebind());
      }
      while (top_dc->Next()) ++top;
    }
    xnf::co::Cursor ac(cache, a);
    std::unique_ptr<xnf::co::DependentCursor> docs_dc;
    while (ac.Next()) {
      ++asms;
      weight += ac.values()[5].AsInt();
      version += ac.values()[4].AsInt();
      for (const CoCache::Connection* c : cache->Children(sub, *ac.tuple())) {
        ++subs;
        qty += c->attrs[0].AsInt();
      }
      if (docs_dc == nullptr) {
        XNF_ASSIGN_OR_RETURN(docs_dc,
                             xnf::co::DependentCursor::Open(&ac, {"docs"}));
      } else {
        XNF_RETURN_IF_ERROR(docs_dc->Rebind());
      }
      while (docs_dc->Next()) ++doc_links;
    }
    xnf::co::Cursor dc(cache, d);
    while (dc.Next()) {
      ++docs;
      pages += dc.values()[3].AsInt();
    }
    steps = roots + top + asms + subs + doc_links + docs;
  }
  {
    Span span(w->tracer(), "path");
    xnf::co::Cursor rc(cache, r);
    std::unique_ptr<xnf::co::DependentCursor> path;
    while (rc.Next()) {
      if (path == nullptr) {
        XNF_ASSIGN_OR_RETURN(path, xnf::co::DependentCursor::OpenPath(
                                       &rc, "top->a->docs->d"));
      } else {
        XNF_RETURN_IF_ERROR(path->Rebind());
      }
      while (path->Next()) ++path_docs;
    }
  }
  w->counts.nav_steps += steps;
  w->counts.co_tuples += roots + asms + docs;
  w->counts.rows_out += roots + asms + docs;
  Expect(w, ctx + "roots", roots, want.roots);
  Expect(w, ctx + "top connections", top, want.top);
  Expect(w, ctx + "assemblies", asms, want.asms);
  Expect(w, ctx + "weight sum", weight, want.weight_sum);
  Expect(w, ctx + "version sum", version, want.version_sum);
  Expect(w, ctx + "sub connections", subs, want.sub);
  Expect(w, ctx + "qty sum", qty, want.qty_sum);
  Expect(w, ctx + "doc connections", doc_links, want.doc_links);
  Expect(w, ctx + "documents", docs, want.docs);
  Expect(w, ctx + "pages sum", pages, want.pages_sum);
  Expect(w, ctx + "path top->a->docs->d", path_docs, want.path_docs);
  return Status::Ok();
}

class CoCheckout : public Workload {
 public:
  CoCheckout(uint64_t seed, bool small)
      : data_(GenerateCad(CadShapeFor(256, small), seed)),
        rng_(seed ^ 0xC0C0) {}

  int clients() const override { return 1; }
  int dop() const override { return 2; }
  double tail_percentile() const override { return 75.0; }
  int further_ops() const override { return 20; }
  int64_t memory_ops() const override { return 15000; }
  int warmup_ops() const override { return 50; }
  int64_t rows() const override { return data_.rows(); }

  Status Op(int) override {
    const int64_t cfg = rng_.Below(data_.shape.configs);
    XNF_ASSIGN_OR_RETURN(std::unique_ptr<CoCache> cache,
                         Checkout(CadCoQuery(cfg)));
    XNF_RETURN_IF_ERROR(WalkCadCo(this, cache.get(), data_.expected[cfg], cfg));
    Span span(tracer_, "release");
    cache.reset();
    return Status::Ok();
  }

  Status Verify() override {
    int64_t weight = 0, pages = 0, qty = 0;
    for (const Asm& r : data_.asms) weight += r.weight;
    for (const Doc& r : data_.docs) pages += r.pages;
    for (const Use& r : data_.uses) qty += r.qty;
    XNF_RETURN_IF_ERROR(ExpectRow(
        this, db_.get(), "SELECT COUNT(*), SUM(weight) FROM asm",
        {static_cast<int64_t>(data_.asms.size()), weight}));
    XNF_RETURN_IF_ERROR(ExpectRow(
        this, db_.get(), "SELECT COUNT(*), SUM(pages) FROM doc",
        {static_cast<int64_t>(data_.docs.size()), pages}));
    XNF_RETURN_IF_ERROR(ExpectRow(
        this, db_.get(), "SELECT COUNT(*), SUM(qty) FROM uses",
        {static_cast<int64_t>(data_.uses.size()), qty}));
    return Op(0);
  }

  void CorruptOracle() override {
    for (WorkingSet& ws : data_.expected) ws.qty_sum += 1;
  }

 private:
  std::vector<std::string> LoadStatements() const override {
    return Script({CadSchema(), CadInserts(data_, kInsertBatch), CadIndexes()});
  }

  CadData data_;
  Rng rng_;
};

// --- co_edit ----------------------------------------------------------------

class CoEdit : public Workload {
 public:
  CoEdit(uint64_t seed, bool small)
      : data_(GenerateCad(CadShapeFor(64, small), seed)),
        rng_(seed ^ 0xED17) {
    for (const Asm& r : data_.asms) version_.push_back(r.version);
    for (const Doc& r : data_.docs) doc_aid_.push_back(r.aid);
    for (const Use& u : data_.uses) edges_.insert({u.parent, u.child});
    next_aid_ = static_cast<int64_t>(data_.asms.size()) + 1;
  }

  int clients() const override { return 1; }
  int dop() const override { return 1; }
  double tail_percentile() const override { return 95.0; }
  int further_ops() const override { return 200; }
  int64_t memory_ops() const override { return 40000; }
  int warmup_ops() const override { return 30; }
  int64_t rows() const override { return data_.rows(); }

  Status Prepare(int) override {
    if (cache_ != nullptr && txns_since_checkout_ < kTxnsPerCheckout) {
      return Status::Ok();
    }
    manip_.reset();
    cache_.reset();
    cfg_ = rng_.Below(data_.shape.configs);
    XNF_ASSIGN_OR_RETURN(cache_, Checkout(CadCoQuery(cfg_)));
    manip_ = std::make_unique<xnf::co::Manipulator>(cache_.get(),
                                                    db_->catalog());
    a_ = cache_->NodeIndex("a");
    d_ = cache_->NodeIndex("d");
    sub_ = cache_->RelIndex("sub");
    docs_ = cache_->RelIndex("docs");
    if (a_ < 0 || d_ < 0 || sub_ < 0 || docs_ < 0 ||
        cache_->node(a_).tuples.size() < 2 || cache_->node(d_).tuples.empty()) {
      return Status::Internal("co_edit: working set lacks nodes to edit");
    }
    txns_since_checkout_ = 0;
    return Status::Ok();
  }

  // One edit transaction: a column update, a foreign-key reassign, a
  // link-table connect and disconnect, and an insert plus a delete.
  Status Op(int) override {
    ++txns_since_checkout_;
    XNF_RETURN_IF_ERROR(Exec(nullptr, "BEGIN").status());
    Status s = Edit();
    if (s.ok()) {
      Span span(tracer_, "commit");
      s = Exec(nullptr, "COMMIT").status();
    } else {
      (void)Exec(nullptr, "ROLLBACK");
    }
    if (s.ok()) {
      for (const auto& [aid, v] : pending_version_) version_[aid - 1] = v;
      for (const auto& [did, aid] : pending_doc_) doc_aid_[did - 1] = aid;
      counts.rows_written += 6;
    } else {
      // The cache may disagree with the base tables now: check out afresh.
      manip_.reset();
      cache_.reset();
    }
    pending_version_.clear();
    pending_doc_.clear();
    return s;
  }

  // The same edit mix as SQL statements in one transaction. Edits made
  // through co::Manipulator inside BEGIN ... COMMIT are acknowledged but
  // lost by crash recovery when no checkpoint followed them (README,
  // "Program faults"), so the writes the timed reopen replays, and that the
  // check after it covers, come from the statement path.
  Status FurtherOp(int) override {
    const int64_t cfg = rng_.Below(data_.shape.configs);
    const std::vector<int64_t>& reach = data_.expected[cfg].reachable;
    auto pick = [&] {
      return reach[rng_.Below(static_cast<int64_t>(reach.size()))];
    };
    const int64_t aid = pick();
    const int64_t did =
        cfg * data_.shape.docs_per_config +
        rng_.Below(data_.shape.docs_per_config) + 1;
    int64_t parent = pick();
    while (parent == doc_aid_[did - 1]) parent = pick();
    int64_t p = pick(), c = pick();
    while (p == c || edges_.count({p, c}) > 0) {
      p = pick();
      c = pick();
    }
    const int64_t fresh = next_aid_++;
    const std::vector<std::string> txn = {
        "BEGIN",
        "UPDATE asm SET version = version + 1 WHERE aid = " + Str(aid),
        "UPDATE doc SET aid = " + Str(parent) + " WHERE did = " + Str(did),
        "INSERT INTO uses VALUES (" + Str(p) + ", " + Str(c) + ", 5)",
        "DELETE FROM uses WHERE parent = " + Str(p) + " AND child = " + Str(c),
        "INSERT INTO asm VALUES (" + Str(fresh) + ", " + Str(cfg) + ", 0, 'n" +
            Str(fresh) + "', 1, 7)",
        "DELETE FROM asm WHERE aid = " + Str(fresh),
        "COMMIT"};
    for (const std::string& sql : txn) {
      Status s = Exec(nullptr, sql).status();
      if (!s.ok()) {
        (void)Exec(nullptr, "ROLLBACK");
        return s;
      }
    }
    version_[aid - 1] += 1;
    doc_aid_[did - 1] = parent;
    return Status::Ok();
  }

  Status Verify() override {
    int64_t version = 0, weight = 0, doc_aid = 0, doc_mix = 0, qty = 0,
            mix = 0;
    for (size_t i = 0; i < data_.asms.size(); ++i) {
      version += version_[i];
      weight += data_.asms[i].weight;
    }
    for (size_t i = 0; i < data_.docs.size(); ++i) {
      doc_aid += doc_aid_[i];
      doc_mix += data_.docs[i].did * doc_aid_[i];
    }
    for (const Use& u : data_.uses) {
      qty += u.qty;
      mix += u.parent * u.child;
    }
    XNF_RETURN_IF_ERROR(ExpectRow(
        this, db_.get(), "SELECT COUNT(*), SUM(version), SUM(weight) FROM asm",
        {static_cast<int64_t>(data_.asms.size()), version, weight}));
    XNF_RETURN_IF_ERROR(ExpectRow(
        this, db_.get(), "SELECT COUNT(*), SUM(aid), SUM(did * aid) FROM doc",
        {static_cast<int64_t>(data_.docs.size()), doc_aid, doc_mix}));
    return ExpectRow(
        this, db_.get(),
        "SELECT COUNT(*), SUM(qty), SUM(parent * child) FROM uses",
        {static_cast<int64_t>(data_.uses.size()), qty, mix});
  }

  void CorruptOracle() override { version_[0] += 1; }

 protected:
  Database::Options DbOptions() const override {
    Database::Options options = Workload::DbOptions();
    options.checkpoint_wal_bytes = kCheckpointWalBytes;
    return options;
  }

  void BeforeClose() override {
    manip_.reset();
    cache_.reset();
  }

 private:
  static constexpr int kTxnsPerCheckout = 25;
  static constexpr uint64_t kCheckpointWalBytes = 1 << 20;

  std::vector<std::string> LoadStatements() const override {
    return Script({CadSchema(), CadInserts(data_, kInsertBatch), CadIndexes()});
  }

  CoCache::Tuple* Pick(int node) {
    std::deque<CoCache::Tuple>& tuples = cache_->node(node).tuples;
    for (;;) {
      CoCache::Tuple* t =
          &tuples[rng_.Below(static_cast<int64_t>(tuples.size()))];
      if (t->alive) return t;
    }
  }

  Status Edit() {
    // Column update.
    {
      CoCache::Tuple* t = Pick(a_);
      const int64_t aid = t->values[0].AsInt();
      auto it = pending_version_.find(aid);
      const int64_t v =
          (it != pending_version_.end() ? it->second : version_[aid - 1]) + 1;
      Span span(tracer_, "writethrough");
      XNF_RETURN_IF_ERROR(manip_->UpdateColumn(t, "version", Value::Int(v)));
      pending_version_[aid] = v;
    }
    // Foreign-key reassign: the document moves to another assembly.
    {
      CoCache::Tuple* doc = Pick(d_);
      CoCache::Tuple* parent = Pick(a_);
      while (parent->values[0].AsInt() == doc->values[1].AsInt()) {
        parent = Pick(a_);
      }
      Span span(tracer_, "writethrough");
      XNF_RETURN_IF_ERROR(manip_->Connect(docs_, parent, doc).status());
      pending_doc_[doc->values[0].AsInt()] = parent->values[0].AsInt();
    }
    // Link-table connect and disconnect of a pair that is not a use yet.
    {
      CoCache::Tuple* p = Pick(a_);
      CoCache::Tuple* c = Pick(a_);
      while (c == p ||
             edges_.count({p->values[0].AsInt(), c->values[0].AsInt()}) > 0) {
        p = Pick(a_);
        c = Pick(a_);
      }
      CoCache::Connection* conn = nullptr;
      {
        Span span(tracer_, "writethrough");
        XNF_ASSIGN_OR_RETURN(conn,
                             manip_->Connect(sub_, p, c, {Value::Int(5)}));
      }
      Span span(tracer_, "writethrough");
      XNF_RETURN_IF_ERROR(manip_->Disconnect(conn));
    }
    // Insert plus delete, so the data size stays constant.
    {
      const int64_t aid = next_aid_++;
      CoCache::Tuple* t = nullptr;
      {
        Span span(tracer_, "writethrough");
        XNF_ASSIGN_OR_RETURN(
            t, manip_->InsertTuple(
                   a_, {Value::Int(aid), Value::Int(cfg_), Value::Int(0),
                        Value::String("n" + Str(aid)), Value::Int(1),
                        Value::Int(7)}));
      }
      Span span(tracer_, "writethrough");
      XNF_RETURN_IF_ERROR(manip_->DeleteTuple(t));
    }
    return Status::Ok();
  }

  CadData data_;
  Rng rng_;
  // Client-side model of every acknowledged write.
  std::vector<int64_t> version_;  // by aid - 1
  std::vector<int64_t> doc_aid_;  // by did - 1
  std::set<std::pair<int64_t, int64_t>> edges_;
  std::map<int64_t, int64_t> pending_version_;
  std::map<int64_t, int64_t> pending_doc_;
  int64_t next_aid_ = 0;

  std::unique_ptr<CoCache> cache_;
  std::unique_ptr<xnf::co::Manipulator> manip_;
  int64_t cfg_ = 0;
  int txns_since_checkout_ = 0;
  int a_ = -1, d_ = -1, sub_ = -1, docs_ = -1;
};

// --- sql_sessions -----------------------------------------------------------

class SqlSessions : public Workload {
 public:
  SqlSessions(uint64_t seed, bool small)
      : data_(GenerateAccounts(Shape(small), seed)) {
    const AccountShape& s = data_.shape;
    for (int c = 0; c < s.sessions; ++c) {
      clients_.push_back(std::make_unique<Client>(seed * 31 + c));
      Client& cl = *clients_.back();
      cl.lo = static_cast<int64_t>(c) * s.accounts_per_session + 1;
      cl.n = s.accounts_per_session;
      cl.next_hid = c * kHistStride + s.history_per_session;
    }
    for (const AccountData::Hist& h : data_.hist) {
      clients_[h.hid / kHistStride]->hist.push_back(h);
    }
  }

  int clients() const override { return data_.shape.sessions; }
  int dop() const override { return 1; }
  double tail_percentile() const override { return 90.0; }
  int further_ops() const override { return 150; }
  int64_t memory_ops() const override { return 2400; }
  int warmup_ops() const override { return 60; }
  int64_t rows() const override { return data_.rows(); }

  // One short transaction of ad-hoc statements on the client's key range.
  Status Op(int client) override {
    Client& cl = *clients_[client];
    Session* s = cl.session.get();
    const int64_t x = cl.lo + cl.rng.Below(cl.n);
    const int64_t y = cl.lo + cl.rng.Below(cl.n);
    const int64_t delta = cl.rng.Below(200) - 100;
    XNF_RETURN_IF_ERROR(Exec(s, "BEGIN").status());
    Status st = Body(&cl, x, y, delta);
    if (st.ok()) {
      Span span(tracer_, "commit");
      st = Exec(s, "COMMIT").status();
      if (!st.ok()) return st;
    } else {
      (void)Exec(s, "ROLLBACK");
      return st;
    }
    data_.balance[x] += delta;
    cl.hist.push_back({cl.next_hid++, x, delta});
    cl.hist.pop_front();
    counts.rows_written += 3;
    return Status::Ok();
  }

  Status Verify() override {
    for (const auto& cl : clients_) {
      int64_t sum = 0, mix = 0;
      for (int64_t id = cl->lo; id < cl->lo + cl->n; ++id) {
        sum += data_.balance[id];
        mix += id * data_.balance[id];
      }
      XNF_RETURN_IF_ERROR(ExpectRow(
          this, db_.get(),
          "SELECT COUNT(*), SUM(balance), SUM(id * balance) FROM acct "
          "WHERE id >= " + Str(cl->lo) + " AND id < " + Str(cl->lo + cl->n),
          {cl->n, sum, mix}));
      int64_t hid_sum = 0, acct_sum = 0, delta_sum = 0;
      for (const AccountData::Hist& h : cl->hist) {
        hid_sum += h.hid % kHistStride;
        acct_sum += h.acct;
        delta_sum += h.delta;
      }
      const int64_t base = (cl->lo - 1) / data_.shape.accounts_per_session *
                           kHistStride;
      XNF_RETURN_IF_ERROR(ExpectRow(
          this, db_.get(),
          "SELECT COUNT(*), SUM(hid - " + Str(base) +
              "), SUM(acct), SUM(delta) FROM hist WHERE hid >= " + Str(base) +
              " AND hid < " + Str(base + kHistStride),
          {static_cast<int64_t>(cl->hist.size()), hid_sum, acct_sum,
           delta_sum}));
    }
    return Status::Ok();
  }

  void CorruptOracle() override {
    for (const auto& cl : clients_) data_.balance[cl->lo] += 1;
  }

 protected:
  Database::Options DbOptions() const override {
    Database::Options options = Workload::DbOptions();
    options.checkpoint_wal_bytes = kCheckpointWalBytes;
    return options;
  }

  Status AfterOpen() override {
    for (auto& cl : clients_) cl->session = db_->OpenSession();
    return Status::Ok();
  }

  void BeforeClose() override {
    for (auto& cl : clients_) cl->session.reset();
  }

 private:
  static constexpr uint64_t kCheckpointWalBytes = 128 << 10;

  struct Client {
    explicit Client(uint64_t seed) : rng(seed) {}
    Rng rng;
    int64_t lo = 0, n = 0;
    int64_t next_hid = 0;
    std::deque<AccountData::Hist> hist;  // this client's rows, oldest first
    std::unique_ptr<Session> session;
  };

  static AccountShape Shape(bool small) {
    AccountShape shape;
    if (small) {
      shape.accounts_per_session = 200;
      shape.owners = 100;
      shape.history_per_session = 100;
    }
    return shape;
  }

  std::vector<std::string> LoadStatements() const override {
    return Script({AccountSchema(), AccountInserts(data_, kInsertBatch)});
  }

  Status Body(Client* cl, int64_t x, int64_t y, int64_t delta) {
    Session* s = cl->session.get();
    const std::string ctx = "session " + Str(static_cast<int64_t>(s->id())) +
                            " ";
    XNF_ASSIGN_OR_RETURN(
        ExecResult r1,
        Exec(s, "SELECT balance FROM acct WHERE id = " + Str(x)));
    if (r1.rows.rows.size() == 1) {
      Expect(this, ctx + "balance of " + Str(x), IntOrZero(r1.rows.rows[0][0]),
             data_.balance[x]);
    } else {
      Mismatch(ctx + "point select of " + Str(x) + " returned " +
               Str(static_cast<int64_t>(r1.rows.rows.size())) + " rows");
    }
    XNF_ASSIGN_OR_RETURN(
        ExecResult r2,
        Exec(s, "SELECT balance, owner FROM acct WHERE id = " + Str(y)));
    if (r2.rows.rows.size() == 1) {
      Expect(this, ctx + "balance of " + Str(y), IntOrZero(r2.rows.rows[0][0]),
             data_.balance[y]);
      Expect(this, ctx + "owner of " + Str(y), IntOrZero(r2.rows.rows[0][1]),
             data_.acct_owner[y]);
    } else {
      Mismatch(ctx + "point select of " + Str(y) + " returned " +
               Str(static_cast<int64_t>(r2.rows.rows.size())) + " rows");
    }
    XNF_ASSIGN_OR_RETURN(
        ExecResult r3,
        Exec(s, "SELECT a.balance, o.tier FROM acct a JOIN owner o "
                "ON a.owner = o.oid WHERE a.id = " + Str(x)));
    if (r3.rows.rows.size() == 1) {
      Expect(this, ctx + "joined tier of " + Str(x),
             IntOrZero(r3.rows.rows[0][1]),
             data_.owner_tier[data_.acct_owner[x]]);
    } else {
      Mismatch(ctx + "join for " + Str(x) + " returned " +
               Str(static_cast<int64_t>(r3.rows.rows.size())) + " rows");
    }
    counts.rows_out += static_cast<int64_t>(
        r1.rows.rows.size() + r2.rows.rows.size() + r3.rows.rows.size());
    XNF_ASSIGN_OR_RETURN(
        ExecResult u,
        Exec(s, "UPDATE acct SET balance = balance + " + Str(delta) +
                    " WHERE id = " + Str(x)));
    Expect(this, ctx + "update count", u.affected, 1);
    XNF_ASSIGN_OR_RETURN(
        ExecResult i, Exec(s, "INSERT INTO hist VALUES (" +
                                  Str(cl->next_hid) + ", " + Str(x) + ", " +
                                  Str(delta) + ")"));
    Expect(this, ctx + "insert count", i.affected, 1);
    XNF_ASSIGN_OR_RETURN(
        ExecResult d, Exec(s, "DELETE FROM hist WHERE hid = " +
                                  Str(cl->hist.front().hid)));
    Expect(this, ctx + "delete count", d.affected, 1);
    return Status::Ok();
  }

  AccountData data_;
  std::vector<std::unique_ptr<Client>> clients_;
};

// --- analytic ---------------------------------------------------------------

class Analytic : public Workload {
 public:
  Analytic(uint64_t seed, bool small)
      : data_(GenerateFacts(Shape(small), seed, kReports)),
        rng_(seed ^ 0xA7A1) {}

  int clients() const override { return 1; }
  int dop() const override { return 2; }
  double tail_percentile() const override { return 75.0; }
  int windows() const override { return 10; }
  int further_ops() const override { return 3; }
  int64_t memory_ops() const override { return 400; }
  int warmup_ops() const override { return 4; }
  int64_t rows() const override { return data_.rows(); }

  // One fixed report: scan-filter, join-aggregate, TAKE-projected CO.
  Status Op(int) override {
    const int idx = static_cast<int>(rng_.Below(kReports));
    return Run(data_.reports[idx], "report " + Str(idx) + " ");
  }

  Status Verify() override {
    int64_t qty = 0, price = 0, cat = 0;
    for (const Fact& f : data_.facts) {
      qty += f.qty;
      price += f.price;
    }
    for (const Product& p : data_.products) cat += p.cat;
    XNF_RETURN_IF_ERROR(ExpectRow(
        this, db_.get(), "SELECT COUNT(*), SUM(qty), SUM(price) FROM fact",
        {static_cast<int64_t>(data_.facts.size()), qty, price}));
    XNF_RETURN_IF_ERROR(ExpectRow(
        this, db_.get(), "SELECT COUNT(*), SUM(cat) FROM prod",
        {static_cast<int64_t>(data_.products.size()), cat}));
    return Run(data_.reports[0], "report 0 ");
  }

  void CorruptOracle() override {
    for (Report& r : data_.reports) r.scan_count += 1;
  }

 protected:
  Database::Options DbOptions() const override {
    Database::Options options = Workload::DbOptions();
    options.buffer_pool_pages = kPoolPages;
    return options;
  }

 private:
  static constexpr int kReports = 16;
  static constexpr size_t kPoolPages = 1024;

  static FactShape Shape(bool small) {
    FactShape shape;
    if (small) {
      shape.facts = 4000;
      shape.products = 200;
    }
    return shape;
  }

  std::vector<std::string> LoadStatements() const override {
    return Script({FactSchema(), FactInserts(data_, kInsertBatch)});
  }

  Status Run(const Report& want, const std::string& ctx) {
    XNF_ASSIGN_OR_RETURN(ExecResult scan, Exec(nullptr, ScanQuery(want)));
    if (scan.rows.rows.size() == 1) {
      Expect(this, ctx + "scan count", IntOrZero(scan.rows.rows[0][0]),
             want.scan_count);
      Expect(this, ctx + "scan qty", IntOrZero(scan.rows.rows[0][1]),
             want.scan_qty);
    } else {
      Mismatch(ctx + "scan returned no single row");
    }
    XNF_ASSIGN_OR_RETURN(ExecResult agg,
                         Exec(nullptr, JoinAggregateQuery(want)));
    int64_t groups = 0;
    for (int64_t c : want.group_count) groups += c > 0 ? 1 : 0;
    Expect(this, ctx + "groups", static_cast<int64_t>(agg.rows.rows.size()),
           groups);
    for (const Row& row : agg.rows.rows) {
      const int64_t cat = IntOrZero(row[0]);
      if (cat < 0 || cat >= static_cast<int64_t>(want.group_count.size())) {
        Mismatch(ctx + "unknown category " + Str(cat));
        continue;
      }
      Expect(this, ctx + "count of category " + Str(cat), IntOrZero(row[1]),
             want.group_count[cat]);
      Expect(this, ctx + "qty of category " + Str(cat), IntOrZero(row[2]),
             want.group_qty[cat]);
    }
    XNF_ASSIGN_OR_RETURN(std::unique_ptr<CoCache> cache,
                         Checkout(FactCoQuery(want)));
    const int p = cache->NodeIndex("p"), f = cache->NodeIndex("f"),
              sold = cache->RelIndex("sold");
    if (p < 0 || f < 0 || sold < 0) {
      Mismatch(ctx + "CO lacks a node or relationship");
      return Status::Ok();
    }
    int64_t products = 0, facts = 0, links = 0, qty = 0;
    {
      Span span(tracer_, "walk");
      xnf::co::Cursor pc(cache.get(), p);
      while (pc.Next()) {
        ++products;
        links += static_cast<int64_t>(
            cache->Children(sold, *pc.tuple()).size());
      }
      xnf::co::Cursor fc(cache.get(), f);
      while (fc.Next()) {
        ++facts;
        qty += fc.values()[1].AsInt();
      }
    }
    Expect(this, ctx + "CO products", products, want.co_products);
    Expect(this, ctx + "CO facts", facts, want.co_facts);
    Expect(this, ctx + "CO links", links, want.co_links);
    Expect(this, ctx + "CO qty", qty, want.co_qty);
    counts.nav_steps += products + facts + links;
    counts.co_tuples += products + facts;
    counts.rows_out += products + facts +
                       static_cast<int64_t>(scan.rows.rows.size() +
                                            agg.rows.rows.size());
    return Status::Ok();
  }

  FactData data_;
  Rng rng_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"co_checkout", "co_edit",
                                                 "sql_sessions", "analytic"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool small) {
  if (name == "co_checkout") return std::make_unique<CoCheckout>(seed, small);
  if (name == "co_edit") return std::make_unique<CoEdit>(seed, small);
  if (name == "sql_sessions") {
    return std::make_unique<SqlSessions>(seed, small);
  }
  if (name == "analytic") return std::make_unique<Analytic>(seed, small);
  return nullptr;
}

}  // namespace xnfbench
